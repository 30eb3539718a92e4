//! The federated client (Alg. 1, `Client` function).

use crate::config::{CvaeTrainConfig, FederationConfig, LocalTrainConfig};
use crate::update::ModelUpdate;
use fg_data::Dataset;
use fg_nn::models::{Classifier, ClassifierSpec, Cvae};
use fg_nn::optim::{Adam, Sgd};
use fg_tensor::rng::SeededRng;

/// Hook through which poisoning attacks corrupt a client's submission before
/// it reaches the server. The federation applies the interceptor to every
/// sampled client each round; benign clients are left untouched by the
/// implementations in `fg-attacks`.
pub trait UpdateInterceptor: Send + Sync {
    /// Mutate `update` in place. `round` is the current federated round.
    fn intercept(&self, update: &mut ModelUpdate, round: usize);

    /// Client ids this interceptor corrupts (for reporting/ground truth).
    fn malicious_clients(&self) -> Vec<usize>;
}

/// A no-op interceptor: every client behaves honestly.
pub struct NoAttack;

impl UpdateInterceptor for NoAttack {
    fn intercept(&self, _update: &mut ModelUpdate, _round: usize) {}

    fn malicious_clients(&self) -> Vec<usize> {
        Vec::new()
    }
}

/// A federated client: private data partition plus local training state.
///
/// Each round the client receives the global parameters `ψ₀`, trains the
/// classifier for `local.epochs` epochs on its partition, and returns the
/// trained `ψ`. When a CVAE configuration is present the client also trains
/// its CVAE — once, since partitions are static (paper footnote 5) — and
/// attaches the cached decoder `θ` to every update.
pub struct Client {
    id: usize,
    data: Dataset,
    classifier_spec: ClassifierSpec,
    local: LocalTrainConfig,
    cvae: Option<CvaeTrainConfig>,
    cached_decoder: Option<Vec<f32>>,
    seed: u64,
}

impl Client {
    /// Crate-internal positional constructor. Public construction goes
    /// through [`Client::for_federation`], which derives the seed the same
    /// way `Federation`'s builder does — the only construction path that
    /// keeps out-of-process clients bit-identical to in-process ones.
    pub(crate) fn new(
        id: usize,
        data: Dataset,
        classifier_spec: ClassifierSpec,
        local: LocalTrainConfig,
        cvae: Option<CvaeTrainConfig>,
        seed: u64,
    ) -> Self {
        Client { id, data, classifier_spec, local, cvae, cached_decoder: None, seed }
    }

    /// Construct client `id` exactly as a federation built for `config`
    /// would: same classifier spec, same local-training config, and —
    /// critically — the same derived seed (`fork(id)` of the federation's
    /// master RNG). An out-of-process `fed_client` built through here is
    /// bit-identical to its in-process twin, which is what makes the
    /// loopback-equivalence oracle hold.
    pub fn for_federation(
        config: &FederationConfig,
        id: usize,
        data: Dataset,
        cvae: Option<CvaeTrainConfig>,
    ) -> Self {
        Client::new(
            id,
            data,
            config.classifier,
            config.local,
            cvae,
            SeededRng::new(config.seed).fork(id as u64).seed(),
        )
    }

    pub fn id(&self) -> usize {
        self.id
    }

    /// One federated round of local work (Alg. 1 lines 22-27): train the
    /// classifier from the global parameters and return `(θ*, ψ*)`.
    pub fn train_round(&mut self, global_params: &[f32], round: usize) -> ModelUpdate {
        let params = self.train_classifier(global_params, round);
        let (decoder, class_coverage) = if let Some(cfg) = &self.cvae {
            let n_classes = cfg.spec.n_classes;
            let coverage = self.data.class_histogram(n_classes).iter().map(|&c| c as u32).collect();
            (Some(self.decoder_params(round)), Some(coverage))
        } else {
            (None, None)
        };
        ModelUpdate {
            client_id: self.id,
            params,
            num_samples: self.data.len(),
            decoder,
            class_coverage,
        }
    }

    fn train_classifier(&mut self, global_params: &[f32], round: usize) -> Vec<f32> {
        let mut clf = Classifier::from_params(&self.classifier_spec, global_params);
        if self.data.is_empty() {
            return clf.into_params();
        }
        let mut sgd = Sgd::with_momentum(self.local.lr, self.local.momentum);
        let mut rng = SeededRng::new(self.seed).fork(round as u64);
        let mut data = self.data.clone();
        for _ in 0..self.local.epochs {
            data.shuffle(&mut rng);
            for (x, y) in data.batches(self.local.batch_size) {
                clf.train_batch(&x, &y, &mut sgd);
            }
        }
        clf.into_params()
    }

    /// The client's CVAE decoder `θ`, training the CVAE on first use.
    pub fn decoder_params(&mut self, round: usize) -> Vec<f32> {
        if let Some(theta) = &self.cached_decoder {
            return theta.clone();
        }
        let cfg = self.cvae.as_ref().expect("decoder requested but no CVAE configured");
        let mut rng = SeededRng::new(self.seed).fork(0xC0DE ^ round as u64);
        let mut cvae = Cvae::new(&cfg.spec, &mut rng);
        if !self.data.is_empty() {
            let mut adam = Adam::new(cfg.lr);
            let mut data = self.data.clone();
            for _ in 0..cfg.epochs {
                data.shuffle(&mut rng);
                for (x, y) in data.batches(cfg.batch_size) {
                    cvae.train_batch(&x, &y, &mut adam, &mut rng);
                }
            }
        }
        let theta = cvae.decoder_params();
        self.cached_decoder = Some(theta.clone());
        theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_data::synth::generate_dataset;
    use fg_nn::models::CvaeSpec;

    fn toy_client(with_cvae: bool) -> Client {
        let data = generate_dataset(5, 1); // 50 samples
        let cvae = with_cvae.then(|| CvaeTrainConfig {
            spec: CvaeSpec::reduced(16, 4),
            epochs: 1,
            batch_size: 16,
            lr: 1e-3,
        });
        Client::new(
            0,
            data,
            ClassifierSpec::Mlp { hidden: 16 },
            LocalTrainConfig { epochs: 1, batch_size: 16, lr: 0.05, momentum: 0.9 },
            cvae,
            42,
        )
    }

    #[test]
    fn train_round_returns_changed_params() {
        let mut c = toy_client(false);
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let global = Classifier::new(&spec, &mut SeededRng::new(0)).get_params();
        let update = c.train_round(&global, 0);
        assert_eq!(update.params.len(), global.len());
        assert_ne!(update.params, global);
        assert_eq!(update.num_samples, 50);
        assert!(update.decoder.is_none());
    }

    #[test]
    fn cvae_client_attaches_decoder_and_caches_it() {
        let mut c = toy_client(true);
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let global = Classifier::new(&spec, &mut SeededRng::new(0)).get_params();
        let u1 = c.train_round(&global, 0);
        let d1 = u1.decoder.expect("decoder attached");
        assert_eq!(d1.len(), CvaeSpec::reduced(16, 4).decoder_params());
        // Second round: decoder identical (trained once, cached).
        let u2 = c.train_round(&global, 1);
        assert_eq!(u2.decoder.unwrap(), d1);
    }

    #[test]
    fn cvae_client_ships_its_class_coverage() {
        let mut c = toy_client(true);
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let global = Classifier::new(&spec, &mut SeededRng::new(0)).get_params();
        let update = c.train_round(&global, 0);
        let coverage = update.class_coverage.expect("coverage attached with decoder");
        assert_eq!(coverage.len(), 10);
        // Balanced toy dataset: 5 samples per class.
        assert!(coverage.iter().all(|&c| c == 5), "{coverage:?}");
    }

    #[test]
    fn plain_client_ships_no_coverage() {
        let mut c = toy_client(false);
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let global = Classifier::new(&spec, &mut SeededRng::new(0)).get_params();
        assert!(c.train_round(&global, 0).class_coverage.is_none());
    }

    #[test]
    fn empty_client_returns_global_unchanged() {
        let mut c = Client::new(
            3,
            Dataset::empty(),
            ClassifierSpec::Mlp { hidden: 16 },
            LocalTrainConfig::default(),
            None,
            7,
        );
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let global = Classifier::new(&spec, &mut SeededRng::new(0)).get_params();
        let update = c.train_round(&global, 0);
        assert_eq!(update.params, global);
        assert_eq!(update.num_samples, 0);
    }

    #[test]
    fn training_is_deterministic_per_seed_and_round() {
        let mut c1 = toy_client(false);
        let mut c2 = toy_client(false);
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let global = Classifier::new(&spec, &mut SeededRng::new(0)).get_params();
        assert_eq!(c1.train_round(&global, 3).params, c2.train_round(&global, 3).params);
        assert_ne!(c1.train_round(&global, 3).params, c1.train_round(&global, 4).params);
    }
}
