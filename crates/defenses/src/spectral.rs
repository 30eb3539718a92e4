//! The Spectral baseline: surrogate-VAE anomaly detection over model updates.

use fg_agg::ops::fedavg;
use fg_data::Dataset;
use fg_fl::{
    AggregationContext, AggregationOutcome, AggregationStrategy, ModelUpdate, StrategyTimings,
};
use fg_nn::models::{Classifier, ClassifierSpec, Vae, VaeSpec};
use fg_nn::optim::{Adam, Sgd};
use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Spectral's knobs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpectralConfig {
    /// Surrogate dimensionality: the last `surrogate_dim` entries of the
    /// parameter vector (the output layer — the slice most responsive to
    /// label semantics). The original work likewise compresses updates into
    /// a low-dimensional surrogate before the VAE.
    pub surrogate_dim: usize,
    /// VAE hidden width.
    pub vae_hidden: usize,
    /// VAE latent dimensionality.
    pub vae_latent: usize,
    /// KL weight β for the surrogate VAE.
    pub beta: f32,
    /// Simulated pre-training rounds on the auxiliary dataset.
    pub pretrain_rounds: usize,
    /// Pseudo-clients per simulated round.
    pub pretrain_clients: usize,
    /// VAE training epochs over the collected surrogate corpus.
    pub vae_epochs: usize,
    /// Local epochs of each simulated pseudo-client.
    pub local_epochs: usize,
    pub local_batch: usize,
    pub local_lr: f32,
}

impl SpectralConfig {
    /// A configuration sized for the CPU-budget presets.
    pub fn fast() -> Self {
        SpectralConfig {
            surrogate_dim: 512,
            vae_hidden: 64,
            vae_latent: 8,
            beta: 0.05,
            pretrain_rounds: 6,
            pretrain_clients: 8,
            vae_epochs: 60,
            local_epochs: 1,
            local_batch: 32,
            local_lr: 0.05,
        }
    }
}

/// Per-coordinate standardization fitted on the pre-training corpus.
#[derive(Clone, Debug)]
struct Scaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Scaler {
    fn fit(rows: &[Vec<f32>]) -> Scaler {
        let d = rows[0].len();
        let n = rows.len() as f32;
        let mut mean = vec![0.0f32; d];
        for r in rows {
            for (m, &v) in mean.iter_mut().zip(r) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0f32; d];
        for r in rows {
            for ((s, &v), &m) in std.iter_mut().zip(r).zip(&mean) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-6);
        }
        Scaler { mean, std }
    }

    fn transform(&self, row: &[f32]) -> Vec<f32> {
        row.iter().zip(&self.mean).zip(&self.std).map(|((&v, &m), &s)| (v - m) / s).collect()
    }
}

/// The pre-trained Spectral detector, pluggable as an aggregation strategy.
pub struct SpectralDefense {
    config: SpectralConfig,
    vae: Vae,
    scaler: Scaler,
}

impl SpectralDefense {
    /// Pre-train the detector on the server's auxiliary dataset: simulate
    /// benign local trainings, collect surrogates, fit the scaler, train the
    /// VAE. This is the centralized preparation the paper criticizes
    /// Spectral for needing (FedGuard's §VI-A "works out of the box" claim).
    pub fn pretrain(
        classifier: &ClassifierSpec,
        aux: &Dataset,
        config: SpectralConfig,
        seed: u64,
    ) -> Self {
        assert!(!aux.is_empty(), "Spectral needs a non-empty auxiliary dataset");
        assert!(config.surrogate_dim <= classifier.num_params());
        let mut rng = SeededRng::new(seed);
        let mut global = Classifier::new(classifier, &mut rng).get_params();
        let mut corpus: Vec<Vec<f32>> = Vec::new();

        for round in 0..config.pretrain_rounds {
            let mut round_updates: Vec<Vec<f32>> = Vec::new();
            for c in 0..config.pretrain_clients {
                // Pseudo-client: a bootstrap subset of the auxiliary data.
                let mut sub_rng = rng.fork((round * 1000 + c) as u64);
                let take = (aux.len() / 2).max(1);
                let idx = sub_rng.sample_distinct(aux.len(), take);
                let mut subset = aux.subset(&idx);
                let mut clf = Classifier::from_params(classifier, &global);
                let mut sgd = Sgd::with_momentum(config.local_lr, 0.9);
                for _ in 0..config.local_epochs {
                    subset.shuffle(&mut sub_rng);
                    for (x, y) in subset.batches(config.local_batch) {
                        clf.train_batch(&x, &y, &mut sgd);
                    }
                }
                round_updates.push(clf.into_params());
            }
            // Collect surrogate *deltas* relative to the round's global
            // (updates, not absolute weights — deltas are stationary across
            // rounds), then advance the central model (benign FedAvg over
            // the pseudo-clients).
            for u in &round_updates {
                corpus.push(Self::delta_surrogate(u, &global, config.surrogate_dim));
            }
            let refs: Vec<&[f32]> = round_updates.iter().map(|u| u.as_slice()).collect();
            global = fedavg(&refs, &vec![1usize; refs.len()]);
        }

        let scaler = Scaler::fit(&corpus);
        let standardized: Vec<Vec<f32>> = corpus.iter().map(|r| scaler.transform(r)).collect();

        let spec = VaeSpec {
            x_dim: config.surrogate_dim,
            hidden: config.vae_hidden,
            latent: config.vae_latent,
        };
        let mut vae = Vae::new(&spec, &mut rng);
        let mut adam = Adam::new(1e-3);
        let flat: Vec<f32> = standardized.iter().flatten().copied().collect();
        let x = Tensor::from_vec(flat, &[standardized.len(), config.surrogate_dim]);
        for _ in 0..config.vae_epochs {
            vae.train_batch(&x, config.beta, &mut adam, &mut rng);
        }

        SpectralDefense { config, vae, scaler }
    }

    /// Last `dim` coordinates of `params - global` — the raw surrogate.
    fn delta_surrogate(params: &[f32], global: &[f32], dim: usize) -> Vec<f32> {
        assert_eq!(params.len(), global.len(), "surrogate: global size mismatch");
        params[params.len() - dim..]
            .iter()
            .zip(&global[global.len() - dim..])
            .map(|(&p, &g)| p - g)
            .collect()
    }

    fn surrogate(&self, params: &[f32], global: &[f32]) -> Vec<f32> {
        self.scaler.transform(&Self::delta_surrogate(params, global, self.config.surrogate_dim))
    }

    /// Reconstruction error per update — the anomaly scores the dynamic
    /// threshold operates on. `global` is the round's starting parameters.
    pub fn scores(&mut self, updates: &[ModelUpdate], global: &[f32]) -> Vec<f32> {
        let rows: Vec<Vec<f32>> =
            updates.iter().map(|u| self.surrogate(&u.params, global)).collect();
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let x = Tensor::from_vec(flat, &[rows.len(), self.config.surrogate_dim]);
        self.vae.reconstruction_errors(&x)
    }
}

impl AggregationStrategy for SpectralDefense {
    fn name(&self) -> &'static str {
        "Spectral"
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        let audit_span = fg_obs::span::timed_span("round.audit");
        let errors = self.scores(updates, ctx.global);
        let threshold = errors.iter().sum::<f32>() / errors.len() as f32;
        let audit_secs = audit_span.close();
        let mut keep: Vec<usize> = (0..updates.len()).filter(|&i| errors[i] <= threshold).collect();
        if keep.is_empty() {
            // Degenerate round (all errors identical / NaN): keep everything
            // rather than diverge.
            keep = (0..updates.len()).collect();
        }
        let refs: Vec<&[f32]> = keep.iter().map(|&i| updates[i].params.as_slice()).collect();
        let counts: Vec<usize> = keep.iter().map(|&i| updates[i].num_samples).collect();
        AggregationOutcome::new(
            fedavg(&refs, &counts),
            keep.iter().map(|&i| updates[i].client_id).collect(),
        )
        .with_scores(updates.iter().zip(&errors).map(|(u, &e)| (u.client_id, e)).collect())
        .with_threshold(threshold)
        .with_timings(StrategyTimings { synthesis_secs: 0.0, audit_secs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_data::synth::generate_dataset;
    use fg_tensor::rng::SeededRng;

    fn tiny_config() -> SpectralConfig {
        SpectralConfig {
            surrogate_dim: 170, // MLP hidden=16 output layer size
            vae_hidden: 32,
            vae_latent: 4,
            beta: 0.05,
            pretrain_rounds: 3,
            pretrain_clients: 4,
            vae_epochs: 40,
            local_epochs: 1,
            local_batch: 16,
            local_lr: 0.05,
        }
    }

    fn test_global() -> Vec<f32> {
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        Classifier::new(&spec, &mut SeededRng::new(0)).get_params()
    }

    fn benign_update(id: usize, aux: &Dataset, seed: u64) -> ModelUpdate {
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let mut rng = SeededRng::new(seed);
        let global = test_global();
        let mut clf = Classifier::from_params(&spec, &global);
        let mut sgd = Sgd::with_momentum(0.05, 0.9);
        let mut data = aux.clone();
        data.shuffle(&mut rng);
        for (x, y) in data.batches(16) {
            clf.train_batch(&x, &y, &mut sgd);
        }
        ModelUpdate {
            client_id: id,
            params: clf.into_params(),
            num_samples: aux.len(),
            decoder: None,
            class_coverage: None,
        }
    }

    #[test]
    fn pretrained_detector_separates_garbage_updates() {
        let aux = generate_dataset(10, 3); // 100 samples
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let mut def = SpectralDefense::pretrain(&spec, &aux, tiny_config(), 7);

        let benign: Vec<ModelUpdate> =
            (0..4).map(|i| benign_update(i, &aux, 100 + i as u64)).collect();
        let mut garbage = benign_update(9, &aux, 999);
        garbage.params.iter_mut().for_each(|w| *w = 1.0); // same-value attack

        let mut updates = benign.clone();
        updates.push(garbage);
        let scores = def.scores(&updates, &test_global());
        let max_benign = scores[..4].iter().copied().fold(f32::MIN, f32::max);
        assert!(
            scores[4] > max_benign,
            "garbage update not flagged: benign max {max_benign}, garbage {}",
            scores[4]
        );
    }

    #[test]
    fn aggregate_excludes_high_error_updates() {
        let aux = generate_dataset(10, 4);
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let mut def = SpectralDefense::pretrain(&spec, &aux, tiny_config(), 8);

        let mut updates: Vec<ModelUpdate> =
            (0..4).map(|i| benign_update(i, &aux, 200 + i as u64)).collect();
        let mut attacker = benign_update(4, &aux, 777);
        attacker.params.iter_mut().for_each(|w| *w = 1.0);
        updates.push(attacker);

        let global = test_global();
        let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(0) };
        let out = def.aggregate(&updates, &mut ctx);
        assert!(!out.selected.contains(&4), "attacker survived Spectral: {:?}", out.selected);
        assert!(!out.selected.is_empty());
    }

    #[test]
    fn degenerate_round_keeps_everyone() {
        let aux = generate_dataset(5, 5);
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let mut def = SpectralDefense::pretrain(&spec, &aux, tiny_config(), 9);
        // Identical updates: every error equals the mean, all kept.
        let u = benign_update(0, &aux, 1);
        let updates =
            vec![ModelUpdate { client_id: 0, ..u.clone() }, ModelUpdate { client_id: 1, ..u }];
        let global = test_global();
        let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(0) };
        let out = def.aggregate(&updates, &mut ctx);
        assert_eq!(out.selected.len(), 2);
    }
}
