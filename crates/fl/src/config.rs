//! Federation and local-training configuration.

use fg_nn::models::{ClassifierSpec, CvaeSpec};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a client's local classifier training (Alg. 1 line 26).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainConfig {
    /// Local epochs per round (the paper uses 5).
    pub epochs: usize,
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
}

impl Default for LocalTrainConfig {
    fn default() -> Self {
        LocalTrainConfig { epochs: 5, batch_size: 32, lr: 0.05, momentum: 0.9 }
    }
}

/// Hyper-parameters of a client's one-time CVAE training (Alg. 1 line 25;
/// the paper trains for 30 epochs, once, since partitions are static).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CvaeTrainConfig {
    pub spec: CvaeSpec,
    pub epochs: usize,
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl CvaeTrainConfig {
    /// The paper's Table III configuration: 30 epochs of Adam.
    pub fn paper() -> Self {
        CvaeTrainConfig { spec: CvaeSpec::table_iii(), epochs: 30, batch_size: 64, lr: 1e-3 }
    }

    /// Reduced configuration for CPU-budget presets.
    pub fn reduced(hidden: usize, latent: usize, epochs: usize) -> Self {
        CvaeTrainConfig {
            spec: CvaeSpec::reduced(hidden, latent),
            epochs,
            batch_size: 32,
            lr: 2e-3,
        }
    }
}

/// How the round loop degrades when submissions go missing or are rejected
/// (dropouts, straggler timeouts, sanitizer rejections — see
/// [`crate::fault`]).
///
/// The sanitizer always runs; this policy decides what happens *after* it:
/// if at least `min_quorum` valid submissions survive, the aggregation
/// strategy runs; otherwise it is not consulted and the global model is
/// carried forward unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    /// Minimum surviving submissions required to run the aggregation
    /// strategy. The effective quorum is always at least 1: a strategy is
    /// never invoked on an empty round.
    pub min_quorum: usize,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy { min_quorum: 1 }
    }
}

impl ResiliencePolicy {
    /// Require `min_quorum` survivors, carry-forward below it.
    pub fn quorum(min_quorum: usize) -> Self {
        ResiliencePolicy { min_quorum }
    }

    /// The quorum actually enforced (never zero).
    pub fn effective_quorum(&self) -> usize {
        self.min_quorum.max(1)
    }
}

/// Top-level federation parameters (the `Federation` procedure of Alg. 1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// Total number of clients `N`.
    pub n_clients: usize,
    /// Clients sampled per round `m`.
    pub clients_per_round: usize,
    /// Number of federated rounds `R`.
    pub rounds: usize,
    /// Classifier architecture.
    pub classifier: ClassifierSpec,
    /// Local training hyper-parameters.
    pub local: LocalTrainConfig,
    /// Server learning rate: the global model moves
    /// `(1-η)·ψ₀ + η·aggregate` per round. `1.0` is the standard full step;
    /// the paper's Fig. 5 studies `0.3`.
    pub server_lr: f32,
    /// Evaluation batch size for the server-side test set.
    pub eval_batch: usize,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
}

impl FederationConfig {
    /// The paper's §IV-A setup: N = 100, m = 50, Table II CNN, 5 local
    /// epochs, 50 rounds.
    pub fn paper() -> Self {
        FederationConfig {
            n_clients: 100,
            clients_per_round: 50,
            rounds: 50,
            classifier: ClassifierSpec::TableIICnn,
            local: LocalTrainConfig { epochs: 5, batch_size: 32, lr: 0.01, momentum: 0.9 },
            server_lr: 1.0,
            eval_batch: 64,
            seed: 0,
        }
    }

    /// Sanity checks; panics on inconsistent configs.
    pub fn validate(&self) {
        assert!(self.n_clients > 0, "need at least one client");
        assert!(
            self.clients_per_round > 0 && self.clients_per_round <= self.n_clients,
            "clients_per_round must be in 1..=n_clients"
        );
        assert!(self.rounds > 0, "need at least one round");
        assert!(self.server_lr > 0.0 && self.server_lr <= 1.0, "server_lr must be in (0, 1]");
        assert!(self.local.epochs > 0 && self.local.batch_size > 0);
        assert!(self.eval_batch > 0, "eval_batch must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_section_iv() {
        let c = FederationConfig::paper();
        c.validate();
        assert_eq!(c.n_clients, 100);
        assert_eq!(c.clients_per_round, 50);
        assert_eq!(c.local.epochs, 5);
        assert_eq!(c.classifier, ClassifierSpec::TableIICnn);
    }

    #[test]
    #[should_panic]
    fn zero_clients_rejected() {
        let mut c = FederationConfig::paper();
        c.n_clients = 0;
        c.validate();
    }

    #[test]
    #[should_panic]
    fn oversampling_rejected() {
        let mut c = FederationConfig::paper();
        c.clients_per_round = 101;
        c.validate();
    }

    #[test]
    #[should_panic]
    fn zero_server_lr_rejected() {
        let mut c = FederationConfig::paper();
        c.server_lr = 0.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "eval_batch must be positive")]
    fn zero_eval_batch_rejected() {
        // Would otherwise hang round 0's evaluation on a mini-batch that
        // never advances.
        let mut c = FederationConfig::paper();
        c.eval_batch = 0;
        c.validate();
    }

    #[test]
    fn resilience_policy_defaults_and_quorum_floor() {
        let p = ResiliencePolicy::default();
        assert_eq!(p.min_quorum, 1);
        // A zero quorum would let a strategy see an empty round; floored.
        assert_eq!(ResiliencePolicy::quorum(0).effective_quorum(), 1);
        assert_eq!(ResiliencePolicy::quorum(5).effective_quorum(), 5);
    }

    #[test]
    fn stale_agg_memory_key_in_old_blobs_is_ignored() {
        // The Welcome blob is how an older `fed_server` configures a
        // `fed_client`: it may still carry the retired memory-mode knob, in
        // any of its three spellings, or the retired FedProx coefficient.
        let serde::Value::Obj(fields) = serde_json::to_value(&FederationConfig::paper()) else {
            panic!("config serializes to an object");
        };
        for spelling in [r#""Batch""#, r#""Streaming""#, r#"{"Hierarchical":{"shard":8}}"#] {
            let mut stale = fields.clone();
            stale.push(("agg_memory".to_string(), serde_json::from_str(spelling).unwrap()));
            let parsed: FederationConfig =
                serde_json::from_value(&serde::Value::Obj(stale)).unwrap();
            assert_eq!(parsed, FederationConfig::paper(), "stale key {spelling}");
        }
        let mut stale = fields;
        let Some((_, serde::Value::Obj(local))) = stale.iter_mut().find(|(k, _)| k == "local")
        else {
            panic!("local training config serializes to an object");
        };
        // Spelled in pieces so a grep for the deleted option finds no use.
        local.push((concat!("prox", "_mu").to_string(), serde_json::from_str("0.0").unwrap()));
        let parsed: FederationConfig = serde_json::from_value(&serde::Value::Obj(stale)).unwrap();
        assert_eq!(parsed, FederationConfig::paper(), "stale FedProx coefficient");
    }

    #[test]
    fn paper_cvae_config() {
        let c = CvaeTrainConfig::paper();
        assert_eq!(c.epochs, 30);
        assert_eq!(c.spec, CvaeSpec::table_iii());
    }
}
