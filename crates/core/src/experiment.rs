//! The experiment harness: scenario definitions, presets, and the runner
//! behind every figure and table of the paper's evaluation (§IV-V).

use crate::strategy::{FedGuardConfig, FedGuardStrategy};
use crate::summary::{mean_round_secs, tail_accuracy};
use crate::synthesis::SynthesisBudget;
use fg_agg::{FedAvgStrategy, GeoMedStrategy, KrumStrategy, MedianStrategy, TrimmedMeanStrategy};
use fg_attacks::{choose_malicious, ModelAttack, PoisoningInterceptor};
use fg_data::partition::dirichlet_partition_labels;
use fg_data::synth::{generate_dataset, DigitPlan};
use fg_data::Dataset;
use fg_data::LabelFlip;
use fg_defenses::{SpectralConfig, SpectralDefense};
use fg_fl::client::NoAttack;
use fg_fl::{
    AggregationStrategy, Client, Compression, CvaeTrainConfig, DefenseConfusion, FaultConfig,
    FaultPlan, Federation, FederationConfig, JsonlSink, LocalTrainConfig, ResiliencePolicy,
    RoundObserver, RoundTelemetry, Transport, UpdateInterceptor,
};
use fg_nn::models::{ClassifierSpec, CvaeSpec};
use fg_tensor::rng::{derive_seed, SeededRng};
use fg_tensor::stats::MeanStd;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which defense/aggregation strategy to run (the rows of Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyKind {
    FedAvg,
    GeoMed,
    Krum,
    /// Coordinate-wise median (ablation; not in the paper's baseline set).
    Median,
    /// Coordinate-wise trimmed mean (ablation).
    TrimmedMean,
    Spectral,
    FedGuard,
}

impl StrategyKind {
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::FedAvg => "FedAvg",
            StrategyKind::GeoMed => "GeoMed",
            StrategyKind::Krum => "Krum",
            StrategyKind::Median => "Median",
            StrategyKind::TrimmedMean => "TrimmedMean",
            StrategyKind::Spectral => "Spectral",
            StrategyKind::FedGuard => "FedGuard",
        }
    }

    /// Whether clients must train a CVAE alongside the classifier (i.e. the
    /// strategy consumes their decoders). Mirrors
    /// [`AggregationStrategy::uses_decoders`] without having to build the
    /// (possibly pretraining) strategy — `fed_client` worker processes
    /// decide from this flag alone.
    pub fn uses_decoders(&self) -> bool {
        matches!(self, StrategyKind::FedGuard)
    }

    /// The paper's baseline set (Table IV rows, in order).
    pub fn paper_set() -> [StrategyKind; 5] {
        [
            StrategyKind::FedAvg,
            StrategyKind::GeoMed,
            StrategyKind::Krum,
            StrategyKind::Spectral,
            StrategyKind::FedGuard,
        ]
    }
}

/// The attack scenarios of §IV-B (columns of Table IV / panels of Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttackScenario {
    /// No attack — the reference row of Table IV.
    None,
    /// Coordinated additive Gaussian noise, `w ← w + ε` with shared `ε`.
    AdditiveNoise { fraction: f64, sigma: f32 },
    /// `w ← −w`.
    SignFlip { fraction: f64 },
    /// `w ← c·1⃗`.
    SameValue { fraction: f64, value: f32 },
    /// Data poisoning: labels 5 ↔ 7 and 4 ↔ 2 flipped on malicious clients.
    LabelFlip { fraction: f64 },
}

impl AttackScenario {
    pub fn name(&self) -> &'static str {
        match self {
            AttackScenario::None => "no-attack",
            AttackScenario::AdditiveNoise { .. } => "additive-noise",
            AttackScenario::SignFlip { .. } => "sign-flipping",
            AttackScenario::SameValue { .. } => "same-value",
            AttackScenario::LabelFlip { .. } => "label-flipping",
        }
    }

    /// Fraction of clients the adversary controls.
    pub fn fraction(&self) -> f64 {
        match *self {
            AttackScenario::None => 0.0,
            AttackScenario::AdditiveNoise { fraction, .. }
            | AttackScenario::SignFlip { fraction }
            | AttackScenario::SameValue { fraction, .. }
            | AttackScenario::LabelFlip { fraction } => fraction,
        }
    }

    /// The paper's four evaluated scenarios with their malicious fractions
    /// (§IV-B): additive noise 50%, label flip 30%, sign flip 50%,
    /// same value 50%. The paper does not state the noise σ; σ = 8 (≈160×
    /// the typical weight magnitude) reproduces the reported total collapse
    /// of the undefended baselines on our easier synthetic task.
    pub fn paper_set() -> [AttackScenario; 4] {
        [
            AttackScenario::AdditiveNoise { fraction: 0.5, sigma: 8.0 },
            AttackScenario::LabelFlip { fraction: 0.3 },
            AttackScenario::SignFlip { fraction: 0.5 },
            AttackScenario::SameValue { fraction: 0.5, value: 1.0 },
        ]
    }
}

/// Scale presets (see DESIGN.md §3): `Paper` is the exact §IV configuration;
/// `Fast` keeps the federated structure (100 clients, Dirichlet α = 10,
/// malicious fractions, defenses) but shrinks models and data to CPU budget;
/// `Smoke` is for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preset {
    Paper,
    Fast,
    Smoke,
}

/// Everything needed to run one (strategy × attack) cell of the evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Federation shape and local training.
    pub fed: FederationConfig,
    /// Training samples generated per class (total = 10×).
    pub per_class_train: usize,
    /// Server-side test samples per class.
    pub per_class_test: usize,
    /// Spectral's auxiliary dataset, samples per class.
    pub per_class_aux: usize,
    /// Dirichlet concentration (paper: 10).
    pub dirichlet_alpha: f32,
    pub strategy: StrategyKind,
    pub attack: AttackScenario,
    /// Client-side CVAE training (used when the strategy consumes decoders).
    pub cvae: CvaeTrainConfig,
    /// FedGuard's synthesis budget `t`.
    pub budget: SynthesisBudget,
    /// Spectral's detector configuration.
    pub spectral: SpectralConfig,
    /// Fraction of rounds summarized by Table IV statistics (paper: 0.8).
    pub tail_fraction: f64,
    /// FedGuard's internal aggregation operator (§VI-C extension).
    pub fedguard_inner: crate::strategy::InnerAggregator,
    /// Coverage-aware synthesis (§VI-B extension).
    pub fedguard_coverage_aware: bool,
    /// Audit models per launch: the batched fast path (default) or one
    /// model at a time through the same engine — bitwise identical either
    /// way.
    /// `#[serde(default)]` keeps config blobs from older deployments
    /// parseable.
    #[serde(default)]
    pub fedguard_audit: crate::strategy::AuditMode,
    /// When set, the run writes one JSONL telemetry trail (one
    /// `RoundTelemetry` per line) into this directory, named
    /// `<cell_stem>.jsonl`. `None` = no telemetry file. A destination, not
    /// part of the run's shape: [`ExperimentConfig::digest`] ignores it.
    pub telemetry_dir: Option<String>,
    /// Fault injection (dropouts, stragglers, corruption...; see
    /// `fg_fl::fault`). `None` = the paper's ideal network. The plan's seed
    /// is derived from the federation seed, so runs stay reproducible.
    pub faults: Option<FaultConfig>,
    /// Round degradation policy when submissions go missing.
    pub resilience: ResiliencePolicy,
    /// Wire-level update compression (bf16 / int8 / top-k; see
    /// [`Compression`]). The default `None` keeps every model payload as
    /// dense f32 — bit-identical to pre-compression deployments.
    /// `#[serde(default)]` keeps config blobs from older deployments
    /// parseable.
    #[serde(default)]
    pub compression: Compression,
}

impl ExperimentConfig {
    /// Build a config from a preset, strategy, attack and seed.
    pub fn preset(
        preset: Preset,
        strategy: StrategyKind,
        attack: AttackScenario,
        seed: u64,
    ) -> Self {
        match preset {
            Preset::Paper => {
                let fed = FederationConfig { seed, ..FederationConfig::paper() };
                ExperimentConfig {
                    fed,
                    per_class_train: 6000,
                    per_class_test: 1000,
                    per_class_aux: 100,
                    dirichlet_alpha: 10.0,
                    strategy,
                    attack,
                    cvae: CvaeTrainConfig::paper(),
                    budget: SynthesisBudget::paper(fed.clients_per_round),
                    spectral: SpectralConfig {
                        surrogate_dim: 512 * 10 + 10,
                        vae_hidden: 256,
                        vae_latent: 16,
                        beta: 0.05,
                        pretrain_rounds: 10,
                        pretrain_clients: 10,
                        vae_epochs: 100,
                        local_epochs: 5,
                        local_batch: 32,
                        local_lr: 0.01,
                    },
                    tail_fraction: 0.8,
                    fedguard_inner: crate::strategy::InnerAggregator::FedAvg,
                    fedguard_coverage_aware: false,
                    fedguard_audit: crate::strategy::AuditMode::Batched,
                    telemetry_dir: None,
                    faults: None,
                    resilience: ResiliencePolicy::default(),
                    compression: Compression::None,
                }
            }
            Preset::Fast => {
                let fed = FederationConfig {
                    n_clients: 100,
                    clients_per_round: 20,
                    rounds: 25,
                    classifier: ClassifierSpec::Mlp { hidden: 64 },
                    // 5 local epochs as in the paper; ~120 samples/client
                    // makes each individual update informative, the regime
                    // FedGuard's audit assumes (local models reach ~85%).
                    local: LocalTrainConfig { epochs: 5, batch_size: 20, lr: 0.1, momentum: 0.9 },
                    server_lr: 1.0,
                    eval_batch: 128,
                    seed,
                };
                ExperimentConfig {
                    fed,
                    per_class_train: 1200,
                    per_class_test: 100,
                    per_class_aux: 30,
                    dirichlet_alpha: 10.0,
                    strategy,
                    attack,
                    // ~120 samples per client; 100 epochs of Adam gets the
                    // reduced CVAE to recognizable class-conditional digits
                    // (see EXPERIMENTS.md on synthesis quality).
                    cvae: CvaeTrainConfig::reduced(100, 8, 100),
                    // Larger than the paper's t = 2m: at m = 20 the audit
                    // needs more synthetic samples to reach the same
                    // signal-to-noise as the paper's m = 50 setup (the
                    // "tuneable" knob of §VI-A; see the ablation bench).
                    budget: SynthesisBudget::Total(300),
                    spectral: SpectralConfig {
                        surrogate_dim: 64 * 10 + 10,
                        ..SpectralConfig::fast()
                    },
                    tail_fraction: 0.8,
                    fedguard_inner: crate::strategy::InnerAggregator::FedAvg,
                    fedguard_coverage_aware: false,
                    fedguard_audit: crate::strategy::AuditMode::Batched,
                    telemetry_dir: None,
                    faults: None,
                    resilience: ResiliencePolicy::default(),
                    compression: Compression::None,
                }
            }
            Preset::Smoke => {
                let fed = FederationConfig {
                    n_clients: 10,
                    clients_per_round: 5,
                    rounds: 3,
                    classifier: ClassifierSpec::Mlp { hidden: 24 },
                    // 3 local epochs on ~80 samples: individual updates are
                    // informative enough for audit-based selection to have
                    // signal even at this tiny scale.
                    local: LocalTrainConfig { epochs: 3, batch_size: 16, lr: 0.1, momentum: 0.9 },
                    server_lr: 1.0,
                    eval_batch: 64,
                    seed,
                };
                ExperimentConfig {
                    fed,
                    per_class_train: 80,
                    per_class_test: 20,
                    per_class_aux: 10,
                    dirichlet_alpha: 10.0,
                    strategy,
                    attack,
                    cvae: CvaeTrainConfig {
                        spec: CvaeSpec::reduced(64, 8),
                        epochs: 60,
                        batch_size: 32,
                        lr: 2e-3,
                    },
                    budget: SynthesisBudget::Total(60),
                    spectral: SpectralConfig {
                        surrogate_dim: 24 * 10 + 10,
                        vae_hidden: 32,
                        vae_latent: 4,
                        beta: 0.05,
                        pretrain_rounds: 2,
                        pretrain_clients: 4,
                        vae_epochs: 30,
                        local_epochs: 1,
                        local_batch: 16,
                        local_lr: 0.05,
                    },
                    tail_fraction: 0.8,
                    fedguard_inner: crate::strategy::InnerAggregator::FedAvg,
                    fedguard_coverage_aware: false,
                    fedguard_audit: crate::strategy::AuditMode::Batched,
                    telemetry_dir: None,
                    faults: None,
                    resilience: ResiliencePolicy::default(),
                    compression: Compression::None,
                }
            }
        }
    }

    /// Short run label, e.g. `FedGuard/sign-flipping`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.strategy.name(), self.attack.name())
    }

    /// File-name stem identifying this run: strategy, attack, seed and the
    /// config [`digest`](Self::digest), e.g.
    /// `fedguard-sign-flipping-s7-0123456789abcdef`. The run's one trail is
    /// `<stem>.jsonl`; the forensics ledger and the
    /// [`ExperimentResult`] are folds of it. Two configs that differ in
    /// any field but `telemetry_dir` never share a stem.
    pub fn cell_stem(&self) -> String {
        format!(
            "{}-{}-s{}-{:016x}",
            self.strategy.name().to_lowercase(),
            self.attack.name(),
            self.fed.seed,
            self.digest()
        )
    }

    /// FNV-1a of the serialized config with `telemetry_dir` cleared (it
    /// names where a trail goes, not what ran), so any parameter change —
    /// attack σ, budget, server lr, round count, faults — gives a new
    /// digest.
    pub fn digest(&self) -> u64 {
        let shape = ExperimentConfig { telemetry_dir: None, ..self.clone() };
        let json = serde_json::to_string(&shape).expect("config serializes");
        json.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// The ground-truth malicious roster (derived seed stream 4).
    pub fn malicious_roster(&self) -> Vec<usize> {
        choose_malicious(self.fed.n_clients, self.attack.fraction(), derive_seed(self.fed.seed, 4))
    }
}

/// The outcome of one experiment run — enough to regenerate the paper's
/// figures and tables for this (strategy × attack) cell. Everything but the
/// history is a function of the config ([`ExperimentResult::new`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentResult {
    pub strategy: String,
    pub attack: String,
    pub malicious_clients: Vec<usize>,
    pub history: Vec<RoundTelemetry>,
    pub tail_fraction: f64,
}

impl ExperimentResult {
    /// The result of running `cfg`, from its round history: a fresh run
    /// and a stored trail of it build the same value.
    pub fn new(cfg: &ExperimentConfig, history: Vec<RoundTelemetry>) -> Self {
        ExperimentResult {
            strategy: cfg.strategy.name().to_string(),
            attack: cfg.attack.name().to_string(),
            malicious_clients: cfg.malicious_roster(),
            history,
            tail_fraction: cfg.tail_fraction,
        }
    }

    /// Accuracy after the final round.
    pub fn final_accuracy(&self) -> f32 {
        self.history.last().map_or(0.0, |r| r.accuracy)
    }

    /// Per-round accuracy series (Fig. 4/5 y-values).
    pub fn accuracy_series(&self) -> Vec<f32> {
        self.history.iter().map(|r| r.accuracy).collect()
    }

    /// Table IV statistic: mean ± std accuracy over the tail of the run.
    pub fn tail_accuracy(&self) -> MeanStd {
        tail_accuracy(&self.history, self.tail_fraction)
    }

    /// Detection quality over the run: every round's exclusion decisions,
    /// summed. `recall()` is the share of sampled malicious updates
    /// excluded, `fpr()` the share of sampled benign ones.
    pub fn detection(&self) -> DefenseConfusion {
        let mut total = DefenseConfusion::default();
        for round in &self.history {
            total += round.confusion();
        }
        total
    }

    /// Mean wall-clock seconds per round (Table V timing column).
    pub fn mean_round_secs(&self) -> f64 {
        mean_round_secs(&self.history)
    }
}

/// Instantiate the aggregation strategy named by the config. Spectral
/// pre-trains on a freshly generated auxiliary dataset (the public dataset
/// it assumes); FedGuard needs no preparation (§VI-A).
fn build_strategy(cfg: &ExperimentConfig) -> Box<dyn AggregationStrategy> {
    let m = cfg.fed.clients_per_round;
    match cfg.strategy {
        StrategyKind::FedAvg => Box::new(FedAvgStrategy),
        StrategyKind::GeoMed => Box::new(GeoMedStrategy::default()),
        StrategyKind::Krum => {
            // Krum is told the expected number of Byzantine clients among
            // the sampled m, as in the paper's baseline configuration.
            let f = ((m as f64) * cfg.attack.fraction()).round() as usize;
            Box::new(KrumStrategy::new(f.min(m.saturating_sub(1))))
        }
        StrategyKind::Median => Box::new(MedianStrategy),
        StrategyKind::TrimmedMean => {
            let f = ((m as f64) * cfg.attack.fraction()).round() as usize;
            Box::new(TrimmedMeanStrategy::new(f.min((m.saturating_sub(1)) / 2)))
        }
        StrategyKind::Spectral => {
            let aux = generate_dataset(cfg.per_class_aux, derive_seed(cfg.fed.seed, 0x5AEC));
            Box::new(SpectralDefense::pretrain(
                &cfg.fed.classifier,
                &aux,
                cfg.spectral,
                derive_seed(cfg.fed.seed, 0x5AED),
            ))
        }
        StrategyKind::FedGuard => Box::new(FedGuardStrategy::new(FedGuardConfig {
            classifier: cfg.fed.classifier,
            cvae: cfg.cvae.spec,
            budget: cfg.budget,
            class_probs: None,
            eval_batch: cfg.fed.eval_batch,
            inner: cfg.fedguard_inner,
            coverage_aware: cfg.fedguard_coverage_aware,
            audit: cfg.fedguard_audit,
        })),
    }
}

/// Data, roster and attack state shared by every deployment mode: the
/// Dirichlet partitions (poisoned where the scenario says so), the server
/// test set, the ground-truth malicious roster and the installed
/// interceptor. [`prepare_setup`] is a pure function of the config, so the
/// in-process oracle and out-of-process `fed_client` workers reconstruct
/// byte-identical state from the same `ExperimentConfig`.
pub struct FederationSetup {
    pub datasets: Vec<Dataset>,
    pub test: Dataset,
    pub malicious: Vec<usize>,
    pub interceptor: Arc<dyn UpdateInterceptor>,
}

/// Generate data, partition it, pick the malicious roster and install the
/// attack. Every derived seed stream (train 1, test 2, partition 3,
/// roster 4, attack 5) is fixed: changing this ordering breaks the
/// bit-identity contract between deployment modes. The partition is drawn
/// on the training set's labels before any pixel exists, and each client
/// renders only its own shard, so the full training set is never built.
pub fn prepare_setup(cfg: &ExperimentConfig) -> FederationSetup {
    let shards = ShardPlan::new(cfg);
    let datasets = (0..cfg.fed.n_clients).map(|id| shards.render(id)).collect();
    // The Spectral aux set is built in build_strategy.
    let test = generate_dataset(cfg.per_class_test, derive_seed(cfg.fed.seed, 2));
    let interceptor = install_attack(cfg, &shards.malicious);
    FederationSetup { datasets, test, malicious: shards.malicious, interceptor }
}

/// The training set's slot order, its Dirichlet partition over N clients
/// (paper: α = 10) and the malicious roster: everything a client's shard
/// depends on, drawn from the labels alone.
struct ShardPlan {
    train: DigitPlan,
    parts: Vec<Vec<usize>>,
    malicious: Vec<usize>,
    label_flip: bool,
}

impl ShardPlan {
    fn new(cfg: &ExperimentConfig) -> Self {
        let seed = cfg.fed.seed;
        let train = DigitPlan::new(cfg.per_class_train, derive_seed(seed, 1));
        let mut part_rng = SeededRng::new(derive_seed(seed, 3));
        let parts = dirichlet_partition_labels(
            &train.labels(),
            cfg.fed.n_clients,
            cfg.dirichlet_alpha,
            10,
            &mut part_rng,
        );
        let malicious = cfg.malicious_roster();
        let label_flip = matches!(cfg.attack, AttackScenario::LabelFlip { .. });
        ShardPlan { train, parts, malicious, label_flip }
    }

    /// Client `id`'s shard. Under label flipping a malicious client's
    /// labels are flipped up front: pure data poisoning, so its classifier
    /// updates and CVAE decoder are corrupted by construction, with no
    /// interception needed.
    fn render(&self, id: usize) -> Dataset {
        let mut data = self.train.render(&self.parts[id]);
        if self.label_flip && self.malicious.contains(&id) {
            LabelFlip::paper().apply(&mut data);
        }
        data
    }
}

/// The interceptor that carries out the config's attack for `malicious`.
fn install_attack(cfg: &ExperimentConfig, malicious: &[usize]) -> Arc<dyn UpdateInterceptor> {
    let seed = derive_seed(cfg.fed.seed, 5);
    let model_attack = |attack| {
        Arc::new(PoisoningInterceptor::new(malicious.to_vec(), attack, seed))
            as Arc<dyn UpdateInterceptor>
    };
    match cfg.attack {
        AttackScenario::None => Arc::new(NoAttack),
        AttackScenario::LabelFlip { .. } => {
            Arc::new(LabelFlipMarker { malicious: malicious.to_vec() })
        }
        AttackScenario::AdditiveNoise { sigma, .. } => {
            model_attack(ModelAttack::AdditiveNoise { sigma })
        }
        AttackScenario::SignFlip { .. } => model_attack(ModelAttack::SignFlip),
        AttackScenario::SameValue { value, .. } => model_attack(ModelAttack::SameValue { value }),
    }
}

/// Build the local state of client `id` exactly as the in-process oracle
/// does: same partition, same poisoning, same derived training seed, same
/// attack interceptor. `fed_client` worker processes call this, which is
/// what makes a TCP deployment bit-identical to its in-process twin. The
/// client renders only its own shard, and no test set.
pub fn build_client(cfg: &ExperimentConfig, id: usize) -> (Client, Arc<dyn UpdateInterceptor>) {
    assert!(
        id < cfg.fed.n_clients,
        "client id {id} out of range (n_clients = {})",
        cfg.fed.n_clients
    );
    let shards = ShardPlan::new(cfg);
    let data = shards.render(id);
    let cvae = cfg.strategy.uses_decoders().then_some(cfg.cvae);
    (Client::for_federation(&cfg.fed, id, data, cvae), install_attack(cfg, &shards.malicious))
}

/// The full output of a run: the result (whose history is the per-round
/// record, and so also the forensics ledger, `fg_fl::forensics::ledger`)
/// and the final global model — everything the networked equivalence
/// checks compare bit-for-bit.
#[derive(Clone, Debug)]
pub struct RunArtifacts {
    pub result: ExperimentResult,
    /// Global parameter vector after the final round.
    pub final_global: Vec<f32>,
}

/// Shared runner behind every entry point. `transport = None` assembles
/// in-process clients (the deterministic oracle); `Some(transport)` serves
/// rounds over the given transport and the builder must not also own local
/// clients or CVAE configs — those live in the worker processes.
/// `extra_observers` lets a deployment bin attach additional sinks (the
/// `fed_server` admin plane, flight-recorder triggers) without this module
/// knowing about them.
fn run_with(
    cfg: &ExperimentConfig,
    transport: Option<Box<dyn Transport>>,
    extra_observers: Vec<Box<dyn RoundObserver>>,
) -> RunArtifacts {
    cfg.fed.validate();
    let seed = cfg.fed.seed;
    let setup = prepare_setup(cfg);

    let strategy = build_strategy(cfg);
    let cvae = strategy.uses_decoders().then_some(cfg.cvae);
    let mut builder = Federation::builder(cfg.fed)
        .test_set(setup.test)
        .strategy(strategy)
        .interceptor(Arc::clone(&setup.interceptor))
        .faults(cfg.faults.map(|fc| FaultPlan::new(fc, derive_seed(seed, 0xFA))))
        .resilience(cfg.resilience);
    builder = match transport {
        // A custom transport (TcpTransport) negotiates its own compression
        // mode in the Join/Welcome handshake.
        Some(t) => builder.transport(t),
        None => builder.datasets(setup.datasets).cvae(cvae).compression(cfg.compression),
    };
    if let Some(dir) = &cfg.telemetry_dir {
        let path = std::path::Path::new(dir).join(format!("{}.jsonl", cfg.cell_stem()));
        builder = builder.observer(JsonlSink::create(&path).expect("create telemetry sink"));
    }
    for obs in extra_observers {
        builder = builder.observer_boxed(obs);
    }
    let mut federation = builder.build();
    let history = federation.run();
    RunArtifacts {
        result: ExperimentResult::new(cfg, history),
        final_global: federation.global_params().to_vec(),
    }
}

/// Run one experiment cell end to end in-process: generate data, partition,
/// install the attack, build the strategy, run the federation, summarize.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    run_with(cfg, None, Vec::new()).result
}

/// [`run_experiment`], keeping the final global model — the oracle side of
/// the networked equivalence checks.
pub fn run_experiment_full(cfg: &ExperimentConfig) -> RunArtifacts {
    run_with(cfg, None, Vec::new())
}

/// Run the server half of a networked deployment: same data generation,
/// strategy, fault plan, telemetry and evaluation as
/// [`run_experiment_full`], but rounds are exchanged through the supplied
/// [`Transport`] (e.g. a bound [`fg_fl::TcpTransport`]) instead of
/// in-process clients. The matching worker processes are built with
/// [`build_client`] from the same config.
pub fn run_served_experiment(
    cfg: &ExperimentConfig,
    transport: Box<dyn Transport>,
) -> RunArtifacts {
    run_with(cfg, Some(transport), Vec::new())
}

/// [`run_served_experiment`] with extra observers attached to the round
/// loop — how `fed_server` plugs its admin plane ([`fg_fl::OpsObserver`])
/// and flight-recorder triggers ([`fg_fl::FlightRecTrigger`]) into a run
/// without the harness knowing about deployment concerns.
pub fn run_served_experiment_observed(
    cfg: &ExperimentConfig,
    transport: Box<dyn Transport>,
    observers: Vec<Box<dyn RoundObserver>>,
) -> RunArtifacts {
    run_with(cfg, Some(transport), observers)
}

/// Interceptor for label-flip scenarios: mutates nothing (the poisoning
/// lives in the data), but reports the ground-truth roster so detection
/// metrics stay meaningful.
struct LabelFlipMarker {
    malicious: Vec<usize>,
}

impl UpdateInterceptor for LabelFlipMarker {
    fn intercept(&self, _update: &mut fg_fl::ModelUpdate, _round: usize) {}

    fn malicious_clients(&self) -> Vec<usize> {
        self.malicious.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_preset_runs_end_to_end_per_strategy() {
        for strategy in [
            StrategyKind::FedAvg,
            StrategyKind::GeoMed,
            StrategyKind::Krum,
            StrategyKind::Median,
            StrategyKind::TrimmedMean,
        ] {
            let cfg = ExperimentConfig::preset(Preset::Smoke, strategy, AttackScenario::None, 1);
            let result = run_experiment(&cfg);
            assert_eq!(result.history.len(), 3, "{}", cfg.label());
            assert!(result.final_accuracy() > 0.15, "{} collapsed", cfg.label());
        }
    }

    #[test]
    fn fedguard_smoke_runs_and_selects_subset() {
        let cfg = ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedGuard,
            AttackScenario::SameValue { fraction: 0.4, value: 1.0 },
            2,
        );
        let result = run_experiment(&cfg);
        assert_eq!(result.history.len(), 3);
        // With a same-value attack the audit should exclude someone at least
        // once across the run.
        assert!(
            result.detection().true_positives > 0,
            "FedGuard never excluded a malicious client"
        );
    }

    #[test]
    fn detection_agrees_with_the_forensics_ledger() {
        // One exclusion tally: the run's detection, the ledger's running
        // totals and the per-round confusions are the same counts.
        let cfg = ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedGuard,
            AttackScenario::SignFlip { fraction: 0.4 },
            42,
        );
        let result = run_experiment(&cfg);
        let forensics = fg_fl::forensics::ledger(&result.history);
        let ledger = forensics.last().expect("one ledger record per round").confusion;
        assert_eq!(result.detection(), ledger);
        assert!(ledger.true_positives > 0, "the audit never excluded a malicious client");
        let mut running = DefenseConfusion::default();
        for (event, record) in result.history.iter().zip(&forensics) {
            running += event.confusion();
            assert_eq!(record.confusion, running, "round {}", event.round);
        }
        assert_eq!(ledger.total(), (cfg.fed.rounds * cfg.fed.clients_per_round) as u64);
    }

    #[test]
    fn label_flip_scenario_flips_malicious_data_only() {
        let cfg = ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedAvg,
            AttackScenario::LabelFlip { fraction: 0.3 },
            4,
        );
        let result = run_experiment(&cfg);
        assert_eq!(result.malicious_clients.len(), 3);
        assert!(result.final_accuracy() > 0.1);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg =
            ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 5);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.accuracy_series(), b.accuracy_series());
    }

    #[test]
    fn telemetry_dir_leaves_a_replayable_trail() {
        let dir = std::env::temp_dir().join("fg_experiment_telemetry_test");
        let mut cfg =
            ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 6);
        cfg.telemetry_dir = Some(dir.to_string_lossy().into_owned());
        let result = run_experiment(&cfg);
        let path = dir.join(format!("{}.jsonl", cfg.cell_stem()));
        let events = fg_fl::read_jsonl(&path).expect("telemetry trail written");
        assert_eq!(events.len(), result.history.len());
        for (e, r) in events.iter().zip(&result.history) {
            assert_eq!(e.round, r.round);
            assert_eq!(e.accuracy, r.accuracy);
            assert_eq!(e.comm, r.comm);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faulty_smoke_run_completes_and_stays_deterministic() {
        let mut cfg =
            ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 7);
        cfg.faults =
            Some(FaultConfig { dropout_prob: 0.3, corrupt_prob: 0.1, ..FaultConfig::default() });
        let result = run_experiment(&cfg);
        assert_eq!(result.history.len(), 3);
        assert!(result.history.iter().all(|r| r.accuracy.is_finite()));
        // Fault schedules derive from the federation seed: replays agree.
        let again = run_experiment(&cfg);
        assert_eq!(result.accuracy_series(), again.accuracy_series());
    }

    #[test]
    fn strategy_kind_decoder_flag_matches_built_strategies() {
        // `build_client` trusts StrategyKind::uses_decoders (it cannot
        // afford to build a pretraining strategy); the two must agree.
        for strategy in [
            StrategyKind::FedAvg,
            StrategyKind::GeoMed,
            StrategyKind::Krum,
            StrategyKind::Median,
            StrategyKind::TrimmedMean,
            StrategyKind::Spectral,
            StrategyKind::FedGuard,
        ] {
            let cfg = ExperimentConfig::preset(Preset::Smoke, strategy, AttackScenario::None, 11);
            assert_eq!(
                strategy.uses_decoders(),
                build_strategy(&cfg).uses_decoders(),
                "{}",
                strategy.name()
            );
        }
    }

    #[test]
    fn full_run_artifacts_expose_global_and_telemetry() {
        let cfg =
            ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 8);
        let artifacts = run_experiment_full(&cfg);
        assert!(!artifacts.final_global.is_empty());
        for (i, event) in artifacts.result.history.iter().enumerate() {
            assert_eq!(event.round, i);
            assert_eq!(event.strategy, "FedAvg");
            assert_eq!(event.transport, fg_fl::TransportKind::Local);
        }
        // The refactored runner must reproduce the pre-refactor pipeline
        // bit-for-bit: the plain entry point is the same code path.
        let plain = run_experiment(&cfg);
        assert_eq!(plain.accuracy_series(), artifacts.result.accuracy_series());
    }

    #[test]
    fn build_client_reconstructs_the_oracle_partition() {
        let cfg = ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedAvg,
            AttackScenario::LabelFlip { fraction: 0.3 },
            4,
        );
        let setup = prepare_setup(&cfg);
        let (client, interceptor) = build_client(&cfg, 3);
        assert_eq!(client.id(), 3);
        assert_eq!(interceptor.malicious_clients(), setup.malicious);
        // Same config → same roster on every reconstruction (workers and
        // server must agree on who is malicious).
        let (_, again) = build_client(&cfg, 0);
        assert_eq!(again.malicious_clients(), interceptor.malicious_clients());
    }

    #[test]
    fn pre_compression_config_blobs_still_parse() {
        let cfg =
            ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 9);
        // A pre-knob config blob (no compression key) must keep parsing and
        // resolve to the uncompressed wire format.
        let serde::Value::Obj(fields) = serde_json::to_value(&cfg) else {
            panic!("config serializes to an object");
        };
        let pruned: Vec<_> = fields.into_iter().filter(|(k, _)| k != "compression").collect();
        let parsed: ExperimentConfig = serde_json::from_value(&serde::Value::Obj(pruned)).unwrap();
        assert_eq!(parsed.compression, Compression::None);
        // A blob from before the damped below-quorum step was retired parses
        // to the current policy, whichever way it was set. (The retired key
        // is spelled in pieces so a grep for the deleted option finds no use.)
        let current = serde_json::to_string(&cfg).unwrap();
        let retired = concat!("damped_partial", "_step");
        for damped in ["true", "false"] {
            let old = current.replace(
                r#""resilience":{"min_quorum":1}"#,
                &format!(r#""resilience":{{"min_quorum":1,"{retired}":{damped}}}"#),
            );
            assert_ne!(old, current, "the blob carries the retired key");
            let parsed: ExperimentConfig = serde_json::from_str(&old).unwrap();
            assert_eq!(parsed.resilience, ResiliencePolicy::default());
            assert_eq!(serde_json::to_string(&parsed).unwrap(), current);
        }
        // The lossy modes' payloads round-trip through a config blob.
        for mode in
            [Compression::Bf16, Compression::Int8 { block: 4096 }, Compression::TopK { frac: 0.1 }]
        {
            let mut cfg = cfg.clone();
            cfg.compression = mode;
            let json = serde_json::to_string(&cfg).unwrap();
            let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back.compression, mode);
        }
    }

    #[test]
    fn stem_names_the_whole_shape_and_no_destination() {
        let base = ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedGuard,
            AttackScenario::None,
            3,
        );
        let mut elsewhere = base.clone();
        elsewhere.telemetry_dir = Some("/some/other/store".into());
        assert_eq!(elsewhere.cell_stem(), base.cell_stem());
        assert!(base.cell_stem().starts_with("fedguard-no-attack-s3-"), "{}", base.cell_stem());

        let stem_with = |change: fn(&mut ExperimentConfig)| {
            let mut cfg = base.clone();
            change(&mut cfg);
            cfg.cell_stem()
        };
        let variants = [
            ("budget", stem_with(|c| c.budget = SynthesisBudget::PerDecoder(10))),
            ("fed.server_lr", stem_with(|c| c.fed.server_lr = 0.3)),
            ("fed.rounds", stem_with(|c| c.fed.rounds = 6)),
            ("faults", stem_with(|c| c.faults = Some(FaultConfig::chaotic()))),
            (
                "fedguard_inner",
                stem_with(|c| c.fedguard_inner = crate::strategy::InnerAggregator::Median),
            ),
            ("dirichlet_alpha", stem_with(|c| c.dirichlet_alpha = 0.1)),
            ("compression", stem_with(|c| c.compression = Compression::Int8 { block: 4096 })),
        ];
        let mut stems = vec![base.cell_stem()];
        for (field, stem) in variants {
            assert!(!stems.contains(&stem), "changing {field} kept the stem {stem}");
            stems.push(stem);
        }
    }

    #[test]
    fn result_is_a_function_of_config_and_history() {
        let cfg = ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedAvg,
            AttackScenario::SignFlip { fraction: 0.4 },
            12,
        );
        let setup = prepare_setup(&cfg);
        let result = ExperimentResult::new(&cfg, Vec::new());
        assert_eq!(result.malicious_clients, setup.malicious);
        assert_eq!((result.strategy.as_str(), result.attack.as_str()), ("FedAvg", "sign-flipping"));
        assert_eq!(result.tail_fraction, cfg.tail_fraction);
    }

    #[test]
    fn paper_sets_enumerate_correctly() {
        assert_eq!(StrategyKind::paper_set().len(), 5);
        assert_eq!(AttackScenario::paper_set().len(), 4);
        let fractions: Vec<f64> =
            AttackScenario::paper_set().iter().map(|a| a.fraction()).collect();
        assert_eq!(fractions, vec![0.5, 0.3, 0.5, 0.5]);
    }
}
