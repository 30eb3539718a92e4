//! The benchmark's fixed vocabulary: the five workloads (name, reason, and
//! the `ExperimentConfig` each seed generates) and every metric name with its
//! unit, direction and bound. `BENCHMARK.json` at the repo root must list
//! exactly these names; `tests/contract.rs` holds the two to each other.

use fedguard::experiment::{AttackScenario, ExperimentConfig, Preset, StrategyKind};
use fedguard::synthesis::SynthesisBudget;
use fg_fl::compress::DEFAULT_INT8_BLOCK;
use fg_fl::{Compression, CvaeTrainConfig, LocalTrainConfig};
use fg_nn::models::ClassifierSpec;

/// One of the five seeded FedGuard cells the benchmark runs. All are closed
/// loop: synchronous rounds, round r+1 is offered only after round r has
/// been aggregated and evaluated; the load is the m sampled clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdFit,
    WarmMlp,
    CnnAudit,
    CnnTcpDense,
    CnnTcpInt8,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ColdFit,
        Workload::WarmMlp,
        Workload::CnnAudit,
        Workload::CnnTcpDense,
        Workload::CnnTcpInt8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFit => "cold_fit",
            Workload::WarmMlp => "warm_mlp",
            Workload::CnnAudit => "cnn_audit",
            Workload::CnnTcpDense => "cnn_tcp_dense",
            Workload::CnnTcpInt8 => "cnn_tcp_int8",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — one line, repeated in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdFit => {
                "Fast preset, every timed round on a fresh federation: 20 one-time CVAE fits \
                 dominate the round (fg-nn cvae/optim, small GEMM)"
            }
            Workload::WarmMlp => {
                "same models with decoders cached in set-up: MLP SGD steps plus synthesis, audit \
                 and evaluation; a CVAE-fit win shows only in setup_s"
            }
            Workload::CnnAudit => {
                "Table II CNN (1.66M params), 8 in-process clients: conv/pool training, the \
                 grouped batched audit and aggregation at paper-scale d"
            }
            Workload::CnnTcpDense => {
                "Table II CNN over loopback TCP, dense f32 frames: exchange-bound, wire and net \
                 on the critical path, codec idle"
            }
            Workload::CnnTcpInt8 => {
                "cnn_tcp_dense with int8 negotiated in Join/Welcome: the same wire path with the \
                 codec on it, so a codec change shows here and not on the dense row"
            }
        }
    }

    /// Whether rounds travel over the loopback `TcpTransport`.
    pub fn is_tcp(self) -> bool {
        matches!(self, Workload::CnnTcpDense | Workload::CnnTcpInt8)
    }

    /// `cold_fit` times round 0 only — the round where every sampled client
    /// fits its CVAE — so each timed round runs on a fresh federation built
    /// from the same prepared data. Everywhere else round 0 is set-up.
    pub fn fresh_federation_per_round(self) -> bool {
        self == Workload::ColdFit
    }

    /// Rounds (counted from round 0) over which the accuracy metrics are
    /// taken. Fixed per workload so they are a function of the seed alone;
    /// a run keeps going past `--seconds` until it has this many.
    pub fn quality_rounds(self, quick: bool) -> usize {
        if quick {
            return if self.fresh_federation_per_round() { 1 } else { 3 };
        }
        match self {
            Workload::ColdFit => 1,
            Workload::WarmMlp => 40,
            Workload::CnnAudit => 6,
            Workload::CnnTcpDense | Workload::CnnTcpInt8 => 25,
        }
    }

    /// Lowest acceptable accuracy after `quality_rounds` rounds, set below
    /// the worst of 22 seeds (0.992, 0.42, 0.88). `cold_fit` has none: one
    /// round from a random model lands anywhere from 0.24 to 0.98 across
    /// seeds, so its gate is that every timed round (same seed, fresh
    /// federation) reproduces the first bit for bit. Quick mode checks the
    /// plumbing, not learning.
    pub fn accuracy_floor(self, quick: bool) -> Option<f32> {
        if quick {
            return None;
        }
        match self {
            Workload::ColdFit => None,
            Workload::WarmMlp => Some(0.98),
            Workload::CnnAudit => Some(0.30),
            Workload::CnnTcpDense | Workload::CnnTcpInt8 => Some(0.80),
        }
    }

    /// The cell this workload runs for `seed`. `quick` swaps in smoke-sized
    /// shapes (tiny MLP, a few CVAE epochs) for the crate's own tests.
    pub fn config(self, seed: u64, quick: bool) -> ExperimentConfig {
        let attack = match self {
            Workload::ColdFit | Workload::WarmMlp => AttackScenario::SignFlip { fraction: 0.5 },
            // Sign-flipping does not learn at the CNN rows' data size.
            _ => AttackScenario::None,
        };
        let mut cfg = ExperimentConfig::preset(Preset::Fast, StrategyKind::FedGuard, attack, seed);
        // The bench drives rounds one at a time; `rounds` only sizes the
        // closing `Federation::run` that releases TCP clients.
        cfg.fed.rounds = 1;
        match self {
            Workload::ColdFit => {}
            Workload::WarmMlp => {
                cfg.fed.n_clients = 20;
                cfg.fed.clients_per_round = 20;
                cfg.per_class_train = 240;
            }
            Workload::CnnAudit => {
                cfg.fed.classifier = ClassifierSpec::TableIICnn;
                cfg.fed.n_clients = 8;
                cfg.fed.clients_per_round = 8;
                cfg.per_class_train = 32;
                cfg.fed.local =
                    LocalTrainConfig { epochs: 1, batch_size: 32, lr: 0.05, ..cfg.fed.local };
                cfg.cvae = CvaeTrainConfig::reduced(100, 8, 10);
                cfg.budget = SynthesisBudget::Total(100);
            }
            Workload::CnnTcpDense | Workload::CnnTcpInt8 => {
                cfg.fed.classifier = ClassifierSpec::TableIICnn;
                cfg.fed.n_clients = 2;
                cfg.fed.clients_per_round = 2;
                cfg.per_class_train = 4;
                cfg.per_class_test = 5;
                cfg.fed.local =
                    LocalTrainConfig { epochs: 1, batch_size: 32, lr: 0.05, ..cfg.fed.local };
                cfg.cvae = CvaeTrainConfig::reduced(100, 8, 10);
                cfg.budget = SynthesisBudget::Total(40);
                if self == Workload::CnnTcpInt8 {
                    cfg.compression = Compression::Int8 { block: DEFAULT_INT8_BLOCK };
                }
            }
        }
        if quick {
            cfg.fed.classifier = ClassifierSpec::Mlp { hidden: 16 };
            cfg.fed.n_clients = cfg.fed.n_clients.min(8);
            cfg.fed.clients_per_round = cfg.fed.clients_per_round.min(4);
            cfg.per_class_train = cfg.per_class_train.min(16);
            cfg.per_class_test = cfg.per_class_test.min(10);
            cfg.fed.local.epochs = 1;
            cfg.cvae = CvaeTrainConfig::reduced(16, 4, 2);
            cfg.budget = SynthesisBudget::Total(20);
        }
        cfg
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a researcher running a cell sees. `bound` is
/// the share of the baseline median by which it may worsen before `compare`
/// calls a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "round_s_p50", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "client_rounds_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "wire_bytes_per_round", unit: "B", better: Better::Lower, bound: 0.01 },
];

/// A single layer's metric, measured in the traced pass. No bound: these
/// explain an end-to-end number, they never gate. `moves` names the
/// end-to-end metric (and workload) a change in this one should show up in;
/// everywhere else the prediction is no change.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, moves }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher, moves }
}

const WARM: &str = "round_s_p50@warm_mlp";
const AUDIT: &str = "round_s_p50@cnn_audit";
const CNN: &str = "round_s_p50@cnn_audit,cnn_tcp_dense,cnn_tcp_int8";
const TCP: &str = "round_s_p50@cnn_tcp_dense,cnn_tcp_int8";
const INT8: &str = "round_s_p50@cnn_tcp_int8; none@cnn_tcp_dense";
const ROUND: &str = "their sum is round_s_p50";

pub const PER_LAYER: &[PerLayer] = &[
    // fg-tensor · kernels
    higher("tensor.gemm.cvae_gflops", "GFLOP/s", "round_s_p50@cold_fit; setup_s elsewhere"),
    higher("tensor.gemm.mlp_gflops", "GFLOP/s", WARM),
    higher("tensor.gemm.cnn_gflops", "GFLOP/s", CNN),
    lower("tensor.gemm.calls", "count", "work done per traced round"),
    lower("tensor.gemm.flops", "count", "work done per traced round"),
    // fg-tensor · conv / pool
    lower("tensor.conv.fwd_us", "us", CNN),
    lower("tensor.conv.bwd_us", "us", CNN),
    lower("tensor.conv.grouped_fwd_us", "us", AUDIT),
    lower("tensor.pool.fwd_us", "us", CNN),
    lower("tensor.pool.bwd_us", "us", CNN),
    // fg-tensor · codec
    higher("tensor.codec.int8_enc_gbps", "GB/s", INT8),
    higher("tensor.codec.int8_dec_gbps", "GB/s", INT8),
    higher("tensor.codec.bf16_enc_gbps", "GB/s", INT8),
    higher("tensor.codec.topk_enc_gbps", "GB/s", "none (no top-k workload)"),
    // fg-tensor · vecops / workspace
    higher("tensor.vecops.weighted_sum_gbps", "GB/s", "aggregation share@cnn_audit"),
    lower("tensor.workspace.misses", "count", "round_s_p50 tail everywhere (0 once warm)"),
    // fg-nn · models::cvae, optim
    lower("nn.cvae.train_batch_us", "us", "round_s_p50@cold_fit; setup_s elsewhere"),
    lower("nn.optim.adam_ns_per_param", "ns", "round_s_p50@cold_fit; setup_s elsewhere"),
    lower("nn.optim.sgd_ns_per_param", "ns", WARM),
    // fg-nn · models::classifier
    lower("nn.classifier.mlp_train_batch_us", "us", WARM),
    lower("nn.classifier.cnn_train_batch_us", "us", CNN),
    lower("nn.classifier.cnn_eval_ms", "ms", CNN),
    // fg-nn · models::batched
    lower("nn.batched.mlp_audit_ms", "ms", WARM),
    lower("nn.batched.cnn_audit_ms", "ms", AUDIT),
    lower("audit.batched.launches", "count", "work done per traced round"),
    lower("audit.batched.models", "count", "work done per traced round"),
    // fg-data · synth, partition
    lower("data.generate_dataset_s", "s", "setup_s@cold_fit"),
    lower("data.partition_ms", "ms", "setup_s@cold_fit"),
    // fg-fl · client
    lower("fl.client.cvae_fit_s", "s", "round_s_p50@cold_fit; setup_s elsewhere"),
    lower("fl.client.mlp_train_round_ms", "ms", WARM),
    lower("fl.client.cnn_train_round_ms", "ms", CNN),
    // fg-fl · compress
    lower("fl.compress.int8_update_enc_ms", "ms", INT8),
    lower("fl.compress.int8_update_dec_ms", "ms", INT8),
    higher("fl.compress.int8_wire_ratio", "ratio", "wire_bytes_per_round@cnn_tcp_int8"),
    // fg-fl · wire, net
    lower("fl.wire.upload_enc_ms", "ms", TCP),
    lower("fl.wire.upload_dec_ms", "ms", TCP),
    lower("fl.net.echo_roundtrip_ms", "ms", TCP),
    lower("fl.net.frames_tx", "count", "work done per traced round"),
    lower("fl.net.bytes_tx", "B", "wire_bytes_per_round@tcp rows"),
    lower("fl.net.bytes_rx", "B", "wire_bytes_per_round@tcp rows"),
    // fg-fl · federation, fault — stage split of the traced rounds
    lower("fl.round.sampling_s", "s", ROUND),
    lower("fl.round.sampling_share", "fraction", ROUND),
    lower("fl.round.exchange_s", "s", ROUND),
    lower("fl.round.exchange_share", "fraction", ROUND),
    lower("fl.round.sanitize_s", "s", ROUND),
    lower("fl.round.sanitize_share", "fraction", ROUND),
    lower("fl.round.aggregation_s", "s", ROUND),
    lower("fl.round.aggregation_share", "fraction", ROUND),
    lower("fl.round.evaluation_s", "s", ROUND),
    lower("fl.round.evaluation_share", "fraction", ROUND),
    lower("fl.round.failed_share", "fraction", "must stay 0"),
    lower("fl.sanitize.round_ms", "ms", "fl.round.sanitize_s"),
    lower("fl.agg.peak_bytes", "B", "peak_rss_mb@cnn_audit"),
    // fg-agg · ops, streaming
    lower("agg.fedavg.batch_ms", "ms", "aggregation share@cnn_audit"),
    lower("agg.fedavg.streaming_ms", "ms", "aggregation share@cnn_audit"),
    // fedguard · synthesis, strategy
    lower("core.synthesis_ms", "ms", "round_s_p50@warm_mlp,cnn_audit"),
    lower("core.round.synthesis_s", "s", ROUND),
    lower("core.round.synthesis_share", "fraction", ROUND),
    lower("core.round.audit_s", "s", ROUND),
    lower("core.round.audit_share", "fraction", ROUND),
    lower("core.strategy.aggregate_ms", "ms", "round_s_p50@warm_mlp,cnn_audit"),
    // what the filter lets through, and what the model is worth after it
    higher("core.defense.malicious_excluded_rate", "fraction", "core.quality.*@cold_fit,warm_mlp"),
    lower("core.defense.honest_excluded_rate", "fraction", "core.quality.* everywhere"),
    higher("core.quality.final_accuracy", "fraction", "the accuracy floor of the correctness gate"),
    higher(
        "core.quality.mean_round_accuracy",
        "fraction",
        "sees a bad early round a converged-only gate cannot",
    ),
    // rayon shim · pool, fg-obs
    lower("pool.queue_wait_ns", "ns", "idle share of fl.round.exchange_s in-process"),
    lower("pool.steal_backs", "count", "idle share of fl.round.exchange_s in-process"),
    lower("obs.trace_overhead_pct", "%", "validity of the traced pass"),
    lower("obs.spans.dropped", "count", "validity of the traced pass (must be 0)"),
    // how much of the measured exchange the outside probes explain
    higher("probe.exchange_coverage", "ratio", "validity of the layer probes"),
];
