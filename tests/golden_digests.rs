//! One set of bits, written down (ROADMAP item 5(a)–(b), in small).
//!
//! Every bit-identity suite in this tree compares two paths of the *same
//! build*; this one compares the build with `tests/golden/digests.json`, so
//! a refactor that silently moves a rounding step fails here instead of in a
//! scratch harness against a checkout of the parent. Each cell is a seeded
//! Smoke-sized federation; its record is an FNV-1a digest of the final
//! global model's bits and, per round, of `accuracy`, `scores`, `threshold`
//! and `selected`.
//!
//! The file carries a numeric epoch with a one-line reason per bump and the
//! `simd` level it was blessed at. The two vector GEMM levels share bits
//! (DESIGN §7.2); the scalar level does not, so on a scalar-only CPU the
//! test reports that it skipped instead of failing. After an *intended*
//! numeric change: bump `epoch`, append the reason to `epochs`, then
//!
//! ```text
//! cargo test --offline -p fedguard --test golden_digests -- --ignored bless_golden_digests
//! ```

mod common;

use common::serve_over_tcp;
use fedguard::experiment::{
    run_experiment_full, AttackScenario, ExperimentConfig, Preset, RunArtifacts, StrategyKind,
};
use fedguard::synthesis::SynthesisBudget;
use fg_fl::compress::{DEFAULT_INT8_BLOCK, DEFAULT_TOPK_FRAC};
use fg_fl::{Compression, CvaeTrainConfig, FaultConfig};
use fg_nn::models::ClassifierSpec;
use fg_tensor::simd::Level;
use serde::{Deserialize, Serialize};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/digests.json");

#[derive(Serialize, Deserialize)]
struct Golden {
    /// Bumped by hand with every intended numeric change.
    epoch: u32,
    /// One line per epoch: `"<epoch>: <reason>"`.
    epochs: Vec<String>,
    /// `Level::detect()` of the machine that blessed the file.
    simd: String,
    cells: Vec<CellDigest>,
}

#[derive(Serialize, Deserialize)]
struct CellDigest {
    cell: String,
    global: String,
    rounds: Vec<RoundDigest>,
}

#[derive(Serialize, Deserialize)]
struct RoundDigest {
    accuracy: String,
    scores: String,
    threshold: String,
    selected: String,
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn digest(run: &RunArtifacts, cell: &str) -> CellDigest {
    let id = |c: usize| (c as u64).to_le_bytes();
    CellDigest {
        cell: cell.to_string(),
        global: fnv1a(run.final_global.iter().flat_map(|v| v.to_bits().to_le_bytes())),
        rounds: run
            .result
            .history
            .iter()
            .map(|e| RoundDigest {
                accuracy: fnv1a(e.accuracy.to_bits().to_le_bytes()),
                scores: fnv1a(
                    e.scores
                        .iter()
                        .flat_map(|&(c, s)| id(c).into_iter().chain(s.to_bits().to_le_bytes())),
                ),
                threshold: fnv1a(match e.threshold {
                    Some(t) => [1u8].into_iter().chain(t.to_bits().to_le_bytes()).collect(),
                    None => vec![0u8],
                }),
                selected: fnv1a(e.selected.iter().flat_map(|&c| id(c))),
            })
            .collect(),
    }
}

/// The Smoke MLP under a 40 % sign-flip minority, two rounds.
fn mlp(strategy: StrategyKind) -> ExperimentConfig {
    let attack = AttackScenario::SignFlip { fraction: 0.4 };
    let mut cfg = ExperimentConfig::preset(Preset::Smoke, strategy, attack, 42);
    cfg.fed.rounds = 2;
    cfg
}

/// The Table II CNN at the smallest size that still takes every path: six
/// clients of ≈20 samples, four sampled, two rounds, and an `eval_batch`
/// that leaves a ragged last mini-batch on both D_syn (20) and the test set
/// (50).
fn cnn(strategy: StrategyKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::preset(Preset::Smoke, strategy, AttackScenario::None, 7);
    cfg.fed.classifier = ClassifierSpec::TableIICnn;
    cfg.fed.n_clients = 6;
    cfg.fed.clients_per_round = 4;
    cfg.fed.rounds = 2;
    cfg.fed.local.epochs = 1;
    cfg.fed.local.batch_size = 10;
    cfg.fed.local.lr = 0.02;
    cfg.fed.eval_batch = 16;
    cfg.per_class_train = 12;
    cfg.per_class_test = 5;
    cfg.cvae = CvaeTrainConfig::reduced(32, 4, 10);
    cfg.budget = SynthesisBudget::Total(20);
    cfg
}

fn chaotic(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.faults = Some(FaultConfig::chaotic());
    cfg
}

fn compressed(mut cfg: ExperimentConfig, mode: Compression) -> ExperimentConfig {
    cfg.compression = mode;
    cfg
}

/// `(name, configuration, served over loopback TCP?)`.
fn cells() -> Vec<(&'static str, ExperimentConfig, bool)> {
    use StrategyKind::{FedAvg, FedGuard};
    let topk = Compression::TopK { frac: DEFAULT_TOPK_FRAC };
    let int8 = Compression::Int8 { block: DEFAULT_INT8_BLOCK };
    vec![
        ("fedavg/mlp/local", mlp(FedAvg), false),
        ("fedguard/mlp/local", mlp(FedGuard), false),
        ("fedguard/mlp/tcp", mlp(FedGuard), true),
        ("fedavg/mlp/local/chaotic", chaotic(mlp(FedAvg)), false),
        ("fedguard/mlp/local/chaotic", chaotic(mlp(FedGuard)), false),
        ("fedavg/cnn/local", cnn(FedAvg), false),
        ("fedguard/cnn/local", cnn(FedGuard), false),
        ("fedguard/cnn/tcp", cnn(FedGuard), true),
        ("fedavg/mlp/local/topk", compressed(mlp(FedAvg), topk), false),
        ("fedavg/mlp/local/topk/chaotic", chaotic(compressed(mlp(FedAvg), topk)), false),
        ("fedguard/mlp/tcp/int8", compressed(mlp(FedGuard), int8), true),
    ]
}

fn compute() -> Vec<CellDigest> {
    cells()
        .into_iter()
        .map(|(name, cfg, tcp)| {
            let run = if tcp { serve_over_tcp(&cfg).0 } else { run_experiment_full(&cfg) };
            digest(&run, name)
        })
        .collect()
}

fn read_golden() -> Golden {
    let text = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("read {GOLDEN}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {GOLDEN}: {e:?}"))
}

/// The first field of `got` that differs from `want`, as `"<field>"`.
fn first_difference(want: &CellDigest, got: &CellDigest) -> Option<String> {
    if want.rounds.len() != got.rounds.len() {
        return Some(format!("round count ({} vs {})", want.rounds.len(), got.rounds.len()));
    }
    for (r, (w, g)) in want.rounds.iter().zip(&got.rounds).enumerate() {
        let fields = [
            ("scores", &w.scores, &g.scores),
            ("threshold", &w.threshold, &g.threshold),
            ("selected", &w.selected, &g.selected),
            ("accuracy", &w.accuracy, &g.accuracy),
        ];
        if let Some((name, w, g)) = fields.into_iter().find(|(_, w, g)| w != g) {
            return Some(format!("round {r} {name} ({w} vs {g})"));
        }
    }
    (want.global != got.global)
        .then(|| format!("final global bits ({} vs {})", want.global, got.global))
}

#[test]
fn seeded_cells_reproduce_the_golden_digests() {
    if Level::detect() == Level::Scalar {
        eprintln!("golden_digests skipped: scalar level (the file holds the vector levels' bits)");
        return;
    }
    let golden = read_golden();
    assert_eq!(golden.epochs.len(), golden.epoch as usize, "one reason line per epoch");
    let got = compute();
    let names = |cells: &[CellDigest]| cells.iter().map(|c| c.cell.clone()).collect::<Vec<_>>();
    assert_eq!(names(&golden.cells), names(&got), "cell list changed: re-bless");
    for (want, got) in golden.cells.iter().zip(&got) {
        if let Some(field) = first_difference(want, got) {
            panic!(
                "golden digest mismatch at epoch {} (blessed at {}): cell `{}`, first difference \
                 in {field}. If the numeric change is intended, bump the epoch and re-bless (see \
                 this file's header).",
                golden.epoch, golden.simd, want.cell
            );
        }
    }
}

/// Rewrites the digests (and the `simd` stamp) in place; `epoch`/`epochs` are
/// edited by hand and carried over.
#[test]
#[ignore = "rewrites tests/golden/digests.json"]
fn bless_golden_digests() {
    assert_ne!(Level::detect(), Level::Scalar, "bless on a CPU with a vector GEMM level");
    let old = read_golden();
    let golden = Golden { simd: format!("{:?}", Level::detect()), cells: compute(), ..old };
    let text = serde_json::to_string_pretty(&golden).expect("golden file serializes");
    std::fs::write(GOLDEN, text + "\n").expect("write golden digests");
}
