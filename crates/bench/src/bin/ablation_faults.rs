//! Ablation — **fault tolerance**: how the federation degrades as the
//! network gets messier. The paper's evaluation assumes an ideal network;
//! this bench reruns a FedGuard cell under increasing fault intensity
//! (dropouts, NaN/Inf corruption, then the full chaotic mix of stragglers,
//! truncation and duplicates) and reports tail accuracy alongside the
//! fault-layer bookkeeping: submissions lost, sanitizer rejections, and
//! rounds skipped for lack of quorum.
//!
//! ```text
//! cargo run --release -p fg-bench --bin ablation_faults -- \
//!     [--preset fast|smoke|paper] [--seed N] [--dropout P] [--corrupt P]
//! ```
//!
//! `--dropout` / `--corrupt` add one extra row with those custom rates.

use fedguard::experiment::Preset;
use fedguard::fl::FaultConfig;
use fg_bench::{flag_value, preset_from_args, report, run_cached, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = preset_from_args(&args);
    let dropout = flag_value(&args, "--dropout")
        .map(|s| s.parse::<f64>().expect("--dropout expects a probability"));
    let corrupt = flag_value(&args, "--corrupt")
        .map(|s| s.parse::<f64>().expect("--corrupt expects a probability"));
    let custom = (dropout.is_some() || corrupt.is_some()).then(|| FaultConfig {
        dropout_prob: dropout.unwrap_or(0.0),
        corrupt_prob: corrupt.unwrap_or(0.0),
        ..FaultConfig::default()
    });
    print!("{}", report::ablation_faults(run_cached, preset, seed_from_args(&args), custom));
    if preset == Preset::Paper {
        eprintln!("note: paper preset cells are expensive; consider --preset fast");
    }
}
