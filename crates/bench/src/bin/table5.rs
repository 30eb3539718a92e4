//! Regenerates **Table V**: per-round system overhead of each strategy.
//!
//! Two parts:
//! 1. **Communication** — computed analytically at the *paper's* scale
//!    (Table II classifier, Table III decoder, m = 50 clients/round,
//!    4 bytes/f32). This reproduces the paper's MB columns exactly up to
//!    their framework's serialization overhead: the quantity the paper
//!    argues about is the *relative* overhead (+20% downloads, +10% total
//!    for FedGuard), which is scale-free.
//! 2. **Training time / round** — measured by running every strategy for a
//!    few rounds at the selected preset and reporting mean wall-clock
//!    seconds and the overhead relative to FedAvg.
//!
//! ```text
//! cargo run --release -p fg-bench --bin table5 -- [--preset fast|smoke|paper] [--seed N] [--rounds N]
//! ```

use fg_bench::{flag_value, preset_from_args, report, run_cached, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rounds: usize = flag_value(&args, "--rounds")
        .map_or(6, |v| v.parse().expect("--rounds expects an integer"));
    print!(
        "{}",
        report::table5(run_cached, preset_from_args(&args), seed_from_args(&args), rounds)
    );
}
