//! Regenerates **Fig. 5**: the impact of the server learning rate on
//! FedGuard's stability under the hardest scenario the paper tests — 40%
//! malicious peers performing label flipping.
//!
//! ```text
//! cargo run --release -p fg-bench --bin fig5 -- [--preset fast|smoke|paper] [--seed N]
//! ```
//!
//! Output: CSV — `round, FedGuard-lr-1, FedGuard-lr-0.3`.

use fg_bench::{preset_from_args, report, run_cached, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    report::fig5(run_cached, preset_from_args(&args), seed_from_args(&args)).emit();
}
