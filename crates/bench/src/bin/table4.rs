//! Regenerates **Table IV**: average accuracy ± standard deviation over the
//! last 80% of rounds for every strategy × attack scenario, alongside the
//! paper's reported values for shape comparison.
//!
//! ```text
//! cargo run --release -p fg-bench --bin table4 -- [--preset fast|smoke|paper] [--seed N]
//! ```
//!
//! Folds the trails `fig4` stored when present (same preset and seed).

use fg_bench::{preset_from_args, report, run_cached, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    print!("{}", report::table4(run_cached, preset_from_args(&args), seed_from_args(&args)));
}
