//! Ablation for §VI-A's **"tuneable system"** claim: how the synthesis
//! budget `t` (number of synthetic validation samples) trades defense
//! quality against server compute.
//!
//! Runs FedGuard against 30% label flipping — the discrimination-sensitive
//! scenario — while sweeping the budget, and reports tail accuracy,
//! detection rates and mean round time for each setting.
//!
//! ```text
//! cargo run --release -p fg-bench --bin ablation_budget -- [--preset fast|smoke|paper] [--seed N]
//! ```

use fg_bench::{preset_from_args, report, run_cached, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    print!(
        "{}",
        report::ablation_budget(run_cached, preset_from_args(&args), seed_from_args(&args))
    );
}
