//! Ablation for §VI-C's **"internal aggregation operator"** future-work
//! direction: FedGuard's selection stage composed with FedAvg (the paper's
//! operator), the geometric median, or the coordinate-wise median over the
//! *selected* updates.
//!
//! The interesting scenario is one where a few malicious updates slip past
//! the audit — 40% label flipping, the regime where Fig. 5 shows FedGuard's
//! occasional failures — and a robust inner operator can absorb them.
//!
//! ```text
//! cargo run --release -p fg-bench --bin ablation_inner -- [--preset fast|smoke|paper] [--seed N]
//! ```

use fg_bench::{preset_from_args, report, run_cached, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    print!(
        "{}",
        report::ablation_inner(run_cached, preset_from_args(&args), seed_from_args(&args))
    );
}
