//! Ablation for §VI-B's **"limiting factors"** discussion and the paper's
//! "imbalanced datasets" future-work direction: FedGuard under increasingly
//! heterogeneous Dirichlet partitions, with and without the proposed
//! coverage-aware synthesis (each decoder conditioned only on classes it was
//! trained on).
//!
//! ```text
//! cargo run --release -p fg-bench --bin ablation_heterogeneity -- [--preset fast|smoke|paper] [--seed N]
//! ```

use fg_bench::{preset_from_args, report, run_cached, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    print!(
        "{}",
        report::ablation_heterogeneity(run_cached, preset_from_args(&args), seed_from_args(&args))
    );
}
