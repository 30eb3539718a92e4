//! Ablation for §VI-B's **"limiting factors"** discussion and the paper's
//! "imbalanced datasets" future-work direction: FedGuard under increasingly
//! heterogeneous Dirichlet partitions, with and without the proposed
//! coverage-aware synthesis (each decoder conditioned only on classes it was
//! trained on).
//!
//! ```text
//! cargo run --release -p fg-bench --bin ablation_heterogeneity -- [--preset fast|smoke|paper] [--seed N]
//! ```

use fedguard::experiment::{run_experiment, AttackScenario, ExperimentConfig, StrategyKind};
use fg_bench::{preset_from_args, row, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = preset_from_args(&args);
    let seed = seed_from_args(&args);

    println!("# Ablation — FedGuard under data heterogeneity (sign flip 50%)");
    println!(
        "{}",
        row(&[
            "Dirichlet α".into(),
            "Coverage-aware".into(),
            "Tail accuracy".into(),
            "Malicious excluded".into(),
            "Benign excluded".into()
        ])
    );
    println!("{}", row(&vec!["---".to_string(); 5]));

    for alpha in [10.0f32, 0.5, 0.1] {
        for coverage_aware in [false, true] {
            let mut cfg = ExperimentConfig::preset(
                preset,
                StrategyKind::FedGuard,
                AttackScenario::SignFlip { fraction: 0.5 },
                seed,
            );
            cfg.dirichlet_alpha = alpha;
            cfg.fedguard_coverage_aware = coverage_aware;
            cfg.telemetry_dir = Some(fg_bench::telemetry_dir().to_string());
            eprintln!("[run] alpha={alpha} coverage_aware={coverage_aware}");
            let result = run_experiment(&cfg);
            let det = result.detection();
            println!(
                "{}",
                row(&[
                    format!("{alpha}"),
                    coverage_aware.to_string(),
                    result.tail_accuracy().to_string(),
                    format!("{:.0}%", det.recall() * 100.0),
                    format!("{:.0}%", det.fpr() * 100.0),
                ])
            );
        }
    }
}
