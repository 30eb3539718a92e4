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

use fedguard::experiment::{run_experiment, AttackScenario, ExperimentConfig, StrategyKind};
use fedguard::InnerAggregator;
use fg_bench::{preset_from_args, row, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = preset_from_args(&args);
    let seed = seed_from_args(&args);

    println!("# Ablation — FedGuard internal aggregation operator (40% label flip)");
    println!(
        "{}",
        row(&[
            "Inner operator".into(),
            "Tail accuracy".into(),
            "Final".into(),
            "Malicious excluded".into()
        ])
    );
    println!("{}", row(&vec!["---".to_string(); 4]));

    for inner in [InnerAggregator::FedAvg, InnerAggregator::GeoMed, InnerAggregator::Median] {
        let mut cfg = ExperimentConfig::preset(
            preset,
            StrategyKind::FedGuard,
            AttackScenario::LabelFlip { fraction: 0.4 },
            seed,
        );
        cfg.fedguard_inner = inner;
        cfg.telemetry_dir = Some(fg_bench::telemetry_dir().to_string());
        eprintln!("[run] inner={inner:?}");
        let result = run_experiment(&cfg);
        println!(
            "{}",
            row(&[
                format!("{inner:?}"),
                result.tail_accuracy().to_string(),
                format!("{:.1}%", result.final_accuracy() * 100.0),
                format!("{:.0}%", result.detection().recall() * 100.0),
            ])
        );
    }
}
