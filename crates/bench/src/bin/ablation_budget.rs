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

use fedguard::experiment::{run_experiment, AttackScenario, ExperimentConfig, StrategyKind};
use fedguard::synthesis::SynthesisBudget;
use fg_bench::{preset_from_args, row, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = preset_from_args(&args);
    let seed = seed_from_args(&args);

    let budgets = [
        SynthesisBudget::Total(10),
        SynthesisBudget::Total(40),
        SynthesisBudget::Total(100),
        SynthesisBudget::Total(400),
        SynthesisBudget::PerDecoder(10),
    ];

    println!("# Ablation — FedGuard synthesis budget t vs defense quality (30% label flip)");
    println!(
        "{}",
        row(&[
            "Budget".into(),
            "Tail accuracy".into(),
            "Malicious excluded".into(),
            "Benign excluded".into(),
            "Time/round".into()
        ])
    );
    println!("{}", row(&vec!["---".to_string(); 5]));

    for budget in budgets {
        let mut cfg = ExperimentConfig::preset(
            preset,
            StrategyKind::FedGuard,
            AttackScenario::LabelFlip { fraction: 0.3 },
            seed,
        );
        cfg.budget = budget;
        cfg.telemetry_dir = Some(fg_bench::telemetry_dir().to_string());
        eprintln!("[run] budget {budget:?}");
        let result = run_experiment(&cfg);
        let det = result.detection();
        println!(
            "{}",
            row(&[
                format!("{budget:?}"),
                result.tail_accuracy().to_string(),
                format!("{:.0}%", det.recall() * 100.0),
                format!("{:.0}%", det.fpr() * 100.0),
                format!("{:.2} s", result.mean_round_secs()),
            ])
        );
    }
}
