//! Attack gallery: all four poisoning attacks of the paper (§IV-B) against
//! an undefended federation and a FedGuard-defended one, side by side.
//!
//! ```text
//! cargo run --release -p fedguard --example attack_gallery
//! ```

use fedguard::experiment::{
    run_experiment, AttackScenario, ExperimentConfig, Preset, StrategyKind,
};

fn main() {
    let attacks = [
        (
            "additive noise, 50% malicious",
            AttackScenario::AdditiveNoise { fraction: 0.5, sigma: 8.0 },
        ),
        ("label flipping, 30% malicious", AttackScenario::LabelFlip { fraction: 0.3 }),
        ("sign flipping, 50% malicious", AttackScenario::SignFlip { fraction: 0.5 }),
        ("same value, 50% malicious", AttackScenario::SameValue { fraction: 0.5, value: 1.0 }),
        ("no attack (reference)", AttackScenario::None),
    ];

    println!(
        "{:34} | {:>10} | {:>10} | {:>17}",
        "attack", "FedAvg", "FedGuard", "malicious dropped"
    );
    println!("{}", "-".repeat(82));
    for (label, attack) in attacks {
        let fedavg = run_experiment(&ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedAvg,
            attack,
            11,
        ));
        let fedguard = run_experiment(&ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedGuard,
            attack,
            11,
        ));
        println!(
            "{:34} | {:>9.1}% | {:>9.1}% | {:>16.0}%",
            label,
            fedavg.final_accuracy() * 100.0,
            fedguard.final_accuracy() * 100.0,
            fedguard.detection().recall() * 100.0,
        );
    }
    println!("\n(Smoke preset: 10 clients, 3 rounds — run the fg-bench binaries for the");
    println!(" paper-shaped experiments at the fast or paper preset.)");
}
