//! Quickstart: defend a federation against a poisoning attack with FedGuard.
//!
//! Runs two small federations under a 50% sign-flipping attack — one
//! aggregating with plain FedAvg, one with FedGuard — and prints the
//! round-by-round global accuracy of both.
//!
//! ```text
//! cargo run --release -p fedguard --example quickstart
//! ```

use fedguard::experiment::{
    run_experiment, AttackScenario, ExperimentConfig, Preset, StrategyKind,
};

fn main() {
    let attack = AttackScenario::SignFlip { fraction: 0.5 };
    println!("Scenario: 50% of clients flip the sign of every weight they submit.\n");

    let fedavg_cfg = ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, attack, 7);
    let fedguard_cfg = ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedGuard, attack, 7);

    println!("Running FedAvg (no defense)...");
    let fedavg = run_experiment(&fedavg_cfg);
    println!("Running FedGuard (selective parameter aggregation)...\n");
    let fedguard = run_experiment(&fedguard_cfg);

    println!("round | FedAvg accuracy | FedGuard accuracy | FedGuard excluded");
    println!("------+-----------------+-------------------+------------------");
    for (a, g) in fedavg.history.iter().zip(&fedguard.history) {
        println!(
            "{:5} | {:14.1}% | {:16.1}% | {} of {} malicious",
            a.round,
            a.accuracy * 100.0,
            g.accuracy * 100.0,
            g.confusion().true_positives,
            g.malicious_sampled.len(),
        );
    }

    println!(
        "\nFinal: FedAvg {:.1}% vs FedGuard {:.1}%",
        fedavg.final_accuracy() * 100.0,
        fedguard.final_accuracy() * 100.0
    );
    let det = fedguard.detection();
    println!(
        "FedGuard excluded {:.0}% of malicious and {:.0}% of benign submissions.",
        det.recall() * 100.0,
        det.fpr() * 100.0
    );
}
