//! The "tuneable system" knob (§VI-A): trade FedGuard's server-side cost
//! against validation-set diversity by adjusting the synthesis budget `t`
//! and its distribution across decoders — and see the communication overhead
//! FedGuard adds at paper scale.
//!
//! ```text
//! cargo run --release -p fedguard --example overhead_tuning
//! ```

use fedguard::experiment::{
    run_experiment, AttackScenario, ExperimentConfig, Preset, StrategyKind,
};
use fedguard::nn::models::{ClassifierSpec, CvaeSpec};
use fedguard::synthesis::SynthesisBudget;

fn main() {
    // Part 1 — the analytic communication overhead at the paper's scale.
    let psi = ClassifierSpec::TableIICnn.num_params() as f64 * 4.0 / 1e6;
    let theta = CvaeSpec::table_iii().decoder_params() as f64 * 4.0 / 1e6;
    println!("Paper-scale wire sizes: classifier ψ = {psi:.2} MB, decoder θ = {theta:.2} MB");
    println!(
        "Per-round downloads, m = 50: FedAvg {:.0} MB, FedGuard {:.0} MB ({:+.0}%)\n",
        50.0 * psi,
        50.0 * (psi + theta),
        (theta / psi) * 100.0
    );

    // Part 2 — sweep the synthesis budget under a same-value attack.
    println!("Budget sweep (Smoke preset, 40% same-value attackers):");
    println!(
        "{:26} | {:>9} | {:>17} | {:>12}",
        "budget", "final", "malicious dropped", "secs/round"
    );
    println!("{}", "-".repeat(74));
    for budget in [
        SynthesisBudget::Total(10),
        SynthesisBudget::Total(40),
        SynthesisBudget::Total(160),
        SynthesisBudget::PerDecoder(8),
    ] {
        let mut cfg = ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedGuard,
            AttackScenario::SameValue { fraction: 0.4, value: 1.0 },
            13,
        );
        cfg.budget = budget;
        let result = run_experiment(&cfg);
        println!(
            "{:26} | {:>8.1}% | {:>16.0}% | {:>11.2}s",
            format!("{budget:?}"),
            result.final_accuracy() * 100.0,
            result.detection().recall() * 100.0,
            result.mean_round_secs(),
        );
    }
    println!("\nLarger budgets buy a lower-variance audit at linear server cost;");
    println!("PerDecoder budgets maximize diversity (every decoder contributes equally).");
}
