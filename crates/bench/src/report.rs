//! The paper's tables and figures, formatted from experiment results.
//!
//! Each report takes the cell runner as an argument and returns the bytes
//! its bin prints (the bins' module docs describe each report): the bins
//! pass [`crate::run_cached`], the report pin test passes `run_experiment`,
//! and both print the same bytes. Progress lines go to stderr.

use crate::plot::{LineChart, Series};
use crate::row;
use fedguard::experiment::{
    AttackScenario, ExperimentConfig, ExperimentResult, Preset, StrategyKind,
};
use fedguard::fl::{FaultConfig, FaultKind, ResiliencePolicy};
use fedguard::synthesis::SynthesisBudget;
use fedguard::InnerAggregator;
use fg_nn::models::{ClassifierSpec, CvaeSpec};

/// What runs (or folds) one cell.
pub trait Runner: Fn(&ExperimentConfig) -> ExperimentResult {}
impl<F: Fn(&ExperimentConfig) -> ExperimentResult> Runner for F {}

/// A figure report: the CSV text its bin prints and the SVG panels it
/// saves, as `(file name, chart)` pairs.
pub struct Figure {
    pub text: String,
    pub panels: Vec<(String, LineChart)>,
}

impl Figure {
    /// Print the text to stdout and save each panel under the workspace's
    /// `results/` ([`crate::results_dir`]), whatever the working directory.
    pub fn emit(&self) {
        print!("{}", self.text);
        let out_dir = crate::results_dir();
        std::fs::create_dir_all(out_dir).ok();
        for (file, chart) in &self.panels {
            let path = out_dir.join(file);
            if chart.save(&path).is_ok() {
                eprintln!("[svg] {}", path.display());
            }
        }
    }
}

/// A titled markdown table: `# <title>`, the header row (`header` holds
/// its cells joined by ` | `), a `---` rule, then one row per entry.
fn table(title: &str, header: &str, rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let rule = "| --- ".repeat(header.split(" | ").count());
    let mut out = format!("# {title}\n| {header} |\n{rule}|\n");
    for cells in rows {
        out += &row(&cells);
        out.push('\n');
    }
    out
}

/// One accuracy-per-round panel (Fig. 4/5): the chart and its CSV,
/// `round,<series names>` then one `{:.4}` row per round of the first
/// series (a shorter series reads NaN).
fn panel(title: String, series: Vec<(String, Vec<f32>)>) -> (String, LineChart) {
    let names: Vec<&str> = series.iter().map(|(n, _)| n.as_str()).collect();
    let mut csv = format!("round,{}\n", names.join(","));
    for r in 0..series[0].1.len() {
        let mut cells = vec![r.to_string()];
        for (_, s) in &series {
            cells.push(format!("{:.4}", s.get(r).copied().unwrap_or(f32::NAN)));
        }
        csv += &cells.join(",");
        csv.push('\n');
    }
    let chart = LineChart {
        title,
        x_label: "federated round".into(),
        y_label: "global model accuracy".into(),
        series: series.into_iter().map(|(name, values)| Series { name, values }).collect(),
        y_range: (0.0, 1.0),
    };
    (csv, chart)
}

/// A FedGuard cell under `attack`.
fn fedguard(preset: Preset, attack: AttackScenario, seed: u64) -> ExperimentConfig {
    ExperimentConfig::preset(preset, StrategyKind::FedGuard, attack, seed)
}

/// **Fig. 4**, one CSV block and SVG panel per scenario: `"all"` or one of
/// `noise`, `labelflip30`, `signflip`, `samevalue` (the paper set, in order).
pub fn fig4(run: impl Runner, preset: Preset, seed: u64, which: &str) -> Figure {
    let names = ["noise", "labelflip30", "signflip", "samevalue"];
    let scenarios: Vec<(&str, AttackScenario)> = names
        .into_iter()
        .zip(AttackScenario::paper_set())
        .filter(|(name, _)| which == "all" || *name == which)
        .collect();
    assert!(!scenarios.is_empty(), "unknown scenario {which:?}");

    // No-attack reference (FedAvg, as the paper's "No attack" row).
    let reference =
        run(&ExperimentConfig::preset(preset, StrategyKind::FedAvg, AttackScenario::None, seed))
            .accuracy_series();

    let mut figure = Figure { text: String::new(), panels: Vec::new() };
    for (name, attack) in scenarios {
        let pct = attack.fraction() * 100.0;
        let mut series: Vec<(String, Vec<f32>)> = Vec::new();
        for strategy in StrategyKind::paper_set() {
            let cfg = ExperimentConfig::preset(preset, strategy, attack, seed);
            eprintln!("[run] {}", cfg.label());
            series.push((strategy.name().to_string(), run(&cfg).accuracy_series()));
        }
        series.push(("NoAttack".into(), reference.clone()));
        let (csv, chart) = panel(format!("Fig 4 — {name} ({pct:.0}% malicious)"), series);
        figure.text += &format!("# Fig 4 — scenario: {name} ({pct:.0}% malicious)\n{csv}\n");
        figure.panels.push((format!("fig4_{name}.svg"), chart));
    }
    figure
}

/// **Fig. 5**: FedGuard at server learning rates 1 and 0.3, 40% label flip.
pub fn fig5(run: impl Runner, preset: Preset, seed: u64) -> Figure {
    let mut series: Vec<(String, Vec<f32>)> = Vec::new();
    for lr in [1.0f32, 0.3] {
        let mut cfg = fedguard(preset, AttackScenario::LabelFlip { fraction: 0.4 }, seed);
        cfg.fed.server_lr = lr;
        eprintln!("[run] FedGuard lr={lr}");
        let result = run(&cfg);
        eprintln!("  tail accuracy: {}", result.tail_accuracy());
        series.push((format!("FedGuard-lr-{lr}"), result.accuracy_series()));
    }
    let (csv, chart) = panel("Fig 5 — server learning rate, 40% label flipping".into(), series);
    Figure {
        text: format!("# Fig 5 — FedGuard server learning rate, 40% label flipping\n{csv}"),
        panels: vec![("fig5.svg".into(), chart)],
    }
}

/// The paper's Table IV cells (mean%, std%) — rows in `StrategyKind`
/// paper-set order, columns in `AttackScenario` paper-set order.
const PAPER_TABLE_IV: [[(f32, f32); 4]; 5] = [
    // additive noise     label flip 30%      sign flip            same value
    [(6.87, 0.12), (95.80, 6.66), (24.21, 18.74), (10.16, 0.09)], // FedAvg
    [(7.26, 0.31), (98.13, 1.63), (23.66, 21.56), (9.78, 0.00)],  // GeoMed
    [(6.52, 0.46), (96.51, 0.59), (62.48, 41.96), (9.93, 0.45)],  // Krum
    [(98.97, 0.18), (96.91, 6.12), (18.95, 14.81), (98.97, 0.17)], // Spectral
    [(98.72, 0.60), (98.96, 0.17), (98.97, 0.22), (98.99, 0.19)], // FedGuard
];

const PAPER_NO_ATTACK: (f32, f32) = (98.97, 0.17);

/// **Table IV**: mean ± std tail accuracy per strategy × attack, beside
/// the paper's values.
pub fn table4(run: impl Runner, preset: Preset, seed: u64) -> String {
    let attacks = AttackScenario::paper_set();
    let header = format!("Strategy | {}", attacks.map(|a| a.name()).join(" | "));
    let mut rows = Vec::new();
    for (si, strategy) in StrategyKind::paper_set().into_iter().enumerate() {
        let mut cells = vec![strategy.name().to_string()];
        for (ai, attack) in attacks.into_iter().enumerate() {
            let cfg = ExperimentConfig::preset(preset, strategy, attack, seed);
            eprintln!("[run] {}", cfg.label());
            let ours = run(&cfg).tail_accuracy();
            let (pm, ps) = PAPER_TABLE_IV[si][ai];
            cells.push(format!("{ours} (paper {pm:.2}% ± {ps:.2}%)"));
        }
        rows.push(cells);
    }
    // No-attack reference row.
    let cfg = ExperimentConfig::preset(preset, StrategyKind::FedAvg, AttackScenario::None, seed);
    let ours = run(&cfg).tail_accuracy();
    let (pm, ps) = PAPER_NO_ATTACK;
    let cell = format!("{ours} (paper {pm:.2}% ± {ps:.2}%)");
    rows.push(std::iter::once("No attack".to_string()).chain(vec![cell; attacks.len()]).collect());
    let title = format!(
        "Table IV — mean ± std accuracy over the last 80% of rounds\n\
         # (ours @ {preset:?} preset | paper @ GPU testbed; compare shape, not absolutes)"
    );
    table(&title, &header, rows)
}

/// Paper-reported Table V values: (upload MB, download MB, total MB, secs).
const PAPER_TABLE_V: [(&str, f64, f64, f64, f64); 5] = [
    ("FedAvg", 348.3, 348.3, 696.6, 3.76),
    ("GeoMed", 348.3, 348.3, 696.6, 4.66),
    ("Krum", 348.3, 348.3, 696.6, 7.32),
    ("Spectral", 348.3, 348.3, 696.6, 6.94),
    ("FedGuard", 349.3, 417.4, 766.7, 6.86),
];

/// **Table V, part 1**: per-round server communication at the paper's
/// scale (m = 50), computed analytically; no cell runs.
pub fn table5_communication() -> String {
    let m = 50.0;
    let psi_mb = (ClassifierSpec::TableIICnn.num_params() as f64 * 4.0) / 1e6;
    let theta_mb = (CvaeSpec::table_iii().decoder_params() as f64 * 4.0) / 1e6;
    let base_down = m * psi_mb;
    let rows = PAPER_TABLE_V.map(|(name, p_up, p_down, p_total, _)| {
        let up = m * psi_mb;
        let down = if name == "FedGuard" { m * (psi_mb + theta_mb) } else { base_down };
        let down_pct = (down / base_down - 1.0) * 100.0;
        let total = up + down;
        let total_pct = (total / (2.0 * base_down) - 1.0) * 100.0;
        vec![
            name.into(),
            format!("{up:.1} MB"),
            format!("{down:.1} MB ({down_pct:+.0}%)"),
            format!("{total:.1} MB ({total_pct:+.0}%)"),
            format!("{p_up:.1}/{p_down:.1}/{p_total:.1} MB"),
        ]
    });
    table(
        "Table V (part 1) — per-round server communication, paper scale (m = 50)",
        "Strategy | Uploads/round | Downloads/round | Total/round | Paper",
        rows,
    )
}

/// **Table V**: part 1, then part 2 — each strategy's mean seconds per
/// round over `rounds` no-attack rounds and its overhead over FedAvg.
pub fn table5(run: impl Runner, preset: Preset, seed: u64, rounds: usize) -> String {
    let mut fedavg_secs = None;
    let mut rows = Vec::new();
    for (strategy, (_, _, _, _, paper_secs)) in
        StrategyKind::paper_set().into_iter().zip(PAPER_TABLE_V)
    {
        let mut cfg = ExperimentConfig::preset(preset, strategy, AttackScenario::None, seed);
        cfg.fed.rounds = rounds;
        eprintln!("[run] {} ({} rounds)", cfg.label(), rounds);
        let secs = run(&cfg).mean_round_secs();
        let base = *fedavg_secs.get_or_insert(secs);
        let pct = (secs / base - 1.0) * 100.0;
        rows.push(vec![
            strategy.name().into(),
            format!("{secs:.2} s"),
            format!("{pct:+.0}%"),
            format!("{paper_secs:.2} s"),
        ]);
    }
    let part2 = table(
        &format!(
            "Table V (part 2) — measured time per round @ {preset:?} preset, {rounds} rounds, no attack"
        ),
        "Strategy | Time/round | Overhead | Paper",
        rows,
    );
    format!(
        "{}\n{part2}\n\
         # Note: FedGuard's first rounds include each newly sampled client's\n\
         # one-time CVAE training (static partitions, paper footnote 5), so its\n\
         # measured mean includes that amortized cost.\n",
        table5_communication()
    )
}

/// **Ablation, §VI-A**: the synthesis budget `t` against 30% label flip.
pub fn ablation_budget(run: impl Runner, preset: Preset, seed: u64) -> String {
    let budgets = [
        SynthesisBudget::Total(10),
        SynthesisBudget::Total(40),
        SynthesisBudget::Total(100),
        SynthesisBudget::Total(400),
        SynthesisBudget::PerDecoder(10),
    ];
    let rows = budgets.map(|budget| {
        let mut cfg = fedguard(preset, AttackScenario::LabelFlip { fraction: 0.3 }, seed);
        cfg.budget = budget;
        eprintln!("[run] budget {budget:?}");
        let result = run(&cfg);
        let det = result.detection();
        vec![
            format!("{budget:?}"),
            result.tail_accuracy().to_string(),
            format!("{:.0}%", det.recall() * 100.0),
            format!("{:.0}%", det.fpr() * 100.0),
            format!("{:.2} s", result.mean_round_secs()),
        ]
    });
    table(
        "Ablation — FedGuard synthesis budget t vs defense quality (30% label flip)",
        "Budget | Tail accuracy | Malicious excluded | Benign excluded | Time/round",
        rows,
    )
}

/// **Ablation, §VI-C**: FedGuard's inner operator, 40% label flip.
pub fn ablation_inner(run: impl Runner, preset: Preset, seed: u64) -> String {
    let inners = [InnerAggregator::FedAvg, InnerAggregator::GeoMed, InnerAggregator::Median];
    let rows = inners.map(|inner| {
        let mut cfg = fedguard(preset, AttackScenario::LabelFlip { fraction: 0.4 }, seed);
        cfg.fedguard_inner = inner;
        eprintln!("[run] inner={inner:?}");
        let result = run(&cfg);
        vec![
            format!("{inner:?}"),
            result.tail_accuracy().to_string(),
            format!("{:.1}%", result.final_accuracy() * 100.0),
            format!("{:.0}%", result.detection().recall() * 100.0),
        ]
    });
    table(
        "Ablation — FedGuard internal aggregation operator (40% label flip)",
        "Inner operator | Tail accuracy | Final | Malicious excluded",
        rows,
    )
}

/// **Ablation, §VI-B**: Dirichlet α × coverage-aware synthesis, 50% sign
/// flip.
pub fn ablation_heterogeneity(run: impl Runner, preset: Preset, seed: u64) -> String {
    let mut rows = Vec::new();
    for alpha in [10.0f32, 0.5, 0.1] {
        for coverage_aware in [false, true] {
            let mut cfg = fedguard(preset, AttackScenario::SignFlip { fraction: 0.5 }, seed);
            cfg.dirichlet_alpha = alpha;
            cfg.fedguard_coverage_aware = coverage_aware;
            eprintln!("[run] alpha={alpha} coverage_aware={coverage_aware}");
            let result = run(&cfg);
            let det = result.detection();
            rows.push(vec![
                format!("{alpha}"),
                coverage_aware.to_string(),
                result.tail_accuracy().to_string(),
                format!("{:.0}%", det.recall() * 100.0),
                format!("{:.0}%", det.fpr() * 100.0),
            ]);
        }
    }
    table(
        "Ablation — FedGuard under data heterogeneity (sign flip 50%)",
        "Dirichlet α | Coverage-aware | Tail accuracy | Malicious excluded | Benign excluded",
        rows,
    )
}

/// **Ablation, fault tolerance**: a no-attack FedGuard cell (quorum 2)
/// under each fault profile, plus `custom` when given, tallied from the
/// run's history.
pub fn ablation_faults(
    run: impl Runner,
    preset: Preset,
    seed: u64,
    custom: Option<FaultConfig>,
) -> String {
    let mut profiles: Vec<(String, Option<FaultConfig>)> = vec![
        ("ideal network (paper setup)".into(), None),
        ("30% dropout".into(), Some(FaultConfig { dropout_prob: 0.3, ..FaultConfig::default() })),
        (
            "30% dropout + 10% corrupt".into(),
            Some(FaultConfig { dropout_prob: 0.3, corrupt_prob: 0.1, ..FaultConfig::default() }),
        ),
        ("chaotic mix".into(), Some(FaultConfig::chaotic())),
    ];
    if let Some(fc) = custom {
        let (drop, corrupt) = (fc.dropout_prob * 100.0, fc.corrupt_prob * 100.0);
        profiles.push((format!("custom ({drop:.0}% drop, {corrupt:.0}% corrupt)"), Some(fc)));
    }
    let rows = profiles.into_iter().map(|(label, faults)| {
        eprintln!("[run] {label}");
        let mut cfg = fedguard(preset, AttackScenario::None, seed);
        cfg.faults = faults;
        cfg.resilience = ResiliencePolicy::quorum(2);
        let result = run(&cfg);
        let events = &result.history;
        let rejected = events
            .iter()
            .flat_map(|e| &e.faults)
            .filter(|f| {
                matches!(
                    f.kind,
                    FaultKind::RejectedNonFinite | FaultKind::RejectedWrongLength { .. }
                )
            })
            .count();
        vec![
            label,
            format!("{:.2}%", result.tail_accuracy().mean * 100.0),
            events.iter().map(|e| e.lost_count()).sum::<usize>().to_string(),
            rejected.to_string(),
            events.iter().filter(|e| !e.quorum_met).count().to_string(),
        ]
    });
    table(
        "Ablation — fault tolerance (FedGuard, no attack, quorum 2)",
        "Fault profile | Tail accuracy | Lost submissions | Sanitizer rejections | Skipped rounds",
        rows,
    )
}
