//! The result store: a cell's trail, named by its config digest, is folded
//! instead of re-run when it is complete, and re-run and rewritten
//! otherwise. Each test keeps its own store under the system temp dir.

use fedguard::experiment::{
    run_experiment, AttackScenario, ExperimentConfig, ExperimentResult, Preset, StrategyKind,
};
use fg_bench::{report, run_cached, stored, trail_path};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// An empty store directory for one test.
fn empty_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fg_store_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn in_store(cfg: &ExperimentConfig, store: &std::path::Path) -> ExperimentConfig {
    ExperimentConfig { telemetry_dir: Some(store.to_string_lossy().into_owned()), ..cfg.clone() }
}

fn smoke(strategy: StrategyKind, attack: AttackScenario, seed: u64) -> ExperimentConfig {
    ExperimentConfig::preset(Preset::Smoke, strategy, attack, seed)
}

#[test]
fn a_second_run_folds_the_trail_and_leaves_it_unchanged() {
    let store = empty_store("second");
    let cfg = in_store(&smoke(StrategyKind::FedAvg, AttackScenario::None, 21), &store);
    let first = run_cached(&cfg);
    let bytes = std::fs::read(trail_path(&cfg)).expect("the run wrote its trail");
    // A re-run would rewrite the wall-clock stage timings.
    let second = run_cached(&cfg);
    assert_eq!(std::fs::read(trail_path(&cfg)).unwrap(), bytes);
    assert_eq!(second, first);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn cut_or_stale_trails_are_rerun_and_rewritten_complete() {
    let store = empty_store("cut");
    let cfg = in_store(&smoke(StrategyKind::FedAvg, AttackScenario::None, 22), &store);
    let path = trail_path(&cfg);
    let first = run_cached(&cfg);
    let lines: Vec<String> =
        std::fs::read_to_string(&path).unwrap().lines().map(str::to_string).collect();
    assert_eq!(lines.len(), cfg.fed.rounds);

    // A round from before the history became `RoundTelemetry` has no
    // `strategy` or `stages`: it must fail to parse, not be misread.
    let stale = r#"{"round":0,"accuracy":0.5,"sampled":[0,1],"selected":[0],"malicious_sampled":[1],"wall_secs":0.1,"comm":{"upload_bytes":8,"download_bytes":8}}"#;
    let damaged = [
        ("cut", lines[..cfg.fed.rounds - 1].join("\n")),
        (
            "stale",
            std::iter::once(stale)
                .chain(lines[1..].iter().map(|l| l.as_str()))
                .collect::<Vec<_>>()
                .join("\n"),
        ),
    ];
    for (what, text) in damaged {
        std::fs::write(&path, text).unwrap();
        assert!(stored(&cfg).is_none(), "a {what} trail folded");
        let again = run_cached(&cfg);
        let folded = stored(&cfg).unwrap_or_else(|| panic!("the {what} trail was not rewritten"));
        assert_eq!(folded, again, "{what}");
        let normalized =
            |r: &ExperimentResult| r.history.iter().map(|e| e.normalized()).collect::<Vec<_>>();
        assert_eq!(normalized(&again), normalized(&first), "{what}");
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn folded_fedguard_trails_equal_their_fresh_runs() {
    let store = empty_store("fold");
    for attack in
        [AttackScenario::SignFlip { fraction: 0.4 }, AttackScenario::LabelFlip { fraction: 0.3 }]
    {
        let cfg = in_store(&smoke(StrategyKind::FedGuard, attack, 23), &store);
        let fresh = run_experiment(&cfg);
        let folded = stored(&cfg).expect("the fresh run left a complete trail");
        // History, roster, tail fraction and names.
        assert_eq!(folded, fresh, "{}", cfg.label());
    }
    let _ = std::fs::remove_dir_all(&store);
}

/// Every report a bin prints, formatted by `run` at the smoke preset.
fn all_reports(run: impl Fn(&ExperimentConfig) -> ExperimentResult) -> Vec<String> {
    let (p, seed) = (Preset::Smoke, 42);
    vec![
        report::fig4(&run, p, seed, "all").text,
        report::table4(&run, p, seed),
        report::fig5(&run, p, seed).text,
        report::table5(&run, p, seed, 6),
        report::ablation_budget(&run, p, seed),
        report::ablation_inner(&run, p, seed),
        report::ablation_heterogeneity(&run, p, seed),
        report::ablation_faults(&run, p, seed, None),
    ]
}

#[test]
fn reports_fold_one_complete_trail_per_distinct_config() {
    let store = empty_store("reports");
    let requested = RefCell::new(BTreeSet::new());
    let fresh = all_reports(|cfg| {
        let cfg = in_store(cfg, &store);
        requested.borrow_mut().insert((cfg.cell_stem(), cfg.fed.rounds));
        run_cached(&cfg)
    });

    // One trail per distinct config, each holding its config's rounds.
    let requested = requested.into_inner();
    let mut trails: Vec<String> = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    trails.sort();
    let want: Vec<String> = requested.iter().map(|(stem, _)| format!("{stem}.jsonl")).collect();
    assert_eq!(trails, want);
    for (stem, rounds) in &requested {
        let events = fedguard::fl::read_jsonl(store.join(format!("{stem}.jsonl"))).unwrap();
        assert_eq!(events.len(), *rounds, "{stem}");
    }

    // The second pass re-runs no cell and prints the same bytes, wall-clock
    // columns included: they are the stored runs' times.
    let folded = all_reports(|cfg| {
        let cfg = in_store(cfg, &store);
        stored(&cfg).unwrap_or_else(|| panic!("{} was re-run", cfg.cell_stem()))
    });
    assert_eq!(folded, fresh);
    let _ = std::fs::remove_dir_all(&store);
}
