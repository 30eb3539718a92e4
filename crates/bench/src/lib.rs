//! Shared plumbing for the paper-reproduction binaries: argument parsing,
//! the result store and the reports ([`report`]).
//!
//! The store is the runs' own telemetry trails: every cell's trail is
//! `<store>/<cell_stem>.jsonl`, named by a digest of its whole config, and
//! [`run_cached`] folds a complete trail instead of re-running its cell —
//! so `table4` reuses `fig4`'s runs. To recompute a cell, delete its trail.

pub mod plot;
pub mod report;

use fedguard::experiment::{run_experiment, ExperimentConfig, ExperimentResult, Preset};
use fedguard::fl::read_jsonl;
use std::path::{Path, PathBuf};

/// Parse `--preset {smoke|fast|paper}` from CLI args (default `fast`).
pub fn preset_from_args(args: &[String]) -> Preset {
    match flag_value(args, "--preset").as_deref() {
        Some("smoke") => Preset::Smoke,
        Some("paper") => Preset::Paper,
        Some("fast") | None => Preset::Fast,
        Some(other) => panic!("unknown preset {other:?}; expected smoke|fast|paper"),
    }
}

/// Parse `--seed N` (default 42).
pub fn seed_from_args(args: &[String]) -> u64 {
    flag_value(args, "--seed").map_or(42, |s| s.parse().expect("--seed expects an integer"))
}

/// Value following a `--flag` in an argument list.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// The workspace's `results/` directory, where the bins save their
/// figures; [`telemetry_dir`] lies under it.
pub fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// The bins' result store: `results/telemetry/` at the workspace root, one
/// JSONL trail per run (one `RoundTelemetry` per line).
pub fn telemetry_dir() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/telemetry")
}

/// Where `cfg`'s trail lives: `<cfg.telemetry_dir or telemetry_dir()>/<cell_stem>.jsonl`.
pub fn trail_path(cfg: &ExperimentConfig) -> PathBuf {
    Path::new(cfg.telemetry_dir.as_deref().unwrap_or(telemetry_dir()))
        .join(format!("{}.jsonl", cfg.cell_stem()))
}

/// `cfg`'s result folded from its stored trail, if the trail is complete:
/// exactly `cfg.fed.rounds` records, rounds 0..n in order. A missing trail,
/// a partial one (the sink drops lines on I/O error) or one holding a
/// line of a stale shape gives `None`.
pub fn stored(cfg: &ExperimentConfig) -> Option<ExperimentResult> {
    let history = read_jsonl(trail_path(cfg)).ok()?;
    let complete = history.len() == cfg.fed.rounds
        && history.iter().enumerate().all(|(i, round)| round.round == i);
    complete.then(|| ExperimentResult::new(cfg, history))
}

/// The cell runner the bins pass to the [`report`]s: fold `cfg`'s stored
/// trail when it is complete ([`stored`]), otherwise run the cell, which
/// truncates and rewrites the trail.
pub fn run_cached(cfg: &ExperimentConfig) -> ExperimentResult {
    if let Some(result) = stored(cfg) {
        eprintln!("[store] {}", trail_path(cfg).display());
        return result;
    }
    let mut cfg = cfg.clone();
    cfg.telemetry_dir.get_or_insert_with(|| telemetry_dir().to_string());
    run_experiment(&cfg)
}

/// Render a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_parsing() {
        let args: Vec<String> = vec!["--preset".into(), "smoke".into()];
        assert_eq!(preset_from_args(&args), Preset::Smoke);
        assert_eq!(preset_from_args(&[]), Preset::Fast);
    }

    #[test]
    fn seed_parsing() {
        let args: Vec<String> = vec!["--seed".into(), "7".into()];
        assert_eq!(seed_from_args(&args), 7);
        assert_eq!(seed_from_args(&[]), 42);
    }

    #[test]
    #[should_panic]
    fn unknown_preset_panics() {
        preset_from_args(&["--preset".to_string(), "huge".to_string()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
    }
}
