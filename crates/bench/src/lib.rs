//! Shared plumbing for the paper-reproduction binaries: preset parsing,
//! disk-cached experiment runs (so `table4` reuses `fig4`'s runs), and
//! report formatting.

pub mod plot;

use fedguard::experiment::{run_experiment, ExperimentConfig, ExperimentResult, Preset};
use std::fs;
use std::path::PathBuf;

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

fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/fg-results");
    fs::create_dir_all(&dir).expect("create result cache dir");
    dir
}

/// Where the bench binaries drop their JSONL telemetry trails (one
/// `RoundTelemetry` per line, one file per run): `results/telemetry/` at the
/// workspace root.
pub fn telemetry_dir() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/telemetry")
}

fn cache_key(cfg: &ExperimentConfig, preset: Preset) -> String {
    // Hash the full serialized config so any parameter change (attack σ,
    // budget, server lr, ...) invalidates the cache entry.
    let json = serde_json::to_string(cfg).expect("config serializes");
    let mut h: u64 = 0xcbf29ce484222325;
    for b in json.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!(
        "{:?}-{}-{}-r{}-s{}-{h:016x}",
        preset,
        cfg.strategy.name(),
        cfg.attack.name(),
        cfg.fed.rounds,
        cfg.fed.seed
    )
    .to_lowercase()
}

/// Run an experiment, reusing a cached JSON result from a previous identical
/// invocation when available. Cached under `target/fg-results/`. Fresh
/// (non-cached) runs leave a JSONL telemetry trail under
/// [`telemetry_dir`] unless the config already names a destination.
pub fn run_cached(cfg: &ExperimentConfig, preset: Preset) -> ExperimentResult {
    let path = cache_dir().join(format!("{}.json", cache_key(cfg, preset)));
    if let Ok(bytes) = fs::read_to_string(&path) {
        if let Ok(result) = serde_json::from_str::<ExperimentResult>(&bytes) {
            eprintln!("[cache] {}", path.display());
            return result;
        }
    }
    let mut cfg = cfg.clone();
    if cfg.telemetry_dir.is_none() {
        cfg.telemetry_dir = Some(telemetry_dir().to_string());
    }
    let result = run_experiment(&cfg);
    fs::write(&path, result.to_json()).expect("write result cache");
    result
}

/// Render a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedguard::experiment::{AttackScenario, StrategyKind};

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
    fn cache_key_distinguishes_cells() {
        let a =
            ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 1);
        let b = ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedGuard,
            AttackScenario::SignFlip { fraction: 0.5 },
            1,
        );
        assert_ne!(cache_key(&a, Preset::Smoke), cache_key(&b, Preset::Smoke));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
    }
}
