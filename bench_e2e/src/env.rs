//! The machine and build a result was measured on, and the environment
//! overrides the bench refuses to run under.

use serde::Value;
use std::process::Command;

/// Each of these silently redefines a workload (tracing on in the timed
/// pass, another codec, another aggregation body, another audit path,
/// another pool size), so a result taken under one is not the benchmark's.
pub const FORBIDDEN_ENV: [&str; 5] =
    ["FG_TRACE", "FG_COMPRESS", "FG_STREAM_AGG", "FG_BATCHED_AUDIT", "FG_THREADS"];

/// The forbidden overrides currently set, given an environment lookup.
pub fn forbidden_set(lookup: impl Fn(&str) -> bool) -> Vec<&'static str> {
    FORBIDDEN_ENV.into_iter().filter(|name| lookup(name)).collect()
}

/// Refuse to run under a workload-redefining override.
pub fn refuse_overrides() -> Result<(), String> {
    let set = forbidden_set(|name| std::env::var_os(name).is_some());
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set; each redefines a workload — unset it",
            set.join(", ")
        ))
    }
}

/// Peak resident set of this process in MiB (`VmHWM` of `/proc/self/status`).
/// One workload runs per process, so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The header every result file starts with. `git_rev` is `"unknown"` in a
/// checkout that is not a git repository.
pub fn header(seed: u64, quick: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        ("nproc".to_string(), Value::U64(nproc as u64)),
        ("pool_threads".to_string(), Value::U64(rayon::current_num_threads() as u64)),
        ("avx2_fma".to_string(), Value::Bool(avx2_fma())),
        (
            "git_rev".to_string(),
            Value::Str(
                command_line("git", &["rev-parse", "--short", "HEAD"])
                    .unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        (
            "rustc".to_string(),
            Value::Str(
                command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("seed".to_string(), Value::U64(seed)),
        ("quick".to_string(), Value::Bool(quick)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_redefining_override_is_refused() {
        assert!(forbidden_set(|_| false).is_empty());
        assert_eq!(forbidden_set(|name| name == "FG_THREADS"), vec!["FG_THREADS"]);
        assert_eq!(forbidden_set(|_| true).len(), FORBIDDEN_ENV.len());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
