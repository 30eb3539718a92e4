//! `bench_e2e` — command line of the repo's benchmark.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; the contract of BENCHMARK.json
//! bench_e2e all     [--seed 42] [--seconds 10] [--reps 1] [--out <file>]            end-to-end set, one child per run
//! bench_e2e trace   [--seed 42] [--seconds 10] [--out <file>] [--trace-out <dir>]   per-layer set + Chrome traces
//! bench_e2e compare <a.json> <b.json>                                               a = baseline, b = candidate
//! ```
//!
//! A single run prints its metrics and checks on stderr and, as the last
//! line of stdout, one JSON object `{correct, attempted, failed, metrics}`;
//! it exits non-zero when a correctness check fails. `--quick` swaps in
//! smoke-sized shapes (for tests); `--break-floor` is a test hook that makes
//! the accuracy gate unreachable.

use fg_bench_e2e::bench::{run_timed, run_traced, Options};
use fg_bench_e2e::env;
use fg_bench_e2e::report::{compare, render_compare, ResultSet, RunResult, Verdict, WorkloadEntry};
use fg_bench_e2e::spec::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const OBJECTIVE: &str =
    "five seeded closed-loop FedGuard workloads: end-to-end wall clock, memory, wire \
                         bytes and accuracy per workload, every correctness check passing";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        None => Ok(default),
    }
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// One run of one workload in this process.
fn single(args: &[String]) -> Result<bool, String> {
    let name = flag(args, "--workload").ok_or("--workload <name> is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        format!("unknown workload {name:?}; one of {:?}", Workload::ALL.map(Workload::name))
    })?;
    let options = Options {
        workload,
        seed: parsed(args, "--seed", 42)?,
        seconds: parsed(args, "--seconds", 10.0)?,
        quick: has(args, "--quick"),
        break_floor: has(args, "--break-floor"),
        trace_out: flag(args, "--trace-out").map(PathBuf::from),
    };
    let result = match parsed(args, "--trace", 0u8)? {
        0 => run_timed(&options)?,
        1 => run_traced(&options)?,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    eprintln!(
        "[bench_e2e] {name}: {} timed rounds, {} of {} client-rounds failed, pool threads {}",
        result.timed_rounds,
        result.failed,
        result.attempted,
        rayon::current_num_threads()
    );
    println!("{}", result.contract_line());
    Ok(result.correct)
}

/// Run one workload in a fresh child process (so `peak_rss_mb` is that
/// workload's alone) and parse the result line it prints last.
fn child(
    workload: Workload,
    args: &[String],
    trace: bool,
    trace_dir: Option<&str>,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &parsed(args, "--seed", 42u64)?.to_string()])
        .args(["--seconds", &parsed(args, "--seconds", 10.0f64)?.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    for passthrough in ["--quick", "--break-floor"] {
        if has(args, passthrough) {
            cmd.arg(passthrough);
        }
    }
    if let Some(dir) = trace_dir {
        cmd.args(["--trace-out", &format!("{dir}/{}.trace.json", workload.name())]);
    }
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line =
        stdout.lines().last().ok_or_else(|| format!("{}: no result line", workload.name()))?;
    let mut result = RunResult::from_contract_line(line)?;
    // The child's exit code and its `correct` field say the same thing; a
    // crash after printing still counts as a failure.
    result.correct &= out.status.success();
    Ok(result)
}

/// `all` / `trace`: every workload, `--reps` children each, one result file.
fn set(args: &[String], trace: bool) -> Result<bool, String> {
    let reps: usize = parsed(args, "--reps", 1)?;
    let seed: u64 = parsed(args, "--seed", 42)?;
    let trace_dir = flag(args, "--trace-out");
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        // Every round offers the m sampled clients, so the client-rounds a
        // run attempted give back its timed-round count.
        let m = workload.config(seed, has(args, "--quick")).fed.clients_per_round as u64;
        let mut entry = WorkloadEntry {
            workload: workload.name().to_string(),
            timed_rounds: 0,
            metrics: Vec::new(),
            failed_checks: Vec::new(),
        };
        for rep in 0..reps.max(1) {
            let result = child(workload, args, trace, trace_dir.as_deref())?;
            if !result.correct {
                entry
                    .failed_checks
                    .push(format!("run {rep}: a correctness check failed (see its stderr)"));
            }
            entry.timed_rounds = (result.attempted / m) as usize;
            for metric in result.metrics {
                match entry.metrics.iter_mut().find(|have| have.name == metric.name) {
                    Some(have) => have.runs.extend(metric.runs),
                    None => entry.metrics.push(metric),
                }
            }
        }
        workloads.push(entry);
    }
    let success = workloads.iter().all(|w| w.failed_checks.is_empty());
    let result = ResultSet {
        success,
        objective: OBJECTIVE.to_string(),
        env: env::header(seed, has(args, "--quick")),
        workloads,
    };
    let json = result.to_json();
    match flag(args, "--out") {
        Some(path) => {
            if let Some(dir) = PathBuf::from(&path).parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
            }
            std::fs::write(&path, &json).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("[bench_e2e] result set written to {path}");
        }
        None => println!("{json}"),
    }
    for w in &result.workloads {
        for m in &w.metrics {
            eprintln!("{:<14} {:<38} {:>18.6} {}", w.workload, m.name, m.value(), m.unit);
        }
    }
    eprintln!("[bench_e2e] outcome: {}", if success { "success" } else { "failure" });
    Ok(success)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err("compare expects <a.json> <b.json>".to_string()) };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        ResultSet::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&load(a)?, &load(b)?);
    print!("{}", render_compare(&rows));
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = env::refuse_overrides().and_then(|()| match args.first().map(String::as_str) {
        Some("all") => set(&args[1..], false),
        Some("trace") => set(&args[1..], true),
        Some("compare") => compare_files(&args[1..]),
        _ => single(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}
