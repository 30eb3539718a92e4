//! Drives the built `bench_e2e` binary in `--quick` mode (smoke-sized
//! shapes, two timed rounds per workload) so the bin cannot rot: a single
//! contract-mode run, the `all` and `trace` sets, `compare`, the broken-floor
//! hook and the override refusal.

use fg_bench_e2e::report::{ResultSet, RunResult};
use fg_bench_e2e::spec::{Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(args)
        .env_remove("FG_THREADS")
        .output()
        .expect("run bench_e2e")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).lines().last().expect("a result line").to_string()
}

#[test]
fn a_single_run_prints_every_end_to_end_metric_last() {
    let out = bench(&[
        "--workload",
        "warm_mlp",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--quick",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let result = RunResult::from_contract_line(&last_line(&out)).expect("contract line parses");
    assert!(result.correct);
    assert_eq!(result.failed, 0);
    // Two timed rounds of four clients each.
    assert_eq!(result.attempted, 8);
    let names: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, END_TO_END.map(|m| m.name));
    assert!(result.metrics.iter().all(|m| m.value() > 0.0), "end-to-end metrics are never 0");
}

#[test]
fn all_then_compare_agree_with_themselves() {
    let dir = scratch("all");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    for path in [&a, &b] {
        let out = bench(&["all", "--quick", "--seed", "42", "--out", path.to_str().unwrap()]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let load = |p: &PathBuf| ResultSet::from_json(&std::fs::read_to_string(p).unwrap()).unwrap();
    let (set_a, set_b) = (load(&a), load(&b));
    assert!(set_a.success);
    let names: Vec<&str> = set_a.workloads.iter().map(|w| w.workload.as_str()).collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    // Counts are functions of the shapes alone.
    for (wa, wb) in set_a.workloads.iter().zip(&set_b.workloads) {
        assert_eq!(wa.timed_rounds, 2);
        let wire = |w: &fg_bench_e2e::report::WorkloadEntry| {
            w.metrics.iter().find(|m| m.name == "wire_bytes_per_round").expect("wire bytes").value()
        };
        assert_eq!(wire(wa), wire(wb), "{}", wa.workload);
    }
    // `compare` prints one row per workload x end-to-end metric. Quick runs
    // are far too short for stable timings, so only the shape is checked.
    let out = bench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let table = String::from_utf8_lossy(&out.stdout);
    assert_eq!(table.lines().count(), 1 + Workload::ALL.len() * END_TO_END.len(), "{table}");
    // A result file always compares clean against itself.
    let out = bench(&["compare", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("worse"));
}

#[test]
fn trace_emits_every_per_layer_metric_and_a_chrome_trace_per_workload() {
    let dir = scratch("trace");
    let out_file = dir.join("layers.json");
    let out = bench(&[
        "trace",
        "--quick",
        "--out",
        out_file.to_str().unwrap(),
        "--trace-out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let set = ResultSet::from_json(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    assert!(set.success);
    for (entry, workload) in set.workloads.iter().zip(Workload::ALL) {
        let names: Vec<&str> = entry.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        let value = |name: &str| entry.metrics.iter().find(|m| m.name == name).unwrap().value();
        assert_eq!(value("obs.spans.dropped"), 0.0);
        assert_eq!(value("fl.round.failed_share"), 0.0);
        assert!(value("fl.round.exchange_share") > 0.0);
        assert_eq!(value("fl.net.bytes_tx") > 0.0, workload.is_tcp());
        let trace =
            std::fs::read_to_string(dir.join(format!("{}.trace.json", workload.name()))).unwrap();
        assert!(
            trace.contains("bench.round"),
            "{} trace holds the bench's own spans",
            workload.name()
        );
    }
}

#[test]
fn a_broken_floor_fails_the_run() {
    let out = bench(&["--workload", "cold_fit", "--trace", "0", "--quick", "--break-floor"]);
    assert_eq!(out.status.code(), Some(1));
    let result = RunResult::from_contract_line(&last_line(&out)).unwrap();
    assert!(!result.correct);
}

#[test]
fn workload_redefining_overrides_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", "cold_fit", "--trace", "0", "--quick"])
        .env("FG_COMPRESS", "int8")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("FG_COMPRESS"));
}
