//! `BENCHMARK.json` at the repo root and the bench's own tables
//! (`spec::{Workload, END_TO_END, PER_LAYER}`) must say the same thing: the
//! names the file promises are exactly the names a run emits.

use fg_bench_e2e::spec::{Better, Workload, END_TO_END, PER_LAYER};
use fg_bench_e2e::stats::valid_name;
use serde::{obj_get, Value};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> Vec<&'a [(String, Value)]> {
    let root = doc.as_obj().expect("top level is an object");
    let list =
        obj_get(root, key).and_then(Value::as_arr).unwrap_or_else(|| panic!("{key} is a list"));
    list.iter().map(|e| e.as_obj().expect("entry is an object")).collect()
}

fn text<'a>(entry: &'a [(String, Value)], key: &str) -> &'a str {
    obj_get(entry, key).and_then(Value::as_str).unwrap_or_else(|| panic!("{key} is a string"))
}

fn keys(entry: &[(String, Value)]) -> Vec<&str> {
    entry.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn workloads_match_the_manifest() {
    let doc = manifest();
    let listed = entries(&doc, "workloads");
    assert_eq!(listed.len(), Workload::ALL.len());
    for (entry, workload) in listed.iter().zip(Workload::ALL) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), workload.name());
        assert_eq!(text(entry, "why"), workload.why());
        assert!(valid_name(workload.name()));
        assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
        assert_eq!(Workload::parse(workload.name()), Some(workload));
    }
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    let doc = manifest();
    let listed = entries(&doc, "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, metric) in listed.iter().zip(&END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit);
        assert_eq!(text(entry, "better"), metric.better.name());
        assert_eq!(obj_get(entry, "bound").and_then(Value::as_f64), Some(metric.bound));
        assert!(valid_name(metric.name));
        assert!(metric.bound > 0.0 && metric.bound <= 0.25);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s carries the largest bound");
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    let doc = manifest();
    let listed = entries(&doc, "per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    assert!(listed.len() <= 128);
    for (entry, metric) in listed.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit);
        assert_eq!(text(entry, "better"), metric.better.name());
        assert!(valid_name(metric.name), "{}", metric.name);
        assert!(!metric.moves.is_empty(), "{} names what it should move", metric.name);
    }
}

#[test]
fn every_name_is_used_once_and_units_fit_the_charset() {
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        assert!(!unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok), "{unit}");
    }
}

#[test]
fn the_command_stays_inside_the_benchmark_paths() {
    let doc = manifest();
    let root = doc.as_obj().unwrap();
    let top: Vec<&str> = root.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(top, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let strings = |key: &str| -> Vec<String> {
        let list = obj_get(root, key).and_then(Value::as_arr).unwrap();
        list.iter().map(|v| v.as_str().unwrap().to_string()).collect()
    };
    let paths = strings("paths");
    assert_eq!(paths, ["bench_e2e"]);
    for arg in strings("command") {
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        if arg.contains('/') {
            assert!(
                paths.iter().any(|p| arg.starts_with(&format!("{p}/"))),
                "{arg} is outside paths"
            );
        }
    }
    let seconds = obj_get(root, "run_seconds").and_then(Value::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
}
