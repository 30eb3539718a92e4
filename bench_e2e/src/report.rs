//! Result shapes — the one-line contract result of a single run and the
//! `outcome/objective/metrics` file `all` and `trace` write — and `compare`,
//! which holds two result files against the benchmark's own bounds.

use crate::spec::{Better, END_TO_END};
use crate::stats::{median, quartile_spread};
use serde::{obj_get, Value};

/// One metric as measured: `runs` holds one value per repetition and the
/// reported value is their median.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub runs: Vec<f64>,
}

impl Metric {
    pub fn value(&self) -> f64 {
        median(&self.runs)
    }
}

/// What one run of one workload reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub correct: bool,
    /// Client-rounds offered in the timed rounds.
    pub attempted: u64,
    /// Client-rounds that did not survive to aggregation.
    pub failed: u64,
    /// Timed rounds behind the timing metrics (their sample count).
    pub timed_rounds: usize,
    pub metrics: Vec<Metric>,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn metrics_value(metrics: &[Metric], with_runs: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut entry =
                    vec![("value", Value::F64(m.value())), ("unit", Value::Str(m.unit.clone()))];
                if with_runs {
                    entry.push((
                        "runs",
                        Value::Arr(m.runs.iter().map(|&v| Value::F64(v)).collect()),
                    ));
                }
                (m.name.clone(), obj(entry))
            })
            .collect(),
    )
}

impl RunResult {
    /// The benchmark contract's result: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let v = obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", metrics_value(&self.metrics, false)),
        ]);
        serde_json::to_string(&v).expect("result serializes")
    }

    /// Parse a contract line back (how `all` reads its child processes).
    pub fn from_contract_line(line: &str) -> Result<RunResult, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
        let o = v.as_obj().ok_or("result line is not an object")?;
        let field = |k: &str| obj_get(o, k).ok_or(format!("result line lacks {k:?}"));
        let metrics = field("metrics")?.as_obj().ok_or("metrics is not an object")?;
        Ok(RunResult {
            correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
            attempted: field("attempted")?.as_u64().ok_or("attempted is not a count")?,
            failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
            timed_rounds: 0,
            metrics: metrics
                .iter()
                .map(|(name, m)| parse_metric(name, m))
                .collect::<Result<_, _>>()?,
        })
    }
}

fn parse_metric(name: &str, m: &Value) -> Result<Metric, String> {
    let o = m.as_obj().ok_or(format!("metric {name} is not an object"))?;
    let value = obj_get(o, "value")
        .and_then(Value::as_f64)
        .ok_or(format!("metric {name} lacks a value"))?;
    let unit =
        obj_get(o, "unit").and_then(Value::as_str).ok_or(format!("metric {name} lacks a unit"))?;
    let runs = match obj_get(o, "runs").and_then(Value::as_arr) {
        Some(runs) => runs.iter().filter_map(Value::as_f64).collect(),
        None => vec![value],
    };
    Ok(Metric { name: name.to_string(), unit: unit.to_string(), runs })
}

/// A whole result set: every workload's metrics under one environment
/// header, in the `outcome/objective/metrics` shape the repo's other bench
/// reports use.
#[derive(Clone, Debug)]
pub struct ResultSet {
    pub success: bool,
    pub objective: String,
    pub env: Value,
    pub workloads: Vec<WorkloadEntry>,
}

/// One workload's share of a [`ResultSet`].
#[derive(Clone, Debug)]
pub struct WorkloadEntry {
    pub workload: String,
    /// Timed rounds of its last run.
    pub timed_rounds: usize,
    pub metrics: Vec<Metric>,
    pub failed_checks: Vec<String>,
}

impl ResultSet {
    pub fn to_json(&self) -> String {
        let v = obj(vec![
            ("outcome", Value::Str(if self.success { "success" } else { "failure" }.to_string())),
            ("objective", Value::Str(self.objective.clone())),
            ("env", self.env.clone()),
            (
                "rounds",
                Value::Obj(
                    self.workloads
                        .iter()
                        .map(|w| (w.workload.clone(), Value::U64(w.timed_rounds as u64)))
                        .collect(),
                ),
            ),
            (
                "failed_checks",
                Value::Obj(
                    self.workloads
                        .iter()
                        .filter(|w| !w.failed_checks.is_empty())
                        .map(|w| {
                            let lines = w.failed_checks.iter().cloned().map(Value::Str).collect();
                            (w.workload.clone(), Value::Arr(lines))
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Value::Obj(
                    self.workloads
                        .iter()
                        .map(|w| (w.workload.clone(), metrics_value(&w.metrics, true)))
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string_pretty(&v).expect("result set serializes")
    }

    pub fn from_json(text: &str) -> Result<ResultSet, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("result file: {e}"))?;
        let o = v.as_obj().ok_or("result file is not an object")?;
        let field = |k: &str| obj_get(o, k).ok_or(format!("result file lacks {k:?}"));
        let rounds = field("rounds")?.as_obj().ok_or("rounds is not an object")?;
        let failed = field("failed_checks")?.as_obj().ok_or("failed_checks is not an object")?;
        let workloads = field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(workload, metrics)| {
                let metrics =
                    metrics.as_obj().ok_or(format!("metrics of {workload} is not an object"))?;
                Ok(WorkloadEntry {
                    workload: workload.clone(),
                    timed_rounds: obj_get(rounds, workload).and_then(Value::as_u64).unwrap_or(0)
                        as usize,
                    metrics: metrics
                        .iter()
                        .map(|(name, m)| parse_metric(name, m))
                        .collect::<Result<_, String>>()?,
                    failed_checks: obj_get(failed, workload)
                        .and_then(Value::as_arr)
                        .map(|a| a.iter().filter_map(Value::as_str).map(str::to_string).collect())
                        .unwrap_or_default(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultSet {
            success: field("outcome")?.as_str() == Some("success"),
            objective: field("objective")?.as_str().unwrap_or_default().to_string(),
            env: field("env")?.clone(),
            workloads,
        })
    }

    fn runs(&self, workload: &str, metric: &str) -> &[f64] {
        self.workloads
            .iter()
            .find(|w| w.workload == workload)
            .and_then(|w| w.metrics.iter().find(|m| m.name == metric))
            .map_or(&[], |m| &m.runs)
    }
}

/// `compare`'s verdict on one workload × end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Median no worse than the baseline's by more than the bound.
    Same,
    /// Median worse by more than the bound, and the runs resolve it.
    Worse,
    /// A side is missing, or the run-to-run spread is wider than the bound
    /// and the two sides' runs overlap.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Hold candidate runs `b` against baseline runs `a` (choosing-metrics §6.5):
/// worse when the median worsened by more than `bound` of the baseline's;
/// unresolved when the spread exceeds the bound, unless every candidate run
/// is on one side of every baseline run.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() || a.iter().chain(b).any(|v| !v.is_finite()) {
        return Verdict::Unresolved;
    }
    // Orient so that larger means worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let (ma, mb) = (median(a), median(b));
    let worsening = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let noisy = quartile_spread(a).max(quartile_spread(b)) > bound;
    let worst_a = a.iter().map(|v| sign * v).fold(f64::NEG_INFINITY, f64::max);
    let best_a = a.iter().map(|v| sign * v).fold(f64::INFINITY, f64::min);
    let all_b_worse = b.iter().all(|v| sign * v > worst_a);
    let all_b_better = b.iter().all(|v| sign * v <= best_a);
    if worsening > bound && (!noisy || all_b_worse) {
        Verdict::Worse
    } else if noisy && !all_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// One row of `compare`'s table.
#[derive(Clone, Debug)]
pub struct CompareRow {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: Option<f64>,
    pub b: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One row per workload of `a` × end-to-end metric.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for w in &a.workloads {
        for m in &END_TO_END {
            let (ra, rb) = (a.runs(&w.workload, m.name), b.runs(&w.workload, m.name));
            rows.push(CompareRow {
                workload: w.workload.clone(),
                metric: m.name,
                unit: m.unit,
                a: (!ra.is_empty()).then(|| median(ra)),
                b: (!rb.is_empty()).then(|| median(rb)),
                bound: m.bound,
                verdict: verdict(ra, rb, m.better, m.bound),
            });
        }
    }
    rows
}

pub fn render_compare(rows: &[CompareRow]) -> String {
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    let mut out = format!(
        "{:<14} {:<22} {:>16} {:>16} {:<8} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "unit", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<22} {:>16} {:>16} {:<8} {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            show(r.a),
            show(r.b),
            r.unit,
            r.bound * 100.0,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, unit: &str, runs: &[f64]) -> Metric {
        Metric { name: name.to_string(), unit: unit.to_string(), runs: runs.to_vec() }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 1200,
            failed: 0,
            timed_rounds: 60,
            metrics: vec![metric("round_s_p50", "s", &[0.1034]), metric("setup_s", "s", &[7.25])],
        };
        let line = result.contract_line();
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let back = RunResult::from_contract_line(&line).unwrap();
        assert_eq!((back.correct, back.attempted, back.failed), (true, 1200, 0));
        assert_eq!(back.metrics, result.metrics);
    }

    #[test]
    fn result_set_round_trips_through_json() {
        let set = ResultSet {
            success: false,
            objective: "objective text".to_string(),
            env: obj(vec![("nproc", Value::U64(2)), ("seed", Value::U64(42))]),
            workloads: vec![
                WorkloadEntry {
                    workload: "warm_mlp".to_string(),
                    timed_rounds: 97,
                    metrics: vec![metric("round_s_p50", "s", &[0.10, 0.11, 0.12])],
                    failed_checks: vec!["accuracy_floor: 0.5 < 0.97".to_string()],
                },
                WorkloadEntry {
                    workload: "cold_fit".to_string(),
                    timed_rounds: 2,
                    metrics: vec![metric("setup_s", "s", &[0.8])],
                    failed_checks: Vec::new(),
                },
            ],
        };
        let back = ResultSet::from_json(&set.to_json()).unwrap();
        assert!(!back.success);
        assert_eq!(back.objective, set.objective);
        assert_eq!(back.env, set.env);
        assert_eq!(back.workloads.len(), 2);
        for (x, y) in back.workloads.iter().zip(&set.workloads) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.timed_rounds, y.timed_rounds);
            assert_eq!(x.metrics, y.metrics);
            assert_eq!(x.failed_checks, y.failed_checks);
        }
        assert_eq!(back.workloads[0].metrics[0].value(), 0.11);
    }

    #[test]
    fn verdicts_on_hand_made_runs() {
        use Better::{Higher, Lower};
        // Within the bound either way.
        assert_eq!(verdict(&[1.0], &[1.09], Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&[1.0], &[0.5], Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&[0.99], &[0.985], Higher, 0.01), Verdict::Same);
        // Beyond it.
        assert_eq!(verdict(&[1.0], &[1.11], Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&[0.99], &[0.90], Higher, 0.05), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[101.0], Lower, 0.0), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[100.0], Lower, 0.0), Verdict::Same);
        // Spread wider than the bound and the sides overlap: nothing shown.
        let noisy_a = [1.0, 1.3, 0.8, 1.1, 0.9];
        assert_eq!(
            verdict(&noisy_a, &[1.2, 0.9, 1.4, 1.0, 1.25], Lower, 0.05),
            Verdict::Unresolved
        );
        // ...unless every candidate run beats, or loses to, every baseline run.
        assert_eq!(verdict(&noisy_a, &[0.7, 0.5, 0.75, 0.6, 0.8], Lower, 0.05), Verdict::Same);
        assert_eq!(verdict(&noisy_a, &[1.9, 1.5, 2.2, 1.6, 1.4], Lower, 0.05), Verdict::Worse);
        // A side missing or not a number.
        assert_eq!(verdict(&[], &[1.0], Lower, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&[1.0], &[f64::NAN], Lower, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn compare_walks_every_end_to_end_metric_of_every_workload() {
        let entry = |runs: &[f64]| WorkloadEntry {
            workload: "warm_mlp".to_string(),
            timed_rounds: 10,
            metrics: vec![metric("round_s_p50", "s", runs)],
            failed_checks: Vec::new(),
        };
        let set = |runs: &[f64]| ResultSet {
            success: true,
            objective: String::new(),
            env: Value::Null,
            workloads: vec![entry(runs)],
        };
        let rows = compare(&set(&[0.10]), &set(&[0.20]));
        assert_eq!(rows.len(), END_TO_END.len());
        let p50 = rows.iter().find(|r| r.metric == "round_s_p50").unwrap();
        assert_eq!(p50.verdict, Verdict::Worse);
        // Metrics absent from both files cannot be resolved.
        assert!(rows
            .iter()
            .filter(|r| r.metric != "round_s_p50")
            .all(|r| r.verdict == Verdict::Unresolved));
        assert!(render_compare(&rows).contains("worse"));
    }
}
