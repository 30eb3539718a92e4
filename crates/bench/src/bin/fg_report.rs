//! `fg_report` — turns a run's telemetry trail into an operator-facing
//! defense report.
//!
//! ```text
//! fg_report --telemetry results/telemetry_ops/fedguard-sign-flipping-s42-<digest>.jsonl \
//!           [--out results/ops_report.json]
//! ```
//!
//! Any trail will do: a bin's under `results/telemetry/` or a served run's
//! (`fed_server --telemetry`), each named `<cell_stem>.jsonl`.
//!
//! The trail is the only input: the forensics ledger is derived from it
//! (`fg_fl::forensics::ledger`), so a trail written before a ledger field
//! existed reports that field too. The output follows the ROADMAP item-4
//! result contract: a top-level `outcome` / `objective` / `metrics` triple,
//! plus the evidence behind it — per-check verdicts and a per-client
//! timeline (sampled/excluded rounds, exclusion causes, final suspicion).
//! The checks hold the derived ledger to the trail: its exclusion verdicts
//! match the trail's `excluded` roster per round, and its running confusion
//! counts one decision per verdict. Exit code 1 on `failure`.

use fg_bench::flag_value;
use fg_fl::forensics::ledger;
use fg_fl::{read_jsonl, DefenseConfusion, ExclusionCause};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// One `(round, client)` cell of a client's timeline.
#[derive(Serialize)]
struct TimelineEntry {
    round: usize,
    score: Option<f32>,
    excluded: bool,
    cause: Option<ExclusionCause>,
    suspicion: f32,
}

/// Everything the ledger knows about one client across the run.
#[derive(Serialize)]
struct ClientTimeline {
    client_id: usize,
    malicious: bool,
    rounds_sampled: usize,
    rounds_excluded: usize,
    /// Exclusion-cause histogram, `(debug name, count)`.
    causes: Vec<(String, usize)>,
    /// Suspicion EWMA after the client's last sampled round.
    final_suspicion: f32,
    timeline: Vec<TimelineEntry>,
}

#[derive(Serialize)]
struct Check {
    name: String,
    passed: bool,
    detail: String,
}

#[derive(Serialize)]
struct ReportMetrics {
    rounds: usize,
    final_accuracy: Option<f32>,
    quorum_failures: usize,
    exclusions_total: u64,
    confusion: DefenseConfusion,
    precision: f64,
    recall: f64,
    fpr: f64,
}

/// The ROADMAP item-4 result schema: `outcome`/`objective`/`metrics` plus
/// the evidence records behind the verdict.
#[derive(Serialize)]
struct OpsReport {
    outcome: String,
    objective: String,
    metrics: ReportMetrics,
    checks: Vec<Check>,
    clients: Vec<ClientTimeline>,
}

fn check(checks: &mut Vec<Check>, name: &str, passed: bool, detail: String) {
    checks.push(Check { name: name.to_string(), passed, detail });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path = flag_value(&args, "--telemetry")
        .expect("fg_report requires --telemetry <run.jsonl> (see --help text in the module doc)");
    let out = flag_value(&args, "--out").unwrap_or_else(|| "results/ops_report.json".to_string());

    let telemetry = read_jsonl(&telemetry_path)
        .unwrap_or_else(|e| panic!("read telemetry {telemetry_path:?}: {e}"));
    let forensics = ledger(&telemetry);

    let mut checks = Vec::new();
    check(
        &mut checks,
        "telemetry_nonempty",
        !telemetry.is_empty(),
        format!("{} rounds in {telemetry_path}", telemetry.len()),
    );
    // The ledger's per-round exclusion verdicts must reproduce the
    // aggregation outcome recorded in telemetry exactly.
    let mut exclusion_mismatch = None;
    for (t, f) in telemetry.iter().zip(&forensics) {
        let mut from_telemetry = t.excluded.clone();
        from_telemetry.sort_unstable();
        if from_telemetry != f.excluded_ids() {
            exclusion_mismatch =
                Some(format!("round {}: {:?} vs {:?}", t.round, from_telemetry, f.excluded_ids()));
            break;
        }
    }
    check(
        &mut checks,
        "exclusions_match_aggregation_outcome",
        exclusion_mismatch.is_none(),
        exclusion_mismatch.unwrap_or_else(|| "every round agrees".to_string()),
    );
    if let Some(last) = forensics.last() {
        let noted: u64 = forensics.iter().map(|f| f.verdicts.len() as u64).sum();
        check(
            &mut checks,
            "confusion_totals_consistent",
            last.confusion.total() == noted,
            format!("{} decisions vs {} verdicts", last.confusion.total(), noted),
        );
    }

    // Per-client timelines, keyed ascending for a stable report.
    let mut clients: BTreeMap<usize, ClientTimeline> = BTreeMap::new();
    for f in &forensics {
        for v in &f.verdicts {
            let entry = clients.entry(v.client_id).or_insert_with(|| ClientTimeline {
                client_id: v.client_id,
                malicious: v.malicious,
                rounds_sampled: 0,
                rounds_excluded: 0,
                causes: Vec::new(),
                final_suspicion: 0.0,
                timeline: Vec::new(),
            });
            entry.malicious |= v.malicious;
            entry.rounds_sampled += 1;
            entry.rounds_excluded += usize::from(v.excluded);
            entry.final_suspicion = v.suspicion;
            if let Some(cause) = v.cause {
                let name = format!("{cause:?}");
                match entry.causes.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, count)) => *count += 1,
                    None => entry.causes.push((name, 1)),
                }
            }
            entry.timeline.push(TimelineEntry {
                round: f.round,
                score: v.score,
                excluded: v.excluded,
                cause: v.cause,
                suspicion: v.suspicion,
            });
        }
    }

    let confusion = forensics.last().map(|f| f.confusion).unwrap_or_default();
    let metrics = ReportMetrics {
        rounds: forensics.len(),
        final_accuracy: telemetry.last().map(|t| t.accuracy),
        quorum_failures: forensics.iter().filter(|f| !f.quorum_met).count(),
        exclusions_total: confusion.true_positives + confusion.false_positives,
        confusion,
        precision: confusion.precision(),
        recall: confusion.recall(),
        fpr: confusion.fpr(),
    };
    let outcome = if checks.iter().all(|c| c.passed) { "success" } else { "failure" };
    let report = OpsReport {
        outcome: outcome.to_string(),
        objective: format!(
            "defense forensics for {} ({} rounds)",
            Path::new(&telemetry_path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| telemetry_path.clone()),
            forensics.len()
        ),
        metrics,
        checks,
        clients: clients.into_values().collect(),
    };

    if let Some(dir) = Path::new(&out).parent() {
        fs::create_dir_all(dir).expect("create output dir");
    }
    fs::write(&out, serde_json::to_string_pretty(&report).expect("report serializes"))
        .expect("write ops report");
    eprintln!(
        "[fg_report] {} | {} rounds | P {:.2} R {:.2} FPR {:.2} | {out}",
        report.outcome,
        report.metrics.rounds,
        report.metrics.precision,
        report.metrics.recall,
        report.metrics.fpr
    );
    if report.outcome != "success" {
        for c in report.checks.iter().filter(|c| !c.passed) {
            eprintln!("[fg_report] FAILED {}: {}", c.name, c.detail);
        }
        std::process::exit(1);
    }
}
