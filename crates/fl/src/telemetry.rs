//! Structured per-round telemetry and the composable observer pipeline.
//!
//! Every [`crate::Federation::run_round`] call records exactly one
//! [`RoundTelemetry`] carrying per-stage wall times, the strategy's
//! per-client audit scores and selection threshold, communication stats, and
//! the selection/exclusion rosters. That record *is* the round: the
//! federation's history holds it and every observer receives it. Consumers
//! subscribe by implementing [`RoundObserver`] and registering through
//! `Federation::builder(..).observer(..)` (or `Federation::add_observer`);
//! any number of observers can be attached and each sees the same stream.
//!
//! Three sinks cover the common cases:
//! * [`MemoryCollector`] — in-process capture for tests and summaries;
//! * [`JsonlSink`] — one JSON object per line, the replayable trail. The
//!   bench binaries keep their results as these trails, one per run under
//!   `results/telemetry/`, named by the run's config digest, and fold a
//!   stored trail back into the run's result instead of re-running it;
//! * [`StderrProgress`] — a human-readable per-round progress line.

use crate::comm::CommStats;
use crate::fault::FaultEvent;
use crate::forensics::DefenseConfusion;
use crate::transport::{SessionEvent, TransportKind};
use fg_obs::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version stamped into every emitted [`RoundTelemetry`] event.
///
/// History: v1 (implicit, unstamped) — the pre-observability schema; v2 —
/// adds `schema_version` and `metrics`. Readers are forward-compatible:
/// unknown fields are ignored by the deserializer and fields added after v1
/// carry `#[serde(default)]`, so old trails parse (with `schema_version` 0)
/// and new trails survive old readers.
pub const SCHEMA_VERSION: u32 = 2;

/// Wall-clock seconds spent in each stage of one federated round.
///
/// The seven stages partition [`RoundTelemetry::wall_secs`]: `sampling` +
/// `local_training` + `sanitize` + `synthesis` + `audit` + `aggregation` +
/// `evaluation` accounts for the round up to bookkeeping noise. For
/// strategies without a synthesis/audit phase (FedAvg, Krum, ...) those two
/// stages are zero and the whole `aggregate()` call is attributed to
/// `aggregation`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Client sampling (Alg. 1 line 17).
    pub sampling_secs: f64,
    /// Parallel local training across the sampled clients, including attack
    /// interception.
    pub local_training_secs: f64,
    /// Fault injection plus server-side sanitization (validation, decoder
    /// stripping, duplicate resolution) of the round's submissions.
    pub sanitize_secs: f64,
    /// Server-side decoder synthesis of `D_syn` (FedGuard only).
    pub synthesis_secs: f64,
    /// Per-client audit/scoring (FedGuard's synthetic-set evaluation,
    /// Spectral's reconstruction errors).
    pub audit_secs: f64,
    /// Inner aggregation of the kept updates, plus strategy overhead not
    /// covered by synthesis/audit.
    pub aggregation_secs: f64,
    /// Server-side evaluation of the new global model on the test set.
    pub evaluation_secs: f64,
}

impl StageTimings {
    /// Total time across all named stages.
    pub fn total(&self) -> f64 {
        self.sampling_secs
            + self.local_training_secs
            + self.sanitize_secs
            + self.synthesis_secs
            + self.audit_secs
            + self.aggregation_secs
            + self.evaluation_secs
    }

    /// The stages as `(name, seconds)` pairs, in pipeline order.
    pub fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("sampling", self.sampling_secs),
            ("local_training", self.local_training_secs),
            ("sanitize", self.sanitize_secs),
            ("synthesis", self.synthesis_secs),
            ("audit", self.audit_secs),
            ("aggregation", self.aggregation_secs),
            ("evaluation", self.evaluation_secs),
        ]
    }
}

/// One federated round, fully described: the raw material for Fig. 4/5
/// (accuracy series), Table IV (mean ± std over the tail), Table V (time and
/// bytes per round) and the audit's exclusion record. It is what
/// [`crate::Federation::history`] holds and the event every
/// [`RoundObserver`] receives at the end of [`crate::Federation::run_round`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundTelemetry {
    /// Schema version of the emitting writer ([`SCHEMA_VERSION`]); 0 when
    /// read back from a pre-versioning (v1) trail.
    #[serde(default)]
    pub schema_version: u32,
    /// Round index (0-based, strictly increasing within a run).
    pub round: usize,
    /// Name of the aggregation strategy that produced the round.
    pub strategy: String,
    /// Test-set accuracy of the global model after the round.
    pub accuracy: f32,
    /// Per-stage wall times.
    pub stages: StageTimings,
    /// End-to-end wall time of the round.
    pub wall_secs: f64,
    /// Per-client `(client_id, score)` diagnostics from the strategy
    /// (FedGuard: synthetic-set accuracy; Spectral: reconstruction error;
    /// Krum: Krum score). Empty for strategies without per-client scores.
    pub scores: Vec<(usize, f32)>,
    /// The strategy's selection threshold for this round, if it applied one
    /// (FedGuard: round-mean audit accuracy; Spectral: mean error).
    pub threshold: Option<f32>,
    /// Clients sampled into the round, ascending.
    pub sampled: Vec<usize>,
    /// Clients whose valid submissions reached the aggregation stage after
    /// fault injection and sanitization, ascending. Without faults this
    /// equals `sampled`; always `selected ⊆ survivors ⊆ sampled`.
    pub survivors: Vec<usize>,
    /// Clients whose updates the strategy kept.
    pub selected: Vec<usize>,
    /// Sampled clients the strategy excluded (`sampled` minus `selected`).
    pub excluded: Vec<usize>,
    /// Every fault incident of the round — injected (dropout, straggler,
    /// corruption, ...) and observed (sanitizer rejections, dedup).
    pub faults: Vec<FaultEvent>,
    /// False when fewer than the resilience policy's quorum survived and the
    /// aggregation strategy was skipped (global model carried forward).
    pub quorum_met: bool,
    /// Ground-truth malicious clients among the sampled (from the attack
    /// interceptor; empty for honest runs).
    pub malicious_sampled: Vec<usize>,
    /// Byte-accurate communication totals for the round.
    pub comm: CommStats,
    /// Which deployment carried the round's exchange (in-process simulation
    /// or TCP). v2 addition; old trails read back as `Local`.
    #[serde(default)]
    pub transport: TransportKind,
    /// Client-session lifecycle events (joins, heartbeats, drops, leaves)
    /// observed by the transport during the round. Always empty for the
    /// in-process transport. v2 addition; old trails read back empty.
    #[serde(default)]
    pub sessions: Vec<SessionEvent>,
    /// Cumulative process-wide metrics at the end of the round (GEMM FLOPs,
    /// workspace pool traffic, pool job counts, ...), captured only while
    /// `fg_obs` tracing is enabled — empty otherwise, keeping events
    /// comparable across runs.
    #[serde(default)]
    pub metrics: MetricsSnapshot,
}

impl RoundTelemetry {
    /// Number of sampled clients the strategy excluded.
    pub fn excluded_count(&self) -> usize {
        self.excluded.len()
    }

    /// Number of sampled clients the strategy kept.
    pub fn selected_count(&self) -> usize {
        self.selected.len()
    }

    /// Number of sampled clients whose submission never reached aggregation
    /// (dropouts, timeouts, sanitizer rejections).
    pub fn lost_count(&self) -> usize {
        self.sampled.len() - self.survivors.len()
    }

    /// The deterministic part of the round: a copy with the clock readings
    /// (`wall_secs`, `stages`) and the process-wide `metrics` snapshot
    /// zeroed. Every other field is a pure function of the seeds, so
    /// replays, thread counts and audit modes compare equal on this view.
    pub fn normalized(&self) -> RoundTelemetry {
        RoundTelemetry {
            wall_secs: 0.0,
            stages: StageTimings::default(),
            metrics: MetricsSnapshot::default(),
            ..self.clone()
        }
    }

    /// The round's exclusion decisions against ground truth: one
    /// [`DefenseConfusion::note`] per sampled client.
    pub fn confusion(&self) -> DefenseConfusion {
        let mut confusion = DefenseConfusion::default();
        for id in &self.sampled {
            confusion.note(self.malicious_sampled.contains(id), self.excluded.contains(id));
        }
        confusion
    }
}

/// A subscriber to the round event stream.
///
/// Observers receive every event in round order. `on_run_complete` fires
/// once when `Federation::run` finishes (sinks flush there); observers
/// driven round-by-round via `run_round` can be flushed by dropping them.
pub trait RoundObserver: Send {
    fn on_round(&mut self, event: &RoundTelemetry);

    fn on_run_complete(&mut self) {}
}

/// In-memory collector. Cloning shares the underlying buffer, so a clone can
/// be handed to the federation while the original is inspected afterwards.
#[derive(Clone, Default)]
pub struct MemoryCollector {
    events: Arc<parking_lot::Mutex<Vec<RoundTelemetry>>>,
}

impl MemoryCollector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all events captured so far.
    pub fn events(&self) -> Vec<RoundTelemetry> {
        self.events.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl RoundObserver for MemoryCollector {
    fn on_round(&mut self, event: &RoundTelemetry) {
        self.events.lock().push(event.clone());
    }
}

/// JSON-lines file sink: one `RoundTelemetry` object per line.
///
/// Parent directories are created on construction; the file is truncated.
/// Events are buffered and flushed on `on_run_complete` and on drop.
pub struct JsonlSink {
    writer: BufWriter<fs::File>,
    path: PathBuf,
}

impl JsonlSink {
    /// Open (create/truncate) a sink at `path`, creating parent directories.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = fs::File::create(&path)?;
        Ok(JsonlSink { writer: BufWriter::new(file), path })
    }

    /// The file this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl RoundObserver for JsonlSink {
    fn on_round(&mut self, event: &RoundTelemetry) {
        let line = serde_json::to_string(event).expect("telemetry event serializes");
        // Telemetry must never abort a run; drop the line on I/O error.
        let _ = writeln!(self.writer, "{line}");
    }

    fn on_run_complete(&mut self) {
        let _ = self.writer.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Read back a JSONL telemetry trail written by [`JsonlSink`].
pub fn read_jsonl(path: impl AsRef<Path>) -> std::io::Result<Vec<RoundTelemetry>> {
    let reader = BufReader::new(fs::File::open(path.as_ref())?);
    let mut events = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event = serde_json::from_str(&line).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad telemetry line: {e}"))
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Human-readable progress sink writing one line per round to stderr:
/// which clients the defense excluded and, once ground truth has been seen
/// (the event's `malicious_sampled` roster is non-empty on attack runs),
/// the running defense precision/recall.
#[derive(Clone, Debug, Default)]
pub struct StderrProgress {
    /// Optional run label prefixed to every line.
    label: Option<&'static str>,
    /// Running exclusion-decision confusion against `malicious_sampled`.
    confusion: DefenseConfusion,
    /// Set once any round carried a ground-truth malicious roster.
    saw_ground_truth: bool,
}

impl StderrProgress {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn labeled(label: &'static str) -> Self {
        StderrProgress { label: Some(label), ..Self::default() }
    }
}

impl RoundObserver for StderrProgress {
    fn on_round(&mut self, event: &RoundTelemetry) {
        self.saw_ground_truth |= !event.malicious_sampled.is_empty();
        self.confusion += event.confusion();
        let prefix = self.label.map(|l| format!("{l} ")).unwrap_or_default();
        let thr = event.threshold.map_or_else(|| "-".to_string(), |t| format!("{t:.3}"));
        let excl = if event.excluded.is_empty() {
            "-".to_string()
        } else {
            let ids: Vec<String> = event.excluded.iter().map(|id| id.to_string()).collect();
            format!("[{}]", ids.join(","))
        };
        let defense = if self.saw_ground_truth {
            format!(" | P {:.2} R {:.2}", self.confusion.precision(), self.confusion.recall())
        } else {
            String::new()
        };
        eprintln!(
            "{prefix}[{} r{:03}] acc {:.4} | kept {}/{} excl {excl} thr {thr}{defense} | train {:.2}s agg {:.2}s | {:.2}s total",
            event.strategy,
            event.round,
            event.accuracy,
            event.selected_count(),
            event.sampled.len(),
            event.stages.local_training_secs,
            event.stages.synthesis_secs + event.stages.audit_secs + event.stages.aggregation_secs,
            event.wall_secs,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fault::{FaultEvent, FaultKind};

    fn sample_event(round: usize) -> RoundTelemetry {
        RoundTelemetry {
            schema_version: SCHEMA_VERSION,
            round,
            strategy: "FedGuard".to_string(),
            accuracy: 0.75,
            stages: StageTimings {
                sampling_secs: 1e-6,
                local_training_secs: 0.5,
                sanitize_secs: 0.003,
                synthesis_secs: 0.1,
                audit_secs: 0.2,
                aggregation_secs: 0.05,
                evaluation_secs: 0.02,
            },
            wall_secs: 0.88,
            scores: vec![(0, 0.8), (3, 0.1)],
            threshold: Some(0.45),
            sampled: vec![0, 3, 5],
            survivors: vec![0, 3],
            selected: vec![0],
            excluded: vec![3, 5],
            faults: vec![
                FaultEvent::new(5, FaultKind::Dropout),
                FaultEvent::new(3, FaultKind::StragglerLate { delay_secs: 0.2 }),
            ],
            quorum_met: true,
            malicious_sampled: vec![3],
            comm: CommStats { upload_bytes: 1024, download_bytes: 2048 },
            transport: TransportKind::Local,
            sessions: Vec::new(),
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn stage_timings_total_and_names() {
        let e = sample_event(0);
        assert!((e.stages.total() - 0.873001).abs() < 1e-9);
        let names: Vec<&str> = e.stages.named().iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "sampling",
                "local_training",
                "sanitize",
                "synthesis",
                "audit",
                "aggregation",
                "evaluation"
            ]
        );
    }

    #[test]
    fn roster_counts_are_consistent() {
        let e = sample_event(0);
        assert_eq!(e.lost_count(), 1);
        assert_eq!(e.selected_count(), 1);
        assert_eq!(e.excluded_count(), 2);
    }

    #[test]
    fn normalized_zeroes_only_wall_clock() {
        let e = sample_event(0);
        let mut slow = e.clone();
        slow.wall_secs = 99.0;
        slow.stages.audit_secs = 42.0;
        slow.metrics.counters.push(("fl.rounds".to_string(), 7));
        assert_ne!(slow, e);
        assert_eq!(slow.normalized(), e.normalized());
        // Every other field survives normalization and is compared.
        let n = e.normalized();
        assert_eq!((n.wall_secs, n.stages), (0.0, StageTimings::default()));
        assert_eq!(RoundTelemetry { wall_secs: e.wall_secs, stages: e.stages, ..n }, e);
        let mut rescored = e.clone();
        rescored.scores[1].1 = 0.2;
        assert_ne!(rescored.normalized(), e.normalized());
    }

    /// A round whose `excluded` roster is `sampled` minus `selected`, as the
    /// round loop writes it.
    fn rostered(
        sampled: Vec<usize>,
        selected: Vec<usize>,
        malicious: Vec<usize>,
    ) -> RoundTelemetry {
        let excluded = sampled.iter().copied().filter(|c| !selected.contains(c)).collect();
        RoundTelemetry {
            sampled,
            selected,
            excluded,
            malicious_sampled: malicious,
            ..Default::default()
        }
    }

    #[test]
    fn exclusion_counting() {
        let c = rostered(vec![0, 1, 2, 3], vec![0, 1], vec![2, 3]).confusion();
        assert_eq!((c.true_positives, c.false_positives), (2, 0));
        assert_eq!((c.true_negatives, c.false_negatives), (2, 0));
    }

    #[test]
    fn benign_exclusions_counted() {
        // Clients 0 and 1 are benign but excluded; 2 is malicious but kept.
        let c = rostered(vec![0, 1, 2], vec![2], vec![2]).confusion();
        assert_eq!((c.true_positives, c.false_positives), (0, 2));
        assert_eq!((c.true_negatives, c.false_negatives), (0, 1));
    }

    #[test]
    fn memory_collector_shares_buffer_across_clones() {
        let collector = MemoryCollector::new();
        let mut handle = collector.clone();
        handle.on_round(&sample_event(0));
        handle.on_round(&sample_event(1));
        assert_eq!(collector.len(), 2);
        assert_eq!(collector.events()[1].round, 1);
    }

    #[test]
    fn jsonl_sink_round_trips() {
        let path = std::env::temp_dir().join("fg_telemetry_test").join("trail.jsonl");
        let events: Vec<RoundTelemetry> = (0..3).map(sample_event).collect();
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            for e in &events {
                sink.on_round(e);
            }
            sink.on_run_complete();
        }
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, events);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_jsonl_rejects_corrupt_lines() {
        let path = std::env::temp_dir().join("fg_telemetry_test").join("corrupt.jsonl");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{not json}\n").unwrap();
        assert!(read_jsonl(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
