//! Defense forensics: a per-client, per-round exclusion ledger.
//!
//! The aggregation pipeline decides *which* updates enter the global model;
//! this module records *why* each sampled client's update did or did not.
//! Every completed round folds into the ledger as one [`RoundForensics`]
//! record: the audit score and threshold, an exclusion verdict attributed
//! to a cause taxonomy ([`ExclusionCause`]), a cumulative per-client
//! suspicion EWMA, and — the interceptor being the ground-truth oracle for
//! which sampled clients were malicious — running defense
//! precision/recall/FPR ([`DefenseConfusion`]).
//!
//! ## Determinism
//!
//! The ledger is a pure fold over [`RoundTelemetry`] fields that are part
//! of the bit-determinism contract (scores, threshold, rosters, fault
//! events, quorum verdict) — never over wall-clock, stage timings or the
//! metrics snapshot. Verdicts are emitted in ascending client-id order and
//! the suspicion EWMA is plain `f32` arithmetic in that same order, so the
//! serialized ledger is byte-identical across `LocalTransport` vs TCP,
//! thread counts, and audit modes. `tests/forensics_determinism.rs` pins
//! this.
//!
//! ## Cause taxonomy
//!
//! | cause | meaning |
//! |---|---|
//! | `BelowThreshold` | survived sanitization, judged by the strategy, not selected |
//! | `NonFinite` | sanitizer rejected the update for NaN/Inf parameters |
//! | `FaultSanitized` | a transit/sanitizer fault consumed the update |
//! | `QuorumSkipped` | round failed quorum; survivors were skipped wholesale |
//! | `RosterDropped` | the update never reached the sanitizer (dropout, timeout, session loss) |

use crate::fault::FaultKind;
use crate::telemetry::{RoundObserver, RoundTelemetry, SCHEMA_VERSION};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::AddAssign;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a sampled client's update did not make it into the aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExclusionCause {
    /// Survived sanitization and was judged, but the strategy left it out
    /// of the selected roster (under FedGuard: audit score < threshold).
    BelowThreshold,
    /// The sanitizer rejected the update for non-finite parameters.
    NonFinite,
    /// A transit or sanitizer fault consumed the update (truncation, wrong
    /// length, stale duplicate, malformed or oversized frame).
    FaultSanitized,
    /// The round failed quorum: every survivor was skipped wholesale, no
    /// one was individually judged.
    QuorumSkipped,
    /// The update never reached the sanitizer: dropout, straggler timeout
    /// or session loss.
    RosterDropped,
}

/// Running confusion counts over every `(round, sampled client)` exclusion
/// decision, treating "excluded" as the positive class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefenseConfusion {
    /// Malicious and excluded.
    pub true_positives: u64,
    /// Benign but excluded.
    pub false_positives: u64,
    /// Benign and kept.
    pub true_negatives: u64,
    /// Malicious but kept.
    pub false_negatives: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl DefenseConfusion {
    pub fn note(&mut self, malicious: bool, excluded: bool) {
        match (malicious, excluded) {
            (true, true) => self.true_positives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
            (true, false) => self.false_negatives += 1,
        }
    }

    /// Of everything excluded, how much was actually malicious. 0 when
    /// nothing was excluded yet.
    pub fn precision(&self) -> f64 {
        ratio(self.true_positives, self.true_positives + self.false_positives)
    }

    /// Of everything malicious, how much was excluded. 0 when no malicious
    /// client was sampled yet.
    pub fn recall(&self) -> f64 {
        ratio(self.true_positives, self.true_positives + self.false_negatives)
    }

    /// Of everything benign, how much was wrongly excluded.
    pub fn fpr(&self) -> f64 {
        ratio(self.false_positives, self.false_positives + self.true_negatives)
    }

    /// Decisions recorded so far.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }
}

impl AddAssign for DefenseConfusion {
    fn add_assign(&mut self, other: DefenseConfusion) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
    }
}

/// One sampled client's verdict in one round.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClientVerdict {
    pub client_id: usize,
    /// The strategy's score for this client, when it produced one.
    #[serde(default)]
    pub score: Option<f32>,
    /// Not part of the aggregate this round.
    pub excluded: bool,
    /// Attribution, present iff `excluded`.
    #[serde(default)]
    pub cause: Option<ExclusionCause>,
    /// Per-client EWMA of the exclusion indicator after this round.
    pub suspicion: f32,
    /// Ground truth: the interceptor marked this client malicious.
    pub malicious: bool,
}

/// One round of the ledger — the unit serialized to the forensics JSONL.
/// Versioned alongside [`RoundTelemetry`] under the same schema-v2
/// `#[serde(default)]` compatibility rules: readers tolerate missing
/// defaulted fields and ignore unknown ones.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundForensics {
    /// Schema version of the emitting writer ([`SCHEMA_VERSION`]); 0 when
    /// absent in the input.
    #[serde(default)]
    pub schema_version: u32,
    pub round: usize,
    /// The round's audit threshold, when the strategy published one.
    #[serde(default)]
    pub threshold: Option<f32>,
    pub quorum_met: bool,
    /// One verdict per sampled client, ascending client id.
    pub verdicts: Vec<ClientVerdict>,
    /// Running confusion totals up to and including this round.
    #[serde(default)]
    pub confusion: DefenseConfusion,
    /// Running rates derived from `confusion`, duplicated for grep-ability.
    #[serde(default)]
    pub precision: f64,
    #[serde(default)]
    pub recall: f64,
    #[serde(default)]
    pub fpr: f64,
}

impl RoundForensics {
    /// Client ids excluded this round, ascending.
    pub fn excluded_ids(&self) -> Vec<usize> {
        self.verdicts.iter().filter(|v| v.excluded).map(|v| v.client_id).collect()
    }
}

/// Default EWMA coefficient for the per-client suspicion series: one
/// exclusion lifts a clean client to 0.25; four in a row to ~0.68.
pub const DEFAULT_SUSPICION_ALPHA: f32 = 0.25;

/// The ledger state machine: folds completed rounds into per-client
/// suspicion and running confusion, keeping every emitted record.
#[derive(Clone, Debug)]
pub struct ForensicsLedger {
    alpha: f32,
    suspicion: BTreeMap<usize, f32>,
    confusion: DefenseConfusion,
    rounds: Vec<RoundForensics>,
}

impl Default for ForensicsLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl ForensicsLedger {
    pub fn new() -> Self {
        Self::with_alpha(DEFAULT_SUSPICION_ALPHA)
    }

    pub fn with_alpha(alpha: f32) -> Self {
        ForensicsLedger {
            alpha,
            suspicion: BTreeMap::new(),
            confusion: DefenseConfusion::default(),
            rounds: Vec::new(),
        }
    }

    /// Attribute an exclusion. Precedence within the fault events of one
    /// client: a non-finite rejection names the cause outright (the
    /// injected corruption that produced it is secondary); any other
    /// consuming fault is `FaultSanitized`; a client with no consuming
    /// fault event that still never made the survivor roster was lost with
    /// its transport session.
    fn cause_for(id: usize, event: &RoundTelemetry, survivors: &BTreeSet<usize>) -> ExclusionCause {
        if survivors.contains(&id) {
            return if event.quorum_met {
                ExclusionCause::BelowThreshold
            } else {
                ExclusionCause::QuorumSkipped
            };
        }
        let kinds: Vec<&FaultKind> =
            event.faults.iter().filter(|f| f.client_id == id).map(|f| &f.kind).collect();
        if kinds.iter().any(|k| matches!(k, FaultKind::RejectedNonFinite)) {
            ExclusionCause::NonFinite
        } else if kinds.iter().any(|k| {
            matches!(
                k,
                FaultKind::Corrupted { .. }
                    | FaultKind::Truncated { .. }
                    | FaultKind::RejectedWrongLength { .. }
                    | FaultKind::DuplicateSubmission
                    | FaultKind::DuplicateDiscarded
                    | FaultKind::FrameMalformed { .. }
                    | FaultKind::FrameOversized { .. }
            )
        }) {
            ExclusionCause::FaultSanitized
        } else {
            ExclusionCause::RosterDropped
        }
    }

    /// Fold one completed round and return its ledger record. Pure in the
    /// deterministic telemetry fields plus prior ledger state.
    pub fn observe(&mut self, event: &RoundTelemetry) -> RoundForensics {
        let selected: BTreeSet<usize> = event.selected.iter().copied().collect();
        let survivors: BTreeSet<usize> = event.survivors.iter().copied().collect();
        let malicious: BTreeSet<usize> = event.malicious_sampled.iter().copied().collect();
        let mut sampled: Vec<usize> = event.sampled.clone();
        sampled.sort_unstable();

        let mut verdicts = Vec::with_capacity(sampled.len());
        for id in sampled {
            let excluded = !selected.contains(&id);
            let cause = excluded.then(|| Self::cause_for(id, event, &survivors));
            let score = event.scores.iter().find(|&&(c, _)| c == id).map(|&(_, s)| s);
            let s = self.suspicion.entry(id).or_insert(0.0);
            *s = (1.0 - self.alpha) * *s + self.alpha * if excluded { 1.0 } else { 0.0 };
            let is_malicious = malicious.contains(&id);
            self.confusion.note(is_malicious, excluded);
            verdicts.push(ClientVerdict {
                client_id: id,
                score,
                excluded,
                cause,
                suspicion: *s,
                malicious: is_malicious,
            });
        }

        let record = RoundForensics {
            schema_version: SCHEMA_VERSION,
            round: event.round,
            threshold: event.threshold,
            quorum_met: event.quorum_met,
            verdicts,
            confusion: self.confusion,
            precision: self.confusion.precision(),
            recall: self.confusion.recall(),
            fpr: self.confusion.fpr(),
        };
        self.rounds.push(record.clone());
        record
    }

    pub fn rounds(&self) -> &[RoundForensics] {
        &self.rounds
    }

    pub fn confusion(&self) -> DefenseConfusion {
        self.confusion
    }

    /// Current suspicion EWMA for a client (None if never sampled).
    pub fn suspicion(&self, client_id: usize) -> Option<f32> {
        self.suspicion.get(&client_id).copied()
    }

    /// The whole ledger as a JSON array (what `/forensics` serves).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.rounds).expect("ledger serializes")
    }
}

struct CollectorInner {
    ledger: ForensicsLedger,
    sink: Option<BufWriter<File>>,
    path: Option<PathBuf>,
}

/// Shared, cloneable [`RoundObserver`] around a [`ForensicsLedger`];
/// optionally mirrors each record to a JSONL file as rounds complete.
/// Clones share state, so the runner can keep one handle attached to the
/// federation and hand another to the admin plane.
#[derive(Clone)]
pub struct ForensicsCollector {
    inner: Arc<Mutex<CollectorInner>>,
}

impl Default for ForensicsCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl ForensicsCollector {
    pub fn new() -> Self {
        ForensicsCollector {
            inner: Arc::new(Mutex::new(CollectorInner {
                ledger: ForensicsLedger::new(),
                sink: None,
                path: None,
            })),
        }
    }

    /// Collector that also appends one JSON line per round to `path`
    /// (truncating any previous file; parent directories are created).
    pub fn with_jsonl(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = File::create(path)?;
        Ok(ForensicsCollector {
            inner: Arc::new(Mutex::new(CollectorInner {
                ledger: ForensicsLedger::new(),
                sink: Some(BufWriter::new(file)),
                path: Some(path.to_path_buf()),
            })),
        })
    }

    pub fn rounds(&self) -> Vec<RoundForensics> {
        self.inner.lock().ledger.rounds().to_vec()
    }

    pub fn confusion(&self) -> DefenseConfusion {
        self.inner.lock().ledger.confusion()
    }

    /// The ledger as a JSON array (what `/forensics` serves).
    pub fn to_json(&self) -> String {
        self.inner.lock().ledger.to_json()
    }

    /// The JSONL path, when this collector writes one.
    pub fn path(&self) -> Option<PathBuf> {
        self.inner.lock().path.clone()
    }
}

impl RoundObserver for ForensicsCollector {
    fn on_round(&mut self, event: &RoundTelemetry) {
        let mut inner = self.inner.lock();
        let record = inner.ledger.observe(event);
        if let Some(sink) = inner.sink.as_mut() {
            let line = serde_json::to_string(&record).expect("forensics record serializes");
            let _ = writeln!(sink, "{line}");
        }
    }

    fn on_run_complete(&mut self) {
        if let Some(sink) = self.inner.lock().sink.as_mut() {
            let _ = sink.flush();
        }
    }
}

/// Read a forensics JSONL file back into records (tolerates the usual
/// schema-compat rules; fails on structurally corrupt lines).
pub fn read_forensics_jsonl(path: impl AsRef<Path>) -> io::Result<Vec<RoundForensics>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str(l)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};

    fn event(round: usize) -> RoundTelemetry {
        RoundTelemetry {
            schema_version: SCHEMA_VERSION,
            round,
            strategy: "fedguard".to_string(),
            accuracy: 0.5,
            wall_secs: 1.0,
            quorum_met: true,
            ..Default::default()
        }
    }

    #[test]
    fn causes_cover_the_taxonomy() {
        let mut ev = event(0);
        ev.sampled = vec![1, 2, 3, 4, 5];
        ev.survivors = vec![1, 2];
        ev.selected = vec![1];
        ev.excluded = vec![2, 3, 4, 5];
        ev.scores = vec![(1, 0.9), (2, 0.1)];
        ev.threshold = Some(0.5);
        ev.faults = vec![
            FaultEvent::new(3, FaultKind::Corrupted { mode: crate::fault::CorruptionMode::Nan }),
            FaultEvent::new(3, FaultKind::RejectedNonFinite),
            FaultEvent::new(4, FaultKind::RejectedWrongLength { got: 3, expected: 9 }),
            FaultEvent::new(5, FaultKind::Dropout),
        ];
        let mut ledger = ForensicsLedger::new();
        let rec = ledger.observe(&ev);
        let cause = |id: usize| rec.verdicts.iter().find(|v| v.client_id == id).unwrap().cause;
        assert_eq!(cause(1), None);
        assert_eq!(cause(2), Some(ExclusionCause::BelowThreshold));
        assert_eq!(
            cause(3),
            Some(ExclusionCause::NonFinite),
            "non-finite outranks the injected corruption"
        );
        assert_eq!(cause(4), Some(ExclusionCause::FaultSanitized));
        assert_eq!(cause(5), Some(ExclusionCause::RosterDropped));
        assert_eq!(rec.excluded_ids(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn quorum_failure_attributes_survivors_as_skipped() {
        let mut ev = event(0);
        ev.sampled = vec![1, 2, 3];
        ev.survivors = vec![1, 2];
        ev.selected = vec![];
        ev.excluded = vec![1, 2, 3];
        ev.quorum_met = false;
        ev.faults = vec![FaultEvent::new(3, FaultKind::Dropout)];
        let rec = ForensicsLedger::new().observe(&ev);
        let cause = |id: usize| rec.verdicts.iter().find(|v| v.client_id == id).unwrap().cause;
        assert_eq!(cause(1), Some(ExclusionCause::QuorumSkipped));
        assert_eq!(cause(2), Some(ExclusionCause::QuorumSkipped));
        assert_eq!(cause(3), Some(ExclusionCause::RosterDropped));
    }

    #[test]
    fn suspicion_ewma_and_confusion_accumulate() {
        let mut ledger = ForensicsLedger::new();
        // Round 0: client 7 (malicious) excluded, client 1 (benign) kept.
        let mut ev = event(0);
        ev.sampled = vec![1, 7];
        ev.survivors = vec![1, 7];
        ev.selected = vec![1];
        ev.excluded = vec![7];
        ev.malicious_sampled = vec![7];
        let r0 = ledger.observe(&ev);
        let v7 = r0.verdicts.iter().find(|v| v.client_id == 7).unwrap();
        assert!(v7.malicious && v7.excluded);
        assert_eq!(v7.suspicion, DEFAULT_SUSPICION_ALPHA);
        assert_eq!(r0.confusion.true_positives, 1);
        assert_eq!(r0.confusion.true_negatives, 1);
        assert_eq!(r0.precision, 1.0);
        assert_eq!(r0.recall, 1.0);
        assert_eq!(r0.fpr, 0.0);

        // Round 1: client 7 kept this time, client 1 excluded (false alarm).
        let mut ev = event(1);
        ev.sampled = vec![1, 7];
        ev.survivors = vec![1, 7];
        ev.selected = vec![7];
        ev.excluded = vec![1];
        ev.malicious_sampled = vec![7];
        let r1 = ledger.observe(&ev);
        let v7 = r1.verdicts.iter().find(|v| v.client_id == 7).unwrap();
        let a = DEFAULT_SUSPICION_ALPHA;
        assert_eq!(v7.suspicion, (1.0 - a) * a);
        assert_eq!(r1.confusion.false_positives, 1);
        assert_eq!(r1.confusion.false_negatives, 1);
        assert_eq!(r1.precision, 0.5);
        assert_eq!(r1.recall, 0.5);
        assert_eq!(r1.fpr, 0.5);
        assert_eq!(ledger.suspicion(1), Some((1.0 - a) * 0.0 + a));
    }

    #[test]
    fn collector_writes_readable_jsonl() {
        let dir = std::env::temp_dir().join("fg_forensics_test");
        let path = dir.join("ledger.jsonl");
        let mut collector = ForensicsCollector::with_jsonl(&path).unwrap();
        let mut ev = event(0);
        ev.sampled = vec![0, 1];
        ev.survivors = vec![0, 1];
        ev.selected = vec![0];
        ev.excluded = vec![1];
        collector.on_round(&ev);
        collector.on_run_complete();
        let back = read_forensics_jsonl(&path).unwrap();
        assert_eq!(back, collector.rounds());
        assert_eq!(back[0].schema_version, SCHEMA_VERSION);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_tolerates_missing_defaulted_and_unknown_fields() {
        // A minimal v2 record without the defaulted fields…
        let old = r#"{"round":3,"quorum_met":true,"verdicts":[{"client_id":9,"excluded":true,"suspicion":0.25,"malicious":false}]}"#;
        let rec: RoundForensics = serde_json::from_str(old).unwrap();
        assert_eq!(rec.schema_version, 0);
        assert_eq!(rec.round, 3);
        assert_eq!(rec.threshold, None);
        assert_eq!(rec.verdicts[0].cause, None);
        assert_eq!(rec.confusion, DefenseConfusion::default());
        // …and a future record with an unknown field.
        let future = r#"{"round":4,"quorum_met":true,"verdicts":[],"novel_field":[1,2,3]}"#;
        let rec: RoundForensics = serde_json::from_str(future).unwrap();
        assert_eq!(rec.round, 4);
    }
}
