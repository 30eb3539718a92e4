//! Defense forensics: a per-client, per-round exclusion ledger.
//!
//! The aggregation pipeline decides *which* updates enter the global model;
//! this module says *why* each sampled client's update did or did not.
//! The ledger is a function of the round history: [`ledger`] folds each
//! [`RoundTelemetry`] into one [`RoundForensics`] record: the audit score
//! and threshold, an exclusion verdict attributed to a cause taxonomy
//! ([`ExclusionCause`]), a cumulative per-client suspicion EWMA, and — the
//! interceptor being the ground-truth oracle for which sampled clients were
//! malicious — running defense precision/recall/FPR ([`DefenseConfusion`]).
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
//! Nothing records the ledger a second time: a run writes one telemetry
//! trail, and the ledger of any trail, however old, is `ledger(&trail)`.
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
use crate::telemetry::{RoundTelemetry, SCHEMA_VERSION};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::AddAssign;

/// Why a sampled client's update did not make it into the aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
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
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ClientVerdict {
    pub client_id: usize,
    /// The strategy's score for this client, when it produced one.
    pub score: Option<f32>,
    /// Not part of the aggregate this round.
    pub excluded: bool,
    /// Attribution, present iff `excluded`.
    pub cause: Option<ExclusionCause>,
    /// Per-client EWMA of the exclusion indicator after this round.
    pub suspicion: f32,
    /// Ground truth: the interceptor marked this client malicious.
    pub malicious: bool,
}

/// One round of the ledger, derived from that round's [`RoundTelemetry`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RoundForensics {
    /// [`SCHEMA_VERSION`] of the code that derived the record.
    pub schema_version: u32,
    pub round: usize,
    /// The round's audit threshold, when the strategy published one.
    pub threshold: Option<f32>,
    pub quorum_met: bool,
    /// One verdict per sampled client, ascending client id.
    pub verdicts: Vec<ClientVerdict>,
    /// Running confusion totals up to and including this round.
    pub confusion: DefenseConfusion,
    /// Running rates derived from `confusion`, duplicated for grep-ability.
    pub precision: f64,
    pub recall: f64,
    pub fpr: f64,
}

impl RoundForensics {
    /// Client ids excluded this round, ascending.
    pub fn excluded_ids(&self) -> Vec<usize> {
        self.verdicts.iter().filter(|v| v.excluded).map(|v| v.client_id).collect()
    }
}

/// EWMA coefficient of the per-client suspicion series: one exclusion
/// lifts a clean client to 0.25; four in a row to ~0.68.
pub const DEFAULT_SUSPICION_ALPHA: f32 = 0.25;

/// The ledger of a round history: [`ForensicsLedger::observe`] folded over
/// `history` in order, one record per round.
pub fn ledger(history: &[RoundTelemetry]) -> Vec<RoundForensics> {
    let mut fold = ForensicsLedger::new();
    for event in history {
        fold.observe(event);
    }
    fold.rounds
}

/// The fold behind [`ledger`]: per-client suspicion and running confusion
/// over the rounds seen so far, keeping every record.
#[derive(Clone, Debug, Default)]
pub struct ForensicsLedger {
    suspicion: BTreeMap<usize, f32>,
    confusion: DefenseConfusion,
    rounds: Vec<RoundForensics>,
}

impl ForensicsLedger {
    pub fn new() -> Self {
        Self::default()
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
    pub fn observe(&mut self, event: &RoundTelemetry) -> &RoundForensics {
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
            *s = (1.0 - DEFAULT_SUSPICION_ALPHA) * *s
                + DEFAULT_SUSPICION_ALPHA * if excluded { 1.0 } else { 0.0 };
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

        self.rounds.push(RoundForensics {
            schema_version: SCHEMA_VERSION,
            round: event.round,
            threshold: event.threshold,
            quorum_met: event.quorum_met,
            verdicts,
            confusion: self.confusion,
            precision: self.confusion.precision(),
            recall: self.confusion.recall(),
            fpr: self.confusion.fpr(),
        });
        self.rounds.last().expect("a record was just pushed")
    }

    pub fn rounds(&self) -> &[RoundForensics] {
        &self.rounds
    }
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
        let rounds = ledger(std::slice::from_ref(&ev));
        let rec = &rounds[0];
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
        let rounds = ledger(std::slice::from_ref(&ev));
        let rec = &rounds[0];
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
        let v1 = r1.verdicts.iter().find(|v| v.client_id == 1).unwrap();
        assert_eq!(v1.suspicion, (1.0 - a) * 0.0 + a);
    }
}
