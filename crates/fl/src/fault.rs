//! Fault injection and the server-side submission sanitizer.
//!
//! Real federations are messy: clients drop out mid-round, straggle past the
//! server's deadline, ship NaN/Inf-corrupted or truncated parameter vectors,
//! and re-send duplicate (often stale) submissions. The paper's evaluation —
//! like most robust-aggregation evaluations — assumes none of that happens.
//! This module gives the round loop a failure model:
//!
//! * [`FaultPlan`] — a **seeded, deterministic** per-(round, client) schedule
//!   of injected faults. The draw for `(round, client)` depends only on the
//!   plan seed, never on execution order, so a replay with the same seed
//!   reproduces the exact same fault sequence (the chaos suite asserts
//!   bit-identical round records). [`FaultPlan::inject`] applies one
//!   arrival's scheduled transit faults as it leaves the transport.
//! * [`sanitize_one`] — the server-side guard applied to every arrival,
//!   fault plan or not: non-finite and wrong-length parameter vectors are
//!   rejected before they can reach an aggregation strategy, non-finite
//!   decoders are stripped, and duplicate submissions are discarded by
//!   client id (**first valid arrival wins**, so a re-sent update can
//!   neither double-weight FedAvg nor displace the fresh one).
//!   [`sanitize_round`] runs it over a whole round in hand.
//!
//! Every incident — injected or observed — is recorded as a [`FaultEvent`]
//! and lands in the round's [`RoundTelemetry`](crate::telemetry::RoundTelemetry).

use crate::update::{ModelUpdate, UpdateRejection};
use fg_tensor::rng::{derive_seed, SeededRng};
use serde::{Deserialize, Serialize};

/// Per-(round, client) fault probabilities and the server's round deadline.
///
/// All probabilities default to zero (an ideal network); a default-constructed
/// config injects nothing.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a sampled client never responds (no submission at all).
    pub dropout_prob: f64,
    /// Probability a client's submission is delayed (a straggler).
    pub straggler_prob: f64,
    /// Maximum simulated straggler delay; actual delay ~ U(0, max).
    pub straggler_max_delay_secs: f64,
    /// Server-side round deadline: straggler submissions simulated to arrive
    /// after this many seconds are discarded as timed out.
    pub round_deadline_secs: f64,
    /// Probability a submission's parameters are corrupted to NaN/Inf.
    pub corrupt_prob: f64,
    /// Probability a submission's parameter vector arrives truncated.
    pub truncate_prob: f64,
    /// Probability a client re-sends a stale duplicate of its submission
    /// (parameters frozen at the round-start global model).
    pub duplicate_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            dropout_prob: 0.0,
            straggler_prob: 0.0,
            straggler_max_delay_secs: 1.0,
            round_deadline_secs: 0.5,
            corrupt_prob: 0.0,
            truncate_prob: 0.0,
            duplicate_prob: 0.0,
        }
    }
}

impl FaultConfig {
    /// A fault-heavy mix used by the chaos suite and the faults ablation:
    /// 30% dropout, 10% corruption, plus stragglers, truncation and
    /// duplicates at lower rates.
    pub fn chaotic() -> Self {
        FaultConfig {
            dropout_prob: 0.3,
            straggler_prob: 0.2,
            straggler_max_delay_secs: 1.0,
            round_deadline_secs: 0.5,
            corrupt_prob: 0.1,
            truncate_prob: 0.05,
            duplicate_prob: 0.1,
        }
    }
}

/// How an injected corruption mangles the parameter vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptionMode {
    Nan,
    Inf,
}

/// The faults drawn for one (round, client) submission.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SubmissionFaults {
    /// Client drops out: trains nothing, sends nothing.
    pub dropout: bool,
    /// Simulated arrival delay in seconds, when the client straggles.
    pub straggler_delay_secs: Option<f64>,
    /// Parameters corrupted to NaN/Inf before arrival.
    pub corrupt: Option<CorruptionMode>,
    /// Parameter vector truncated to this fraction of its length.
    pub truncate_fraction: Option<f64>,
    /// Client re-sends a stale duplicate after its real submission.
    pub duplicate: bool,
}

impl SubmissionFaults {
    /// True when no fault at all was drawn for this submission.
    pub fn is_clean(&self) -> bool {
        *self == SubmissionFaults::default()
    }
}

/// A seeded, deterministic schedule of injected faults.
///
/// Draws are a pure function of `(seed, round, client_id)`: parallel
/// execution, retries, and replays all see the same schedule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    config: FaultConfig,
    seed: u64,
}

impl FaultPlan {
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        FaultPlan { config, seed }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draw the faults for `client_id`'s submission in `round`.
    ///
    /// Each fault type consumes a fixed number of draws from a dedicated
    /// per-(round, client) stream, so the decisions are independent of one
    /// another and of any other submission.
    pub fn draw(&self, round: usize, client_id: usize) -> SubmissionFaults {
        let stream = (round as u64) << 32 ^ client_id as u64;
        let mut rng = SeededRng::new(derive_seed(self.seed, stream));
        // Fixed draw order; every branch consumes its draws unconditionally
        // so one knob never shifts another's stream.
        let u_drop = rng.next_f32() as f64;
        let u_straggle = rng.next_f32() as f64;
        let delay = rng.next_f32() as f64 * self.config.straggler_max_delay_secs;
        let u_corrupt = rng.next_f32() as f64;
        let corrupt_mode =
            if rng.next_f32() < 0.5 { CorruptionMode::Nan } else { CorruptionMode::Inf };
        let u_trunc = rng.next_f32() as f64;
        let trunc_frac = 0.1 + 0.8 * rng.next_f32() as f64;
        let u_dup = rng.next_f32() as f64;

        SubmissionFaults {
            dropout: u_drop < self.config.dropout_prob,
            straggler_delay_secs: (u_straggle < self.config.straggler_prob).then_some(delay),
            corrupt: (u_corrupt < self.config.corrupt_prob).then_some(corrupt_mode),
            truncate_fraction: (u_trunc < self.config.truncate_prob).then_some(trunc_frac),
            duplicate: u_dup < self.config.duplicate_prob,
        }
    }

    /// Corrupt `update`'s parameters in place per `mode`: a deterministic
    /// ~1% stride of entries (always including the first) is poisoned.
    pub fn corrupt_params(update: &mut ModelUpdate, mode: CorruptionMode) {
        let poison = match mode {
            CorruptionMode::Nan => f32::NAN,
            CorruptionMode::Inf => f32::INFINITY,
        };
        let stride = (update.params.len() / 100).max(1);
        let mut i = 0;
        while i < update.params.len() {
            update.params[i] = poison;
            i += stride;
        }
    }

    /// Apply `arrival`'s scheduled transit faults for `round`: corrupt /
    /// truncate the vector, queue a stale duplicate, and apply the straggler
    /// deadline. Returns what reaches the server — the (possibly mangled)
    /// original unless it timed out, and the stale duplicate if one was
    /// scheduled, which the caller delivers after every original. `global`
    /// is the round-start model, the duplicate's frozen payload.
    pub fn inject(
        &self,
        round: usize,
        mut update: ModelUpdate,
        global: &[f32],
        events: &mut Vec<FaultEvent>,
    ) -> (Option<ModelUpdate>, Option<ModelUpdate>) {
        let id = update.client_id;
        let f = self.draw(round, id);
        if f.is_clean() {
            return (Some(update), None);
        }
        if let Some(mode) = f.corrupt {
            FaultPlan::corrupt_params(&mut update, mode);
            events.push(FaultEvent::new(id, FaultKind::Corrupted { mode }));
        }
        if let Some(frac) = f.truncate_fraction {
            let kept = ((update.params.len() as f64 * frac) as usize).max(1);
            update.params.truncate(kept);
            events.push(FaultEvent::new(id, FaultKind::Truncated { kept }));
        }
        // A retransmission frozen at the round-start global model; it goes
        // over the wire even if the original times out.
        let stale = f.duplicate.then(|| {
            events.push(FaultEvent::new(id, FaultKind::DuplicateSubmission));
            ModelUpdate {
                client_id: id,
                params: global.to_vec(),
                num_samples: update.num_samples,
                decoder: update.decoder.clone(),
                class_coverage: update.class_coverage.clone(),
            }
        });
        if let Some(delay_secs) = f.straggler_delay_secs {
            if delay_secs > self.config.round_deadline_secs {
                events.push(FaultEvent::new(id, FaultKind::StragglerTimeout { delay_secs }));
                return (None, stale);
            }
            events.push(FaultEvent::new(id, FaultKind::StragglerLate { delay_secs }));
        }
        (Some(update), stale)
    }
}

/// One fault incident in one round — either injected by the [`FaultPlan`]
/// (ground truth of what the chaos layer did) or observed by the server's
/// sanitizer (how the round loop degraded). Recorded in
/// [`RoundTelemetry::faults`](crate::telemetry::RoundTelemetry::faults).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The client whose submission the incident concerns.
    pub client_id: usize,
    pub kind: FaultKind,
}

impl FaultEvent {
    pub fn new(client_id: usize, kind: FaultKind) -> Self {
        FaultEvent { client_id, kind }
    }
}

/// What happened. `Dropout`/`Straggler*`/`Corrupted`/`Truncated`/
/// `DuplicateSubmission` are injection-side ground truth; `Rejected*`,
/// `DuplicateDiscarded` and `DecoderStripped` are the server sanitizer's
/// observed actions (they fire for organically malformed submissions too,
/// e.g. an attack that NaN-poisons an update).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Client never responded; no submission this round.
    Dropout,
    /// Submission simulated to arrive after the round deadline; discarded.
    StragglerTimeout { delay_secs: f64 },
    /// Submission was slow but within the deadline; kept.
    StragglerLate { delay_secs: f64 },
    /// Injected NaN/Inf corruption of the parameter vector.
    Corrupted { mode: CorruptionMode },
    /// Injected truncation of the parameter vector.
    Truncated { kept: usize },
    /// Injected stale duplicate submission (arrives after the original).
    DuplicateSubmission,
    /// Sanitizer rejected a submission with non-finite parameters.
    RejectedNonFinite,
    /// Sanitizer rejected a submission whose parameter vector has the wrong
    /// length.
    RejectedWrongLength { got: usize, expected: usize },
    /// Sanitizer discarded a later copy of an already admitted client id
    /// (first valid arrival wins).
    DuplicateDiscarded,
    /// Sanitizer stripped a non-finite CVAE decoder but kept the update.
    DecoderStripped,
    /// A networked client's frame failed to decode (bad magic, unknown kind,
    /// truncated or structurally invalid payload); the submission is lost.
    FrameMalformed { detail: String },
    /// A networked client declared a frame larger than the transport's
    /// configured cap; rejected before allocation, the submission is lost.
    FrameOversized { declared: u64, cap: u64 },
}

impl FaultKind {
    /// True for incidents that remove a submission from the round (the
    /// client cannot appear in the survivor roster afterwards... unless
    /// another copy of the same client's submission survives).
    pub fn discards_submission(&self) -> bool {
        matches!(
            self,
            FaultKind::Dropout
                | FaultKind::StragglerTimeout { .. }
                | FaultKind::RejectedNonFinite
                | FaultKind::RejectedWrongLength { .. }
                | FaultKind::DuplicateDiscarded
                | FaultKind::FrameMalformed { .. }
                | FaultKind::FrameOversized { .. }
        )
    }
}

/// Server-side sanitization of one arrival.
///
/// Validates the update against the expected parameter length and
/// finiteness (rejects emit [`FaultKind::RejectedNonFinite`] /
/// [`FaultKind::RejectedWrongLength`]), strips a non-finite decoder
/// ([`FaultKind::DecoderStripped`]), then discards it if `admitted` already
/// holds its client id ([`FaultKind::DuplicateDiscarded`]) — the **first**
/// valid arrival per client wins, so a rejected original never blocks a
/// valid retransmission. Returns the arrival if it survives, having
/// appended its id to `admitted`.
pub fn sanitize_one(
    mut arrival: ModelUpdate,
    expected_len: usize,
    admitted: &mut Vec<usize>,
    events: &mut Vec<FaultEvent>,
) -> Option<ModelUpdate> {
    let id = arrival.client_id;
    match arrival.validate(expected_len) {
        Err(UpdateRejection::NonFinite) => {
            events.push(FaultEvent::new(id, FaultKind::RejectedNonFinite));
            return None;
        }
        Err(UpdateRejection::WrongLength { got, expected }) => {
            events.push(FaultEvent::new(id, FaultKind::RejectedWrongLength { got, expected }));
            return None;
        }
        Ok(()) => {}
    }
    if arrival.strip_non_finite_decoder() {
        events.push(FaultEvent::new(id, FaultKind::DecoderStripped));
    }
    if admitted.contains(&id) {
        events.push(FaultEvent::new(id, FaultKind::DuplicateDiscarded));
        return None;
    }
    admitted.push(id);
    Some(arrival)
}

/// [`sanitize_one`] over one round's arrived submissions, in arrival order;
/// survivors are returned sorted by client id.
pub fn sanitize_round(
    arrived: Vec<ModelUpdate>,
    expected_len: usize,
    events: &mut Vec<FaultEvent>,
) -> Vec<ModelUpdate> {
    let mut admitted = Vec::with_capacity(arrived.len());
    let mut survivors = Vec::with_capacity(arrived.len());
    for update in arrived {
        survivors.extend(sanitize_one(update, expected_len, &mut admitted, events));
    }
    survivors.sort_by_key(|u| u.client_id);
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(id: usize, params: Vec<f32>) -> ModelUpdate {
        ModelUpdate { client_id: id, params, num_samples: 1, decoder: None, class_coverage: None }
    }

    #[test]
    fn draws_are_deterministic_and_order_free() {
        let plan = FaultPlan::new(FaultConfig::chaotic(), 7);
        let a = plan.draw(3, 12);
        // Interleave unrelated draws; (3, 12) must not change.
        let _ = plan.draw(0, 0);
        let _ = plan.draw(9, 12);
        assert_eq!(a, plan.draw(3, 12));
        assert_eq!(plan.draw(3, 12), FaultPlan::new(FaultConfig::chaotic(), 7).draw(3, 12));
    }

    #[test]
    fn distinct_seeds_give_distinct_schedules() {
        let cfg = FaultConfig::chaotic();
        let a = FaultPlan::new(cfg, 1);
        let b = FaultPlan::new(cfg, 2);
        let differs = (0..50).any(|c| a.draw(0, c) != b.draw(0, c));
        assert!(differs, "seeds 1 and 2 produced identical 50-client schedules");
    }

    #[test]
    fn quiet_config_never_draws_a_fault() {
        let plan = FaultPlan::new(FaultConfig::default(), 99);
        for round in 0..5 {
            for client in 0..20 {
                assert!(plan.draw(round, client).is_clean());
            }
        }
    }

    #[test]
    fn chaotic_config_hits_roughly_its_probabilities() {
        let plan = FaultPlan::new(FaultConfig::chaotic(), 5);
        let n = 2000;
        let drops = (0..n).filter(|&c| plan.draw(0, c).dropout).count();
        let frac = drops as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.05, "dropout rate {frac}");
    }

    #[test]
    fn corruption_poisons_params() {
        let mut u = update(0, vec![1.0; 250]);
        FaultPlan::corrupt_params(&mut u, CorruptionMode::Nan);
        assert!(u.is_non_finite());
        assert!(u.params[0].is_nan());
        let mut v = update(0, vec![1.0; 3]);
        FaultPlan::corrupt_params(&mut v, CorruptionMode::Inf);
        assert!(v.params.iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn inject_mangles_the_original_and_queues_a_stale_duplicate() {
        let global = vec![1.0, 2.0, 3.0, 4.0];
        let arrival = || update(3, vec![1.0, 2.5, 3.0, 4.0]);
        // Nothing scheduled: the arrival passes through as it came.
        let mut events = Vec::new();
        let quiet = FaultPlan::new(FaultConfig::default(), 1);
        assert_eq!(quiet.inject(0, arrival(), &global, &mut events), (Some(arrival()), None));
        assert!(events.is_empty());

        // A late straggler is kept, untouched.
        let late = FaultConfig {
            straggler_prob: 1.0,
            round_deadline_secs: f64::INFINITY,
            ..FaultConfig::default()
        };
        let (original, stale) = FaultPlan::new(late, 1).inject(0, arrival(), &global, &mut events);
        assert_eq!(original, Some(arrival()));
        assert_eq!(stale, None);
        assert!(matches!(events[..], [FaultEvent { kind: FaultKind::StragglerLate { .. }, .. }]));

        // Everything at once, past the deadline: the mangled original is
        // lost, its stale retransmission still goes over the wire.
        let all = FaultConfig {
            straggler_prob: 1.0,
            round_deadline_secs: -1.0,
            corrupt_prob: 1.0,
            truncate_prob: 1.0,
            duplicate_prob: 1.0,
            ..FaultConfig::default()
        };
        events.clear();
        let (original, stale) = FaultPlan::new(all, 1).inject(0, arrival(), &global, &mut events);
        assert_eq!(original, None);
        let stale = stale.expect("duplicate scheduled");
        assert_eq!(stale, update(3, global.clone()));
        assert!(matches!(
            events.iter().map(|e| &e.kind).collect::<Vec<_>>()[..],
            [
                FaultKind::Corrupted { .. },
                FaultKind::Truncated { .. },
                FaultKind::DuplicateSubmission,
                FaultKind::StragglerTimeout { .. },
            ]
        ));
    }

    #[test]
    fn sanitizer_rejects_non_finite_and_wrong_length() {
        let mut events = Vec::new();
        let arrived = vec![
            update(0, vec![1.0, 2.0]),
            update(1, vec![f32::NAN, 0.0]),
            update(2, vec![1.0]), // truncated
            update(3, vec![0.5, f32::INFINITY]),
        ];
        let survivors = sanitize_round(arrived, 2, &mut events);
        let ids: Vec<usize> = survivors.iter().map(|u| u.client_id).collect();
        assert_eq!(ids, vec![0]);
        assert_eq!(
            events,
            vec![
                FaultEvent::new(1, FaultKind::RejectedNonFinite),
                FaultEvent::new(2, FaultKind::RejectedWrongLength { got: 1, expected: 2 }),
                FaultEvent::new(3, FaultKind::RejectedNonFinite),
            ]
        );
        assert!(events.iter().all(|e| e.kind.discards_submission()));
    }

    #[test]
    fn dedup_keeps_first_valid_arrival() {
        let mut events = Vec::new();
        let arrived = vec![
            update(5, vec![1.0, 1.0]),
            update(4, vec![2.0, 2.0]),
            update(5, vec![9.0, 9.0]), // later duplicate loses
        ];
        let survivors = sanitize_round(arrived, 2, &mut events);
        assert_eq!(survivors.len(), 2);
        assert_eq!(survivors[0].client_id, 4);
        assert_eq!(survivors[1].client_id, 5);
        assert_eq!(survivors[1].params, vec![1.0, 1.0]);
        assert_eq!(events, vec![FaultEvent::new(5, FaultKind::DuplicateDiscarded)]);
    }

    #[test]
    fn valid_duplicate_survives_a_rejected_original() {
        let mut events = Vec::new();
        let arrived = vec![update(7, vec![f32::NAN, 0.0]), update(7, vec![1.0, 1.0])];
        let survivors = sanitize_round(arrived, 2, &mut events);
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].params, vec![1.0, 1.0]);
        assert_eq!(events, vec![FaultEvent::new(7, FaultKind::RejectedNonFinite)]);
    }

    #[test]
    fn invalid_duplicate_does_not_displace_valid_original() {
        let mut events = Vec::new();
        let arrived = vec![update(7, vec![1.0, 1.0]), update(7, vec![f32::NAN, 0.0])];
        let survivors = sanitize_round(arrived, 2, &mut events);
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].params, vec![1.0, 1.0]);
        assert_eq!(events, vec![FaultEvent::new(7, FaultKind::RejectedNonFinite)]);
    }

    #[test]
    fn non_finite_decoder_is_stripped_not_fatal() {
        let mut events = Vec::new();
        let mut u = update(2, vec![1.0, 2.0]);
        u.decoder = Some(vec![0.0, f32::NAN]);
        let survivors = sanitize_round(vec![u], 2, &mut events);
        assert_eq!(survivors.len(), 1);
        assert!(survivors[0].decoder.is_none());
        assert_eq!(events, vec![FaultEvent::new(2, FaultKind::DecoderStripped)]);
        assert!(!events[0].kind.discards_submission());
    }

    #[test]
    fn fault_events_round_trip_through_json() {
        let events = vec![
            FaultEvent::new(0, FaultKind::Dropout),
            FaultEvent::new(1, FaultKind::StragglerTimeout { delay_secs: 0.75 }),
            FaultEvent::new(2, FaultKind::StragglerLate { delay_secs: 0.25 }),
            FaultEvent::new(3, FaultKind::Corrupted { mode: CorruptionMode::Nan }),
            FaultEvent::new(4, FaultKind::Truncated { kept: 10 }),
            FaultEvent::new(5, FaultKind::DuplicateSubmission),
            FaultEvent::new(6, FaultKind::RejectedWrongLength { got: 1, expected: 2 }),
            FaultEvent::new(7, FaultKind::DuplicateDiscarded),
            FaultEvent::new(8, FaultKind::FrameMalformed { detail: "bad magic".to_string() }),
            FaultEvent::new(9, FaultKind::FrameOversized { declared: 1 << 40, cap: 1 << 26 }),
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<FaultEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
    }
}
