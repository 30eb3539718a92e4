//! The pluggable aggregation-strategy interface.

use crate::update::ModelUpdate;
use fg_tensor::rng::SeededRng;

/// Per-round context handed to the aggregation strategy.
pub struct AggregationContext<'a> {
    /// Current federated round (0-based).
    pub round: usize,
    /// The global parameters `ψ₀` the round started from.
    pub global: &'a [f32],
    /// Round-scoped RNG (derived from the federation seed), for strategies
    /// with stochastic components — FedGuard's latent / conditioning samples.
    pub rng: SeededRng,
}

/// Wall-clock seconds a strategy spent in its internal phases, self-reported
/// through [`AggregationOutcome::with_timings`]. The federation subtracts
/// these from the measured `aggregate()` time to attribute the remainder to
/// inner aggregation in the round's
/// [`StageTimings`](crate::telemetry::StageTimings).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StrategyTimings {
    /// Server-side synthesis of the audit dataset from client decoders.
    pub synthesis_secs: f64,
    /// Per-client scoring/auditing of the submitted updates.
    pub audit_secs: f64,
}

/// What a strategy produced for the round: the aggregate itself plus the
/// selection diagnostics that used to live in strategy-private state
/// (formerly `FedGuardStrategy::last_trace()`).
#[derive(Clone, Debug)]
pub struct AggregationOutcome {
    /// The aggregated parameter vector (before the server learning rate is
    /// applied by the federation).
    pub params: Vec<f32>,
    /// Client ids whose updates were included in the aggregate.
    pub selected: Vec<usize>,
    /// Optional per-client diagnostic scores (meaning is strategy-specific:
    /// validation accuracy for FedGuard, reconstruction error for Spectral,
    /// Krum scores for Krum...).
    pub scores: Vec<(usize, f32)>,
    /// The selection threshold the strategy applied to `scores`, when it
    /// used one (FedGuard/Spectral: the round-mean score).
    pub threshold: Option<f32>,
    /// Self-reported internal phase timings (zero for strategies without a
    /// synthesis/audit phase).
    pub timings: StrategyTimings,
}

impl AggregationOutcome {
    /// Outcome with no diagnostics.
    pub fn new(params: Vec<f32>, selected: Vec<usize>) -> Self {
        AggregationOutcome {
            params,
            selected,
            scores: Vec::new(),
            threshold: None,
            timings: StrategyTimings::default(),
        }
    }

    /// Attach per-client diagnostic scores.
    pub fn with_scores(mut self, scores: Vec<(usize, f32)>) -> Self {
        self.scores = scores;
        self
    }

    /// Attach the selection threshold applied to the scores.
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Attach self-measured synthesis/audit timings.
    pub fn with_timings(mut self, timings: StrategyTimings) -> Self {
        self.timings = timings;
        self
    }
}

/// An aggregation strategy: FedAvg, GeoMed, Krum, Spectral, FedGuard, ...
///
/// Strategies receive every submitted update (possibly corrupted by the
/// attack interceptor) and must produce the next global parameter vector.
/// `updates` is never empty.
pub trait AggregationStrategy: Send {
    /// Human-readable name used in reports and tables.
    fn name(&self) -> &'static str;

    /// Combine the round's updates.
    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome;

    /// Whether this strategy consumes the clients' CVAE decoders (drives both
    /// client-side CVAE training and communication accounting).
    fn uses_decoders(&self) -> bool {
        false
    }

    /// Open a streaming accumulator for a round, or `None` (the default) if
    /// this strategy can only aggregate a materialized batch (Krum's
    /// pairwise distances, order statistics, FedGuard's audit). The round
    /// loop asks once per round: with `Some` it folds every sanitized
    /// arrival into the aggregator, with `None` it buffers the survivors and
    /// calls [`aggregate`](AggregationStrategy::aggregate). `roster` is the
    /// round's active client ids in ascending order — the canonical slot
    /// order every transport delivers and the order the streaming fold is
    /// keyed to, so results are independent of arrival order (a faulted
    /// round may deliver only a subset of the roster, and a stale duplicate
    /// out of order). A `Some` aggregator must produce the same
    /// `AggregationOutcome` `aggregate` would, bit-identical params
    /// included: which of the two runs is not observable in a run's results.
    fn begin_streaming(
        &mut self,
        dim: usize,
        roster: &[usize],
    ) -> Option<Box<dyn StreamingAggregator>> {
        let _ = (dim, roster);
        None
    }
}

/// An in-flight O(d)-memory aggregation: updates fold in one at a time as
/// the transport delivers them, instead of being materialized as a batch.
///
/// Contract: the caller sanitizes first ([`crate::fault::sanitize_one`]:
/// length/finiteness validation, duplicate discard) and pushes each
/// surviving update exactly once; every pushed `client_id` must be on the
/// roster `begin_streaming` was given. `finalize` returns `None` when
/// nothing was pushed (a below-quorum round discards the accumulator
/// without finalizing).
pub trait StreamingAggregator: Send {
    /// Fold one sanitized update into the accumulator.
    fn push(&mut self, update: &ModelUpdate);

    /// High-water mark of the aggregator's transient residency in bytes
    /// (accumulators + any out-of-order reorder buffer), for the
    /// `fl.agg.peak_bytes` gauge.
    fn peak_bytes(&self) -> u64;

    /// Complete the round: the outcome the batch path would have produced,
    /// or `None` if no updates were pushed.
    fn finalize(self: Box<Self>) -> Option<AggregationOutcome>;
}

/// Boxes forward, so `FederationBuilder::strategy` accepts either a plain
/// strategy value or a `Box<dyn AggregationStrategy>` (as returned by
/// `fedguard::experiment::build_strategy`).
impl<S: AggregationStrategy + ?Sized> AggregationStrategy for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        (**self).aggregate(updates, ctx)
    }

    fn uses_decoders(&self) -> bool {
        (**self).uses_decoders()
    }

    fn begin_streaming(
        &mut self,
        dim: usize,
        roster: &[usize],
    ) -> Option<Box<dyn StreamingAggregator>> {
        (**self).begin_streaming(dim, roster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TakeFirst;

    impl AggregationStrategy for TakeFirst {
        fn name(&self) -> &'static str {
            "take-first"
        }

        fn aggregate(
            &mut self,
            updates: &[ModelUpdate],
            _ctx: &mut AggregationContext<'_>,
        ) -> AggregationOutcome {
            AggregationOutcome::new(updates[0].params.clone(), vec![updates[0].client_id])
        }
    }

    #[test]
    fn strategies_are_object_safe() {
        let mut s: Box<dyn AggregationStrategy> = Box::new(TakeFirst);
        let updates = vec![ModelUpdate {
            client_id: 7,
            params: vec![1.0, 2.0],
            num_samples: 3,
            decoder: None,
            class_coverage: None,
        }];
        let mut ctx = AggregationContext { round: 0, global: &[0.0, 0.0], rng: SeededRng::new(0) };
        let out = s.aggregate(&updates, &mut ctx);
        assert_eq!(out.params, vec![1.0, 2.0]);
        assert_eq!(out.selected, vec![7]);
        assert!(!s.uses_decoders());
    }

    #[test]
    fn outcome_builders_attach_diagnostics() {
        let out = AggregationOutcome::new(vec![0.0], vec![1])
            .with_scores(vec![(1, 0.9), (2, 0.2)])
            .with_threshold(0.55)
            .with_timings(StrategyTimings { synthesis_secs: 0.1, audit_secs: 0.2 });
        assert_eq!(out.scores.len(), 2);
        assert_eq!(out.threshold, Some(0.55));
        assert!((out.timings.audit_secs - 0.2).abs() < 1e-12);
        // Plain new() carries no diagnostics.
        let plain = AggregationOutcome::new(vec![0.0], vec![1]);
        assert!(plain.scores.is_empty());
        assert_eq!(plain.threshold, None);
        assert_eq!(plain.timings, StrategyTimings::default());
    }

    #[test]
    fn boxed_strategies_forward() {
        let mut s = Box::new(TakeFirst);
        assert_eq!(AggregationStrategy::name(&s), "take-first");
        let updates = vec![ModelUpdate {
            client_id: 1,
            params: vec![3.0],
            num_samples: 1,
            decoder: None,
            class_coverage: None,
        }];
        let mut ctx = AggregationContext { round: 0, global: &[0.0], rng: SeededRng::new(0) };
        assert_eq!(s.aggregate(&updates, &mut ctx).selected, vec![1]);
    }
}
