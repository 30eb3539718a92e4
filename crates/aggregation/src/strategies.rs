//! [`AggregationStrategy`] adapters for the pure operators in [`crate::ops`].

use crate::ops;
use crate::streaming::StreamingFedAvg;
use fg_fl::{
    AggregationContext, AggregationOutcome, AggregationStrategy, ModelUpdate, StreamingAggregator,
};

fn param_refs(updates: &[ModelUpdate]) -> Vec<&[f32]> {
    updates.iter().map(|u| u.params.as_slice()).collect()
}

fn all_ids(updates: &[ModelUpdate]) -> Vec<usize> {
    updates.iter().map(|u| u.client_id).collect()
}

/// FedAvg (the paper's undefended baseline): sample-count-weighted averaging.
///
/// Rounds fold through [`StreamingFedAvg`]; `aggregate` is the buffered
/// reference the fold is pinned to bit-for-bit (`streaming_equivalence`, and
/// the buffered oracles in `tests/chaos.rs` and `tests/net_equivalence.rs`).
#[derive(Default)]
pub struct FedAvgStrategy;

impl AggregationStrategy for FedAvgStrategy {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        _ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        let refs = param_refs(updates);
        let counts: Vec<usize> = updates.iter().map(|u| u.num_samples).collect();
        AggregationOutcome::new(ops::fedavg(&refs, &counts), all_ids(updates))
    }

    fn begin_streaming(
        &mut self,
        dim: usize,
        roster: &[usize],
    ) -> Option<Box<dyn StreamingAggregator>> {
        Some(Box::new(StreamingFedAvg::new(dim, roster)))
    }
}

/// GeoMed: geometric median of the updates (Weiszfeld iterations).
pub struct GeoMedStrategy {
    pub max_iters: usize,
    pub tol: f32,
}

impl Default for GeoMedStrategy {
    fn default() -> Self {
        GeoMedStrategy { max_iters: 100, tol: 1e-6 }
    }
}

impl AggregationStrategy for GeoMedStrategy {
    fn name(&self) -> &'static str {
        "GeoMed"
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        _ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        let refs = param_refs(updates);
        // The geometric median is a synthesis of all updates rather than a
        // selection; report all contributors.
        AggregationOutcome::new(
            ops::geometric_median(&refs, self.max_iters, self.tol),
            all_ids(updates),
        )
    }
}

/// Krum: select the single update closest to its n−f−2 nearest neighbours.
pub struct KrumStrategy {
    /// Assumed number of Byzantine clients `f` among the sampled `m`.
    pub assumed_byzantine: usize,
}

impl KrumStrategy {
    pub fn new(assumed_byzantine: usize) -> Self {
        KrumStrategy { assumed_byzantine }
    }
}

impl AggregationStrategy for KrumStrategy {
    fn name(&self) -> &'static str {
        "Krum"
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        _ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        let refs = param_refs(updates);
        let scores = ops::krum_scores(&refs, self.assumed_byzantine);
        let (params, idx) = ops::krum(&refs, self.assumed_byzantine);
        AggregationOutcome::new(params, vec![updates[idx].client_id])
            .with_scores(updates.iter().zip(&scores).map(|(u, &s)| (u.client_id, s)).collect())
    }
}

/// Multi-Krum: average the `c` lowest-scoring updates (less brittle than
/// plain Krum's single selection, same distance machinery).
pub struct MultiKrumStrategy {
    pub assumed_byzantine: usize,
    /// Number of updates averaged.
    pub select: usize,
}

impl MultiKrumStrategy {
    pub fn new(assumed_byzantine: usize, select: usize) -> Self {
        assert!(select >= 1, "must select at least one update");
        MultiKrumStrategy { assumed_byzantine, select }
    }
}

impl AggregationStrategy for MultiKrumStrategy {
    fn name(&self) -> &'static str {
        "MultiKrum"
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        _ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        let refs = param_refs(updates);
        let c = self.select.min(updates.len());
        let (params, chosen) = ops::multi_krum(&refs, self.assumed_byzantine, c);
        AggregationOutcome::new(params, chosen.into_iter().map(|i| updates[i].client_id).collect())
    }
}

/// Coordinate-wise median (robust-aggregation ablation).
#[derive(Default)]
pub struct MedianStrategy;

impl AggregationStrategy for MedianStrategy {
    fn name(&self) -> &'static str {
        "Median"
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        _ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        let refs = param_refs(updates);
        AggregationOutcome::new(ops::coordinate_median(&refs), all_ids(updates))
    }
}

/// Coordinate-wise trimmed mean (robust-aggregation ablation).
pub struct TrimmedMeanStrategy {
    /// Values trimmed from each end per coordinate; clamped so at least one
    /// update always survives.
    pub trim: usize,
}

impl TrimmedMeanStrategy {
    pub fn new(trim: usize) -> Self {
        TrimmedMeanStrategy { trim }
    }
}

impl AggregationStrategy for TrimmedMeanStrategy {
    fn name(&self) -> &'static str {
        "TrimmedMean"
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        _ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        let refs = param_refs(updates);
        let trim = self.trim.min((updates.len().saturating_sub(1)) / 2);
        AggregationOutcome::new(ops::trimmed_mean_vectors(&refs, trim), all_ids(updates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_tensor::rng::SeededRng;

    fn update(id: usize, params: Vec<f32>, n: usize) -> ModelUpdate {
        ModelUpdate { client_id: id, params, num_samples: n, decoder: None, class_coverage: None }
    }

    fn ctx(global: &[f32]) -> AggregationContext<'_> {
        AggregationContext { round: 0, global, rng: SeededRng::new(0) }
    }

    #[test]
    fn fedavg_strategy_weights() {
        let updates = vec![update(0, vec![0.0, 0.0], 1), update(1, vec![3.0, 3.0], 2)];
        let mut s = FedAvgStrategy;
        let out = s.aggregate(&updates, &mut ctx(&[0.0, 0.0]));
        assert_eq!(out.params, vec![2.0, 2.0]);
        assert_eq!(out.selected, vec![0, 1]);
    }

    #[test]
    fn krum_strategy_reports_scores_and_single_selection() {
        let updates = vec![
            update(10, vec![0.0, 0.0], 1),
            update(11, vec![0.1, 0.0], 1),
            update(12, vec![0.0, 0.1], 1),
            update(13, vec![9.0, 9.0], 1),
        ];
        let mut s = KrumStrategy::new(1);
        let out = s.aggregate(&updates, &mut ctx(&[0.0, 0.0]));
        assert_eq!(out.selected.len(), 1);
        assert_ne!(out.selected[0], 13);
        assert_eq!(out.scores.len(), 4);
    }

    #[test]
    fn geomed_strategy_resists_outlier() {
        let updates = vec![
            update(0, vec![0.0, 0.0], 1),
            update(1, vec![0.1, 0.1], 1),
            update(2, vec![0.05, 0.0], 1),
            update(3, vec![100.0, 100.0], 1),
        ];
        let mut s = GeoMedStrategy::default();
        let out = s.aggregate(&updates, &mut ctx(&[0.0, 0.0]));
        assert!(out.params[0] < 1.0);
    }

    #[test]
    fn median_and_trimmed_mean_strategies() {
        let updates =
            vec![update(0, vec![1.0], 1), update(1, vec![2.0], 1), update(2, vec![100.0], 1)];
        assert_eq!(MedianStrategy.aggregate(&updates, &mut ctx(&[0.0])).params, vec![2.0]);
        assert_eq!(
            TrimmedMeanStrategy::new(1).aggregate(&updates, &mut ctx(&[0.0])).params,
            vec![2.0]
        );
    }

    #[test]
    fn multi_krum_averages_cluster_and_skips_outlier() {
        let updates = vec![
            update(0, vec![0.0, 0.0], 1),
            update(1, vec![0.2, 0.0], 1),
            update(2, vec![0.0, 0.2], 1),
            update(3, vec![50.0, 50.0], 1),
        ];
        let mut s = MultiKrumStrategy::new(1, 2);
        let out = s.aggregate(&updates, &mut ctx(&[0.0, 0.0]));
        assert_eq!(out.selected.len(), 2);
        assert!(!out.selected.contains(&3));
        assert!(out.params[0] < 1.0);
    }

    #[test]
    fn multi_krum_clamps_selection_to_round_size() {
        let updates = vec![update(0, vec![1.0], 1)];
        let out = MultiKrumStrategy::new(0, 5).aggregate(&updates, &mut ctx(&[0.0]));
        assert_eq!(out.params, vec![1.0]);
    }

    #[test]
    fn trimmed_mean_clamps_trim_for_tiny_rounds() {
        let updates = vec![update(0, vec![5.0], 1)];
        let out = TrimmedMeanStrategy::new(3).aggregate(&updates, &mut ctx(&[0.0]));
        assert_eq!(out.params, vec![5.0]);
    }
}
