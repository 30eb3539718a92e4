//! FedGuard's selective parameter aggregation operator (paper §III-B,
//! Algorithm 1 lines 1-7).

use crate::synthesis::{synthesize_validation_set, DecoderSubmission, SynthesisBudget};
use fg_agg::ops::{coordinate_median, fedavg, geometric_median};
use fg_fl::{
    AggregationContext, AggregationOutcome, AggregationStrategy, ModelUpdate, StrategyTimings,
};
use fg_nn::models::{BatchedClassifier, Classifier, ClassifierSpec, CvaeSpec};
use fg_obs::span::timed_span;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The aggregation operator FedGuard applies to the *selected* updates
/// (Alg. 1 line 7 uses FedAvg; §VI-C proposes swapping in more robust
/// operators, which this reproduction implements as an extension).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum InnerAggregator {
    /// Sample-count-weighted mean (the paper's operator).
    #[default]
    FedAvg,
    /// Geometric median over the selected updates.
    GeoMed,
    /// Coordinate-wise median over the selected updates.
    Median,
}

impl InnerAggregator {
    /// Combine the kept updates.
    fn combine(&self, refs: &[&[f32]], counts: &[usize]) -> Vec<f32> {
        match self {
            InnerAggregator::FedAvg => fedavg(refs, counts),
            InnerAggregator::GeoMed => geometric_median(refs, 100, 1e-6),
            InnerAggregator::Median => coordinate_median(refs),
        }
    }
}

/// How many models the audit stage (Alg. 1 line 5) puts in one launch.
///
/// Both run the one classifier engine and produce **bitwise identical**
/// scores: a kernel's one-group call is its grouped call's first group, and
/// groups write disjoint output slabs (`fg_nn::models::BatchedClassifier`);
/// `tests/schedule_invariance.rs` and `crates/nn/tests/batched_props.rs`
/// pin the equality. `Sequential` is the same engine at one model per
/// launch, not an independent oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditMode {
    /// One grouped kernel launch per layer across all audited models,
    /// every model reading the same validation batch — the fast path.
    #[default]
    Batched,
    /// Per-model `Classifier::from_params` + `evaluate`: one model per
    /// launch.
    Sequential,
}

/// FedGuard's knobs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FedGuardConfig {
    /// Architecture of the federated classifier (needed to rebuild `f_ψ`
    /// from each flat update for auditing).
    pub classifier: ClassifierSpec,
    /// Architecture of the clients' CVAEs (needed to rebuild decoders).
    pub cvae: CvaeSpec,
    /// Synthetic-sample budget `t`.
    pub budget: SynthesisBudget,
    /// Categorical parameter `α` over classes; `None` = uniform `1/L`.
    pub class_probs: Option<Vec<f32>>,
    /// Batch size for server-side auditing.
    pub eval_batch: usize,
    /// Aggregation operator applied to the selected updates (§VI-C).
    pub inner: InnerAggregator,
    /// Condition each decoder only on classes it was trained on (§VI-B
    /// extension for heterogeneous clients). Off = the paper's protocol.
    pub coverage_aware: bool,
    /// Audit scorer implementation. Defaults to [`AuditMode::Batched`]
    /// (bitwise-equal fast path).
    #[serde(default)]
    pub audit: AuditMode,
}

impl FedGuardConfig {
    /// The paper's §IV-D configuration for `m` sampled clients: `t = 2m`
    /// total samples, uniform class distribution.
    pub fn paper(classifier: ClassifierSpec, m: usize) -> Self {
        FedGuardConfig {
            classifier,
            cvae: CvaeSpec::table_iii(),
            budget: SynthesisBudget::paper(m),
            class_probs: None,
            eval_batch: 64,
            inner: InnerAggregator::FedAvg,
            coverage_aware: false,
            audit: AuditMode::Batched,
        }
    }
}

/// The FedGuard aggregation strategy.
///
/// Per round:
/// 1. collect the active clients' decoders `θ_{j∈J}` from their updates,
/// 2. synthesize the validation set `D_syn` (Alg. 1 lines 2-4),
/// 3. score every client's classifier on `D_syn` (line 5),
/// 4. keep clients with accuracy ≥ the round mean (line 6),
/// 5. FedAvg the kept updates (line 7).
///
/// Per-round diagnostics (audit scores, selection threshold, synthesis and
/// audit wall time) are reported through the returned
/// [`AggregationOutcome`], which the federation forwards to telemetry
/// observers.
///
/// The server learning rate of Fig. 5 is applied by the federation loop
/// (`FederationConfig::server_lr`), orthogonal to this operator.
pub struct FedGuardStrategy {
    config: FedGuardConfig,
}

impl FedGuardStrategy {
    /// Panics on `eval_batch: 0` (an audit mini-batch that never advances).
    pub fn new(config: FedGuardConfig) -> Self {
        assert!(config.eval_batch > 0, "FedGuardConfig: eval_batch must be positive");
        FedGuardStrategy { config }
    }

    pub fn config(&self) -> &FedGuardConfig {
        &self.config
    }
}

impl AggregationStrategy for FedGuardStrategy {
    fn name(&self) -> &'static str {
        "FedGuard"
    }

    fn uses_decoders(&self) -> bool {
        true
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        // Degenerate round: a single survivor has no peers to be audited
        // against (the mean-threshold selection would trivially keep it).
        // Skip synthesis entirely and pass it through.
        if updates.len() == 1 {
            let u = &updates[0];
            return AggregationOutcome::new(u.params.clone(), vec![u.client_id]);
        }

        // (1) Gather decoders. Every FedGuard client ships one; tolerate
        // missing decoders (a malformed submission) by auditing with the
        // rest. Non-finite decoders would poison every synthesized sample
        // they condition, so they are skipped too (the federation sanitizer
        // strips them upstream; this guards standalone use).
        let decoders: Vec<DecoderSubmission<'_>> = updates
            .iter()
            .filter_map(|u| {
                u.decoder.as_deref().filter(|theta| theta.iter().all(|x| x.is_finite())).map(
                    |theta| DecoderSubmission {
                        client_id: u.client_id,
                        theta,
                        coverage: u.class_coverage.as_deref(),
                    },
                )
            })
            .collect();

        if decoders.is_empty() {
            // No decoder reached the server: nothing to audit with. Fall
            // back to FedAvg over everything rather than stall the round.
            let refs: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
            let counts: Vec<usize> = updates.iter().map(|u| u.num_samples).collect();
            return AggregationOutcome::new(
                fedavg(&refs, &counts),
                updates.iter().map(|u| u.client_id).collect(),
            );
        }

        // (2) Synthesize D_syn.
        let stage = timed_span("round.synthesis");
        let d_syn = synthesize_validation_set(
            &decoders,
            &self.config.cvae,
            &self.config.budget,
            self.config.class_probs.as_deref(),
            self.config.coverage_aware,
            &mut ctx.rng,
        );
        let x = d_syn.to_tensor();
        let y = d_syn.labels_usize();
        let synthesis_secs = stage.close();

        // (3) Audit every client on the identical synthetic set. The
        // batched scorer (default) drives one grouped kernel launch per
        // layer across all models, each reading the same validation batch;
        // the sequential path reconstructs and scores one model at a time
        // through the same engine, to the same bits.
        let stage = timed_span("round.audit");
        let eval_batch = self.config.eval_batch;
        let classifier = self.config.classifier;
        let accuracies: Vec<(usize, f32)> = match self.config.audit {
            AuditMode::Batched => {
                let params: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
                let scores =
                    BatchedClassifier::new(&classifier, &params).evaluate(&x, &y, eval_batch);
                updates.iter().zip(scores).map(|(u, s)| (u.client_id, s)).collect()
            }
            AuditMode::Sequential => updates
                .par_iter()
                .map(|u| {
                    let acc = if u.is_non_finite() {
                        // Corrupted to NaN/Inf: worst possible audit score.
                        0.0
                    } else {
                        let mut clf = Classifier::from_params(&classifier, &u.params);
                        clf.evaluate(&x, &y, eval_batch)
                    };
                    (u.client_id, acc)
                })
                .collect(),
        };
        let audit_secs = stage.close();

        // (4) Selection threshold: the round-mean accuracy.
        let mean_acc = accuracies.iter().map(|&(_, a)| a).sum::<f32>() / accuracies.len() as f32;
        let mut selected: Vec<usize> =
            accuracies.iter().filter(|&&(_, a)| a >= mean_acc).map(|&(id, _)| id).collect();
        if selected.is_empty() {
            // All-equal (or pathological) scores: keep everyone.
            selected = updates.iter().map(|u| u.client_id).collect();
        }

        // (5) FedAvg over the kept updates.
        let selected_set: HashSet<usize> = selected.iter().copied().collect();
        let kept: Vec<&ModelUpdate> =
            updates.iter().filter(|u| selected_set.contains(&u.client_id)).collect();
        let refs: Vec<&[f32]> = kept.iter().map(|u| u.params.as_slice()).collect();
        let counts: Vec<usize> = kept.iter().map(|u| u.num_samples).collect();
        let params = self.config.inner.combine(&refs, &counts);

        AggregationOutcome::new(params, selected)
            .with_scores(accuracies)
            .with_threshold(mean_acc)
            .with_timings(StrategyTimings { synthesis_secs, audit_secs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_data::synth::generate_dataset;
    use fg_nn::models::Cvae;
    use fg_nn::optim::{Adam, Sgd};
    use fg_tensor::rng::SeededRng;

    const HIDDEN: usize = 16;

    fn clf_spec() -> ClassifierSpec {
        ClassifierSpec::Mlp { hidden: HIDDEN }
    }

    fn cvae_spec() -> CvaeSpec {
        CvaeSpec::reduced(64, 8)
    }

    fn config() -> FedGuardConfig {
        FedGuardConfig {
            classifier: clf_spec(),
            cvae: cvae_spec(),
            budget: SynthesisBudget::Total(60),
            class_probs: None,
            eval_batch: 32,
            inner: InnerAggregator::FedAvg,
            coverage_aware: false,
            audit: AuditMode::Batched,
        }
    }

    /// A decently trained classifier + CVAE pair on real synthetic digits.
    fn honest_update(id: usize, seed: u64) -> ModelUpdate {
        let data = generate_dataset(18, seed); // 180 samples
        let mut rng = SeededRng::new(seed);
        let mut clf = Classifier::new(&clf_spec(), &mut rng);
        let mut sgd = Sgd::with_momentum(0.1, 0.9);
        for _ in 0..6 {
            for (x, y) in data.batches(32) {
                clf.train_batch(&x, &y, &mut sgd);
            }
        }
        let mut cvae = Cvae::new(&cvae_spec(), &mut rng);
        let mut adam = Adam::new(2e-3);
        for _ in 0..50 {
            for (x, y) in data.batches(64) {
                cvae.train_batch(&x, &y, &mut adam, &mut rng);
            }
        }
        let coverage = data.class_histogram(10).iter().map(|&c| c as u32).collect();
        ModelUpdate {
            client_id: id,
            params: clf.into_params(),
            num_samples: data.len(),
            decoder: Some(cvae.decoder_params()),
            class_coverage: Some(coverage),
        }
    }

    #[test]
    fn selective_aggregation_excludes_garbage_update() {
        let honest: Vec<ModelUpdate> = (0..3).map(|i| honest_update(i, 10 + i as u64)).collect();
        let mut garbage = honest[0].clone();
        garbage.client_id = 99;
        garbage.params.iter_mut().for_each(|w| *w = 1.0); // same-value attack

        let mut updates = honest;
        updates.push(garbage);
        let global = vec![0.0f32; updates[0].params.len()];
        let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(0) };
        let mut s = FedGuardStrategy::new(config());
        let out = s.aggregate(&updates, &mut ctx);

        assert!(!out.selected.contains(&99), "garbage update selected: {:?}", out.selected);
        assert!(!out.selected.is_empty());
        // Diagnostics reported for all four updates with a sane threshold.
        assert_eq!(out.scores.len(), 4);
        let threshold = out.threshold.expect("FedGuard reports its threshold");
        assert!((0.0..=1.0).contains(&threshold));
        // Synthesis and audit both take measurable time.
        assert!(out.timings.synthesis_secs > 0.0);
        assert!(out.timings.audit_secs > 0.0);
    }

    #[test]
    fn selection_never_includes_below_mean_scores() {
        let updates: Vec<ModelUpdate> = (0..4).map(|i| honest_update(i, 20 + i as u64)).collect();
        let global = vec![0.0f32; updates[0].params.len()];
        let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(1) };
        let mut s = FedGuardStrategy::new(config());
        let out = s.aggregate(&updates, &mut ctx);
        let threshold = out.threshold.unwrap();
        for &(id, acc) in &out.scores {
            if out.selected.contains(&id) {
                assert!(acc >= threshold);
            } else {
                assert!(acc < threshold);
            }
        }
    }

    #[test]
    fn non_finite_updates_audit_to_zero_and_are_dropped() {
        let mut updates: Vec<ModelUpdate> =
            (0..3).map(|i| honest_update(i, 30 + i as u64)).collect();
        updates[2].params[0] = f32::NAN;
        updates[2].client_id = 7;
        let global = vec![0.0f32; updates[0].params.len()];
        let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(2) };
        let mut s = FedGuardStrategy::new(config());
        let out = s.aggregate(&updates, &mut ctx);
        assert!(!out.selected.contains(&7));
        assert!(out.params.iter().all(|w| w.is_finite()));
    }

    #[test]
    fn missing_decoders_fall_back_to_fedavg() {
        let mut updates: Vec<ModelUpdate> =
            (0..2).map(|i| honest_update(i, 40 + i as u64)).collect();
        for u in &mut updates {
            u.decoder = None;
        }
        let global = vec![0.0f32; updates[0].params.len()];
        let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(3) };
        let mut s = FedGuardStrategy::new(config());
        let out = s.aggregate(&updates, &mut ctx);
        assert_eq!(out.selected.len(), 2);
    }

    #[test]
    fn inner_operators_produce_valid_aggregates() {
        let updates: Vec<ModelUpdate> = (0..3).map(|i| honest_update(i, 50 + i as u64)).collect();
        let global = vec![0.0f32; updates[0].params.len()];
        for inner in [InnerAggregator::FedAvg, InnerAggregator::GeoMed, InnerAggregator::Median] {
            let mut cfg = config();
            cfg.inner = inner;
            let mut s = FedGuardStrategy::new(cfg);
            let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(4) };
            let out = s.aggregate(&updates, &mut ctx);
            assert_eq!(out.params.len(), global.len(), "{inner:?}");
            assert!(out.params.iter().all(|w| w.is_finite()), "{inner:?}");
        }
    }

    #[test]
    fn single_update_round_passes_through_without_synthesis() {
        let updates = vec![honest_update(4, 60)];
        let global = vec![0.0f32; updates[0].params.len()];
        let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(5) };
        let mut s = FedGuardStrategy::new(config());
        let out = s.aggregate(&updates, &mut ctx);
        assert_eq!(out.params, updates[0].params);
        assert_eq!(out.selected, vec![4]);
        // No synthesis/audit phase ran.
        assert_eq!(out.timings.synthesis_secs, 0.0);
        assert_eq!(out.timings.audit_secs, 0.0);
    }

    #[test]
    fn non_finite_decoders_are_excluded_from_synthesis() {
        let mut updates: Vec<ModelUpdate> =
            (0..3).map(|i| honest_update(i, 70 + i as u64)).collect();
        // Client 2's decoder is poisoned; its (finite) classifier update must
        // still be audited, and the synthetic set must stay usable.
        if let Some(theta) = updates[2].decoder.as_mut() {
            theta[0] = f32::NAN;
        }
        let global = vec![0.0f32; updates[0].params.len()];
        let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(6) };
        let mut s = FedGuardStrategy::new(config());
        let out = s.aggregate(&updates, &mut ctx);
        assert_eq!(out.scores.len(), 3, "every update is still audited");
        assert!(out.params.iter().all(|w| w.is_finite()));
        assert!(!out.selected.is_empty());
    }

    #[test]
    fn batched_and_sequential_audits_are_bit_identical() {
        let updates: Vec<ModelUpdate> = (0..4).map(|i| honest_update(i, 80 + i as u64)).collect();
        let global = vec![0.0f32; updates[0].params.len()];
        let run = |audit: AuditMode| {
            let mut cfg = config();
            cfg.audit = audit;
            let mut s = FedGuardStrategy::new(cfg);
            // Same RNG seed → same synthetic set → only the scorer differs.
            let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(9) };
            s.aggregate(&updates, &mut ctx)
        };
        let batched = run(AuditMode::Batched);
        let sequential = run(AuditMode::Sequential);
        let bits = |scores: &[(usize, f32)]| {
            scores.iter().map(|&(id, a)| (id, a.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(&batched.scores), bits(&sequential.scores), "audit scores diverged");
        assert_eq!(
            batched.threshold.unwrap().to_bits(),
            sequential.threshold.unwrap().to_bits(),
            "selection threshold diverged"
        );
        assert_eq!(batched.selected, sequential.selected, "roster diverged");
        let pb: Vec<u32> = batched.params.iter().map(|v| v.to_bits()).collect();
        let ps: Vec<u32> = sequential.params.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, ps, "aggregated parameters diverged");
    }

    #[test]
    #[should_panic(expected = "eval_batch must be positive")]
    fn zero_eval_batch_rejected() {
        FedGuardStrategy::new(FedGuardConfig { eval_batch: 0, ..config() });
    }

    #[test]
    fn paper_config_uses_two_m_budget() {
        let cfg = FedGuardConfig::paper(ClassifierSpec::TableIICnn, 50);
        assert_eq!(cfg.budget, SynthesisBudget::Total(100));
        assert_eq!(cfg.cvae, CvaeSpec::table_iii());
    }
}
