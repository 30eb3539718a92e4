//! Batched multi-model audit scoring.
//!
//! FedGuard's server audits every one of the round's `m` client classifiers
//! on the *same* synthetic validation set — `m` forward passes through the
//! same architecture that differ only in their weights. [`BatchedClassifier`]
//! exploits that: it borrows the `m` flat parameter vectors without cloning
//! and drives each network layer as **one grouped launch** over all models
//! (`fg_tensor::kernels::matmul_bt_bias_grouped`,
//! `fg_tensor::conv::conv2d_forward_cols_grouped` /
//! `conv2d_forward_grouped`, `fg_tensor::pool::maxpool2d_forward_grouped`)
//! instead of `m` independent passes. The conv1 im2col of each validation
//! mini-batch is lowered once and shared by every model; per-model
//! activations live in workspace-pooled slabs, so a warm scoring pass
//! performs zero workspace allocations.
//!
//! ## Bit-identity to the sequential oracle
//!
//! The grouped launches issue, per model, exactly the bias-seed + GEMM /
//! window-scan / `max(0.0)` operations the per-model
//! [`Classifier::evaluate`](super::Classifier::evaluate) path issues, on
//! value-identical inputs, and the model axis fans out over the rayon shim
//! into disjoint output slabs with no cross-model reduction. Scores are
//! therefore **bitwise identical** to `m` sequential `evaluate` calls at any
//! `FG_THREADS` — pinned by `crates/nn/tests/batched_props.rs` and
//! `tests/schedule_invariance.rs`.
//!
//! Non-finite parameter sets audit to `0.0` (the same contract the
//! sequential audit applies via `ModelUpdate::is_non_finite`) and are
//! excluded from the launches so NaN/Inf payloads never touch shared slabs.

use super::classifier::ClassifierSpec;
use fg_obs::metrics::Counter;
use fg_obs::span::span;
use fg_tensor::conv::{self, Conv2dSpec};
use fg_tensor::kernels::{matmul_bt_bias_grouped, GroupedA};
use fg_tensor::pool::maxpool2d_forward_grouped;
use fg_tensor::workspace::{self, Scratch};
use fg_tensor::Tensor;
use rayon::prelude::*;
use std::ops::Range;

/// Grouped layer launches issued (one per layer per model block).
static LAUNCHES: Counter = Counter::new("audit.batched.launches");
/// Finite models scored through the batched path.
static MODELS: Counter = Counter::new("audit.batched.models");
/// Validation mini-batches driven through the grouped pipeline.
static MINIBATCHES: Counter = Counter::new("audit.batched.minibatches");
/// Models short-circuited to a 0.0 score for non-finite parameters.
static NONFINITE: Counter = Counter::new("audit.batched.nonfinite");

/// Upper bound on models per grouped launch. Bounds the transient activation
/// slabs to `MODEL_BLOCK × batch × widest_layer` floats (≈51 MiB for the
/// Table II CNN at `eval_batch = 64`) independently of the cohort size. The
/// partition is a pure function of the model list — fixed-size chunks in
/// submission order — and per-model results are independent, so blocking
/// never affects bits.
const MODEL_BLOCK: usize = 8;

/// Where one layer's weights and bias live in the flat parameter vector
/// (the `params::flatten` / `params::load` visit order: weight then bias,
/// layers front to back).
struct Seg {
    w: Range<usize>,
    b: Range<usize>,
}

/// Per-layer parameter segments for `spec`, in forward order.
fn segments(spec: &ClassifierSpec) -> Vec<Seg> {
    let mut off = 0usize;
    let mut seg = |wn: usize, bn: usize| {
        let w = off..off + wn;
        off += wn;
        let b = off..off + bn;
        off += bn;
        Seg { w, b }
    };
    let segs = match spec {
        ClassifierSpec::TableIICnn => {
            vec![seg(32 * 25, 32), seg(64 * 800, 64), seg(512 * 3136, 512), seg(10 * 512, 10)]
        }
        ClassifierSpec::Mlp { hidden } => {
            vec![seg(hidden * 784, *hidden), seg(10 * hidden, 10)]
        }
    };
    debug_assert_eq!(off, spec.num_params());
    segs
}

/// Per-model weight and bias views of one layer for the models in `blk`.
fn layer_views<'m>(
    models: &[&'m [f32]],
    blk: &[usize],
    seg: &Seg,
) -> (Vec<&'m [f32]>, Vec<&'m [f32]>) {
    let w: Vec<&[f32]> = blk.iter().map(|&i| &models[i][seg.w.clone()]).collect();
    let b: Vec<&[f32]> = blk.iter().map(|&i| &models[i][seg.b.clone()]).collect();
    (w, b)
}

/// Elementwise `max(0.0)` over a grouped activation slab, fanned over the
/// per-model chunks — the grouped form of the ReLU layer's `x.max(0.0)`.
fn relu_grouped(slab: &mut [f32], group_len: usize) {
    let _s = span("audit.batched.relu");
    slab.par_chunks_mut(group_len).for_each(|g| {
        for v in g.iter_mut() {
            *v = v.max(0.0);
        }
    });
}

/// A multi-model classifier view: `m` parameter sets of the same
/// architecture, borrowed (never cloned), scored together through grouped
/// per-layer kernel launches.
pub struct BatchedClassifier<'a> {
    spec: ClassifierSpec,
    models: Vec<&'a [f32]>,
}

impl<'a> BatchedClassifier<'a> {
    /// Wrap `models` (flat parameter vectors in `params::flatten` order) for
    /// batched scoring. Panics if any vector's length does not match the
    /// architecture.
    pub fn new(spec: &ClassifierSpec, models: &[&'a [f32]]) -> Self {
        let expect = spec.num_params();
        for (i, m) in models.iter().enumerate() {
            assert_eq!(m.len(), expect, "model {i}: flat parameter length mismatch");
        }
        BatchedClassifier { spec: *spec, models: models.to_vec() }
    }

    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    /// Accuracy of every model over `(x, y)`, evaluated in mini-batches of
    /// `batch` — bitwise equal to calling
    /// [`Classifier::evaluate`](super::Classifier::evaluate) per model, with
    /// non-finite parameter sets scored `0.0` (matching the sequential
    /// audit's `is_non_finite` short-circuit). Returns one score per model
    /// in input order; an empty dataset scores every model `0.0`.
    pub fn evaluate(&self, x: &Tensor, y: &[usize], batch: usize) -> Vec<f32> {
        let total = self.models.len();
        if total == 0 {
            return Vec::new();
        }
        let n = x.dim(0);
        assert_eq!(y.len(), n, "evaluate: label count mismatch");
        let mut scores = vec![0.0f32; total];
        if n == 0 {
            return scores;
        }
        assert!(batch > 0, "evaluate: batch must be positive");
        assert_eq!(x.dim(1), 784, "classifier expects flattened 28x28 images");

        let finite: Vec<usize> =
            (0..total).filter(|&i| self.models[i].iter().all(|v| v.is_finite())).collect();
        NONFINITE.add((total - finite.len()) as u64);
        MODELS.add(finite.len() as u64);
        if finite.is_empty() {
            return scores;
        }

        let data = x.data();
        let mut correct = vec![0usize; finite.len()];
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + batch).min(n);
            let bsz = hi - lo;
            MINIBATCHES.incr();
            let xb = &data[lo * 784..hi * 784];
            // The conv1 lowering of this mini-batch is identical for every
            // model: pay it once, share it across all model blocks.
            let cols1 = match self.spec {
                ClassifierSpec::TableIICnn => {
                    let _s = span("audit.batched.im2col");
                    let c1 = conv1_spec();
                    let mut cols = workspace::take_uninit(bsz * 784 * c1.patch_len());
                    conv::im2col_batch(xb, bsz, 28, 28, &c1, &mut cols);
                    Some(cols)
                }
                ClassifierSpec::Mlp { .. } => None,
            };
            for (blk_idx, blk) in finite.chunks(MODEL_BLOCK).enumerate() {
                let logits = self.forward_block(blk, xb, cols1.as_deref(), bsz);
                for (j, lg) in logits.chunks_exact(bsz * 10).enumerate() {
                    let slot = blk_idx * MODEL_BLOCK + j;
                    // Inline row argmax: same scan (and tie-breaking) as
                    // `Tensor::argmax_rows`.
                    for (row, &t) in lg.chunks_exact(10).zip(&y[lo..hi]) {
                        let mut best = 0usize;
                        let mut best_v = f32::NEG_INFINITY;
                        for (c, &v) in row.iter().enumerate() {
                            if v > best_v {
                                best_v = v;
                                best = c;
                            }
                        }
                        if best == t {
                            correct[slot] += 1;
                        }
                    }
                }
            }
            lo = hi;
        }
        for (slot, &mi) in finite.iter().enumerate() {
            scores[mi] = correct[slot] as f32 / n as f32;
        }
        scores
    }

    /// One mini-batch through one block of models: grouped launches layer by
    /// layer, per-model activations in workspace slabs. Returns the logits
    /// slab `(g, bsz, 10)`.
    fn forward_block(
        &self,
        blk: &[usize],
        xb: &[f32],
        cols1: Option<&[f32]>,
        bsz: usize,
    ) -> Scratch {
        let g = blk.len();
        let segs = segments(&self.spec);
        match self.spec {
            ClassifierSpec::Mlp { hidden } => {
                let (w1, b1) = layer_views(&self.models, blk, &segs[0]);
                let mut h = workspace::take_uninit(g * bsz * hidden);
                {
                    let _s = span("audit.batched.fc1");
                    LAUNCHES.incr();
                    matmul_bt_bias_grouped(
                        bsz,
                        hidden,
                        784,
                        GroupedA::Shared(xb),
                        &w1,
                        &b1,
                        &mut h,
                    );
                }
                relu_grouped(&mut h, bsz * hidden);
                let (w2, b2) = layer_views(&self.models, blk, &segs[1]);
                let mut logits = workspace::take_uninit(g * bsz * 10);
                {
                    let _s = span("audit.batched.fc2");
                    LAUNCHES.incr();
                    matmul_bt_bias_grouped(
                        bsz,
                        10,
                        hidden,
                        GroupedA::PerGroup(&h),
                        &w2,
                        &b2,
                        &mut logits,
                    );
                }
                logits
            }
            ClassifierSpec::TableIICnn => {
                let cols1 = cols1.expect("CNN forward requires the shared conv1 columns");
                let c1 = conv1_spec();
                let c2 = Conv2dSpec { in_ch: 32, out_ch: 64, kh: 5, kw: 5, pad: 2 };

                let (w, b) = layer_views(&self.models, blk, &segs[0]);
                let mut a1 = workspace::take_uninit(g * bsz * 32 * 28 * 28);
                {
                    let _s = span("audit.batched.conv1");
                    LAUNCHES.incr();
                    conv::conv2d_forward_cols_grouped(cols1, bsz, 28, 28, &c1, &w, &b, &mut a1);
                }
                relu_grouped(&mut a1, bsz * 32 * 28 * 28);
                let mut p1 = workspace::take_uninit(g * bsz * 32 * 14 * 14);
                {
                    let _s = span("audit.batched.pool1");
                    LAUNCHES.incr();
                    maxpool2d_forward_grouped(&a1, bsz, 32, 28, 28, 2, &mut p1);
                }
                drop(a1);

                let (w, b) = layer_views(&self.models, blk, &segs[1]);
                let mut a2 = workspace::take_uninit(g * bsz * 64 * 14 * 14);
                {
                    let _s = span("audit.batched.conv2");
                    LAUNCHES.incr();
                    conv::conv2d_forward_grouped(&p1, bsz, 14, 14, &c2, &w, &b, &mut a2);
                }
                drop(p1);
                relu_grouped(&mut a2, bsz * 64 * 14 * 14);
                let mut p2 = workspace::take_uninit(g * bsz * 64 * 7 * 7);
                {
                    let _s = span("audit.batched.pool2");
                    LAUNCHES.incr();
                    maxpool2d_forward_grouped(&a2, bsz, 64, 14, 14, 2, &mut p2);
                }
                drop(a2);

                // Flatten (bsz, 64, 7, 7) → (bsz, 3136) is a row-major
                // layout no-op; p2 feeds fc1 directly as per-group matrices.
                let (w, b) = layer_views(&self.models, blk, &segs[2]);
                let mut h = workspace::take_uninit(g * bsz * 512);
                {
                    let _s = span("audit.batched.fc1");
                    LAUNCHES.incr();
                    matmul_bt_bias_grouped(bsz, 512, 3136, GroupedA::PerGroup(&p2), &w, &b, &mut h);
                }
                drop(p2);
                relu_grouped(&mut h, bsz * 512);
                let (w, b) = layer_views(&self.models, blk, &segs[3]);
                let mut logits = workspace::take_uninit(g * bsz * 10);
                {
                    let _s = span("audit.batched.fc2");
                    LAUNCHES.incr();
                    matmul_bt_bias_grouped(
                        bsz,
                        10,
                        512,
                        GroupedA::PerGroup(&h),
                        &w,
                        &b,
                        &mut logits,
                    );
                }
                logits
            }
        }
    }
}

/// The Table II conv1: 1 → 32 channels, 5×5, same-size (padding 2).
fn conv1_spec() -> Conv2dSpec {
    Conv2dSpec { in_ch: 1, out_ch: 32, kh: 5, kw: 5, pad: 2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Classifier;
    use fg_tensor::rng::SeededRng;

    fn mlp_models(count: usize, hidden: usize, seed: u64) -> Vec<Vec<f32>> {
        let spec = ClassifierSpec::Mlp { hidden };
        (0..count)
            .map(|i| Classifier::new(&spec, &mut SeededRng::new(seed + i as u64)).get_params())
            .collect()
    }

    #[test]
    fn batched_matches_sequential_oracle_bitwise() {
        let spec = ClassifierSpec::Mlp { hidden: 12 };
        let mut rng = SeededRng::new(8);
        let x = Tensor::randn(&[23, 784], &mut rng); // ragged at batch 8
        let y: Vec<usize> = (0..23).map(|i| i % 10).collect();

        // Inside one model block, exactly one, and two plus a ragged third.
        for count in [5, MODEL_BLOCK, 2 * MODEL_BLOCK + 1] {
            let params = mlp_models(count, 12, 7);
            let views: Vec<&[f32]> = params.iter().map(|p| p.as_slice()).collect();
            let batched = BatchedClassifier::new(&spec, &views).evaluate(&x, &y, 8);
            let oracle: Vec<f32> = params
                .iter()
                .map(|p| Classifier::from_params(&spec, p).evaluate(&x, &y, 8))
                .collect();
            assert_eq!(
                batched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                oracle.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "m = {count}"
            );
        }
    }

    #[test]
    fn zero_models_and_empty_dataset_edge_cases() {
        let spec = ClassifierSpec::Mlp { hidden: 6 };
        let none: Vec<&[f32]> = Vec::new();
        let x = Tensor::zeros(&[4, 784]);
        assert!(BatchedClassifier::new(&spec, &none).evaluate(&x, &[0, 1, 2, 3], 2).is_empty());

        let params = mlp_models(2, 6, 3);
        let views: Vec<&[f32]> = params.iter().map(|p| p.as_slice()).collect();
        let empty = Tensor::zeros(&[0, 784]);
        assert_eq!(BatchedClassifier::new(&spec, &views).evaluate(&empty, &[], 4), vec![0.0, 0.0]);
    }

    #[test]
    fn non_finite_models_audit_to_zero() {
        let spec = ClassifierSpec::Mlp { hidden: 6 };
        let mut params = mlp_models(3, 6, 11);
        params[1][17] = f32::NAN;
        let views: Vec<&[f32]> = params.iter().map(|p| p.as_slice()).collect();
        let mut rng = SeededRng::new(12);
        let x = Tensor::randn(&[9, 784], &mut rng);
        let y = vec![0usize; 9];
        let scores = BatchedClassifier::new(&spec, &views).evaluate(&x, &y, 4);
        assert_eq!(scores[1], 0.0);
        let a = Classifier::from_params(&spec, &params[0]).evaluate(&x, &y, 4);
        let c = Classifier::from_params(&spec, &params[2]).evaluate(&x, &y, 4);
        assert_eq!(scores[0].to_bits(), a.to_bits());
        assert_eq!(scores[2].to_bits(), c.to_bits());
    }
}
