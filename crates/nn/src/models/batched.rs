//! The server's scorer: flat parameter vectors on a labelled set.
//!
//! FedGuard's server audits every one of the round's `m` client classifiers
//! on the *same* synthetic validation set, and every round scores the global
//! model `ψ₀` on the test set — forward passes through one architecture that
//! differ only in their weights. [`BatchedClassifier`] serves both: it
//! borrows the flat parameter vectors without cloning, reads the
//! architecture off [`ClassifierSpec::layers`] (parameter offsets and launch
//! sequence alike) and drives each layer as **one grouped launch** over all
//! models. A layer's input is the validation mini-batch every model shares
//! until the first parameterised layer has run and per-model slabs from then
//! on; a convolution reading the shared mini-batch has every model read the
//! same images. Activations live in workspace-pooled slabs, so a warm
//! scoring pass performs zero workspace allocations.
//!
//! ## Bit-identity to the sequential oracle
//!
//! The grouped launches issue, per model, exactly the bias-seed + GEMM /
//! window-scan / `max(0.0)` operations the per-model
//! [`Classifier::evaluate`](super::Classifier::evaluate) path issues, on
//! value-identical inputs, and fan out over the rayon shim into disjoint
//! output slabs with no cross-model reduction. Scores are therefore
//! **bitwise identical** to `m` sequential `evaluate` calls at any
//! `FG_THREADS` — pinned by `crates/nn/tests/batched_props.rs` and
//! `tests/schedule_invariance.rs`.
//!
//! Non-finite parameter sets score `0.0` (the same contract the sequential
//! audit applies via `ModelUpdate::is_non_finite`) and are excluded from the
//! launches so NaN/Inf payloads never touch shared slabs.

use super::classifier::{ClassifierSpec, LayerSpec};
use fg_obs::metrics::Counter;
use fg_obs::span::span;
use fg_tensor::conv;
use fg_tensor::kernels::{matmul_bt_bias_grouped, GroupedA};
use fg_tensor::pool::maxpool2d_forward_values;
use fg_tensor::workspace::{self, Scratch};
use fg_tensor::Tensor;
use rayon::prelude::*;

/// Grouped conv / pool / linear launches issued (one per such layer per
/// model block per mini-batch).
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

/// What a layer reads.
enum Act<'x> {
    /// The validation mini-batch, the same for every model.
    Shared(&'x [f32]),
    /// One `(bsz, len)` activation block per model, models back to back.
    PerGroup(Scratch),
}

/// Elementwise `max(0.0)` over a grouped activation slab, one task per
/// `len`-scalar sample — the grouped form of the ReLU layer's `x.max(0.0)`.
fn relu(slab: &mut [f32], len: usize) {
    let _s = span("audit.batched.relu");
    slab.par_chunks_mut(len).for_each(|sample| {
        for v in sample.iter_mut() {
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
        let (dim, classes) = (self.spec.input_dim(), self.spec.num_classes());
        assert_eq!(x.dim(1), dim, "classifier expects flattened 28x28 images");

        let finite: Vec<usize> =
            (0..total).filter(|&i| self.models[i].iter().all(|v| v.is_finite())).collect();
        NONFINITE.add((total - finite.len()) as u64);
        MODELS.add(finite.len() as u64);
        if finite.is_empty() {
            return scores;
        }

        let layers = self.spec.layers();
        let data = x.data();
        let mut correct = vec![0usize; finite.len()];
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + batch).min(n);
            let bsz = hi - lo;
            MINIBATCHES.incr();
            let xb = &data[lo * dim..hi * dim];
            for (blk_idx, blk) in finite.chunks(MODEL_BLOCK).enumerate() {
                let logits = self.forward_block(&layers, blk, xb, bsz);
                for (j, lg) in logits.chunks_exact(bsz * classes).enumerate() {
                    let slot = blk_idx * MODEL_BLOCK + j;
                    // Inline row argmax: same scan (and tie-breaking) as
                    // `Tensor::argmax_rows`.
                    for (row, &t) in lg.chunks_exact(classes).zip(&y[lo..hi]) {
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

    /// One mini-batch `xb` of `bsz` samples through the models in `blk`: one
    /// grouped launch per layer of `layers`, per-model activations in
    /// workspace slabs. Returns the logits slab `(g, bsz, classes)`.
    fn forward_block(
        &self,
        layers: &[LayerSpec],
        blk: &[usize],
        xb: &[f32],
        bsz: usize,
    ) -> Scratch {
        let g = blk.len();
        // The block's views of one layer's weights (`at`, `w_len` scalars)
        // and bias (the `b_len` after them) in every flat vector.
        let params = |at: usize, (w_len, b_len): (usize, usize)| {
            let views = |at: usize, len: usize| -> Vec<&[f32]> {
                blk.iter().map(|&i| &self.models[i][at..at + len]).collect()
            };
            (views(at, w_len), views(at + w_len, b_len))
        };
        let mut act = Act::Shared(xb);
        // Scalars per sample entering the layer, and where the layer's
        // parameters start in the flat vectors.
        let (mut len, mut off) = (self.spec.input_dim(), 0usize);
        for layer in layers {
            let (out_len, lens) = (layer.out_len(len), layer.param_lens());
            act = match (*layer, act) {
                (LayerSpec::Conv { conv: c, h, w }, input) => {
                    let _s = span("audit.batched.conv");
                    LAUNCHES.incr();
                    let (wt, bias) = params(off, lens);
                    let mut out = workspace::take_uninit(g * bsz * out_len);
                    match input {
                        Act::Shared(x) => {
                            conv::conv2d_forward_shared(x, bsz, h, w, &c, &wt, &bias, &mut out);
                        }
                        Act::PerGroup(x) => {
                            conv::conv2d_forward_grouped(&x, bsz, h, w, &c, &wt, &bias, &mut out);
                        }
                    }
                    Act::PerGroup(out)
                }
                (LayerSpec::Linear { inputs, outputs }, input) => {
                    let _s = span("audit.batched.linear");
                    LAUNCHES.incr();
                    let (wt, bias) = params(off, lens);
                    let mut out = workspace::take_uninit(g * bsz * out_len);
                    let a = match &input {
                        Act::Shared(x) => GroupedA::Shared(x),
                        Act::PerGroup(x) => GroupedA::PerGroup(x),
                    };
                    matmul_bt_bias_grouped(bsz, outputs, inputs, a, &wt, &bias, &mut out);
                    Act::PerGroup(out)
                }
                (LayerSpec::MaxPool { ch, h, w, k }, Act::PerGroup(x)) => {
                    let _s = span("audit.batched.pool");
                    LAUNCHES.incr();
                    let mut out = workspace::take_uninit(g * bsz * out_len);
                    maxpool2d_forward_values(&x, ch, h, w, k, &mut out);
                    Act::PerGroup(out)
                }
                (LayerSpec::Relu, Act::PerGroup(mut x)) => {
                    relu(&mut x, len);
                    Act::PerGroup(x)
                }
                // `(bsz, ch, h, w)` → `(bsz, features)` is a row-major no-op.
                (LayerSpec::Flatten, x) => x,
                (LayerSpec::Relu | LayerSpec::MaxPool { .. }, Act::Shared(_)) => {
                    unreachable!("a classifier starts with a parameterised layer")
                }
            };
            (len, off) = (out_len, off + lens.0 + lens.1);
        }
        match act {
            Act::PerGroup(logits) => logits,
            Act::Shared(_) => unreachable!("a classifier has a parameterised layer"),
        }
    }
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
