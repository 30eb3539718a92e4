//! The classifier engine: one forward pass over [`ClassifierSpec::layers`]
//! for any number of parameter sets of one architecture.
//!
//! Every classifier pass in the crate runs [`forward`]. A client's training
//! step ([`Classifier::train_batch`](super::Classifier::train_batch)) runs
//! it with one group and a [`Tape`], then walks the same layer list
//! backwards. FedGuard's server audits every one of the round's `m` client
//! classifiers on the *same* synthetic validation set, and every round
//! scores the global model `ψ₀` on the test set: [`BatchedClassifier`]
//! serves both, borrowing the flat parameter vectors without cloning and
//! driving each parameterised layer as **one grouped launch** over a block
//! of models. A layer's input is the mini-batch every group shares until the
//! first parameterised layer has run and per-group slabs from then on; a
//! convolution reading the shared mini-batch has every group read the same
//! images. A conv block (`Conv → Relu → MaxPool`) is one launch: each
//! image's conv plane is ReLU'd and pooled while it is in cache, and only
//! the pooled slab is written. Activations live in workspace-pooled slabs,
//! so warm passes perform zero workspace allocations.
//!
//! ## One engine at any group count
//!
//! Each kernel has one body, and its one-group call is the grouped call's
//! first group, bit for bit. Groups fan out over the rayon shim into
//! disjoint output slabs with no cross-group reduction. A model's scores are
//! therefore the same bits whether it is scored alone
//! ([`Classifier::evaluate`](super::Classifier::evaluate)) or in a block of
//! eight, at any `FG_THREADS` — pinned by `crates/nn/tests/batched_props.rs`
//! and `tests/schedule_invariance.rs`.
//!
//! Non-finite parameter sets score `0.0` (the contract the server's audit
//! applies via `ModelUpdate::is_non_finite`) and are excluded from the
//! launches so NaN/Inf payloads never touch shared slabs.

use super::classifier::ClassifierSpec;
use crate::activations;
use crate::layer::{carve, Bank, LayerSpec};
use fg_obs::metrics::Counter;
use fg_obs::span::span;
use fg_tensor::conv::{self, Epilogue};
use fg_tensor::kernels::{matmul_bt_bias_grouped, GroupedA};
use fg_tensor::workspace::{self, Scratch};
use fg_tensor::Tensor;
use rayon::prelude::*;

/// Grouped launches issued: one per conv block (conv, ReLU and pool in one
/// pass) and one per linear layer — one per parameterised layer — per model
/// block per mini-batch.
static LAUNCHES: Counter = Counter::new("audit.batched.launches");
/// Finite models scored through the batched path.
static MODELS: Counter = Counter::new("audit.batched.models");
/// Validation mini-batches driven through the grouped pipeline.
static MINIBATCHES: Counter = Counter::new("audit.batched.minibatches");
/// Models short-circuited to a 0.0 score for non-finite parameters.
static NONFINITE: Counter = Counter::new("audit.batched.nonfinite");

/// Upper bound on models per grouped launch. Bounds the transient activation
/// slabs to `MODEL_BLOCK × batch × widest_layer` floats independently of the
/// cohort size: for the Table II CNN at `eval_batch = 64` the widest is the
/// pooled conv1 slab, 8 × 64 × 6272 floats ≈ 12.8 MB. The
/// partition is a pure function of the model list — fixed-size chunks in
/// submission order — and per-model results are independent, so blocking
/// never affects bits.
const MODEL_BLOCK: usize = 8;

/// What a training forward keeps for the backward walk.
#[derive(Default)]
pub(super) struct Tape {
    /// The slab entering each conv, pool and linear layer but the first,
    /// front to back. A ReLU runs in place, so the slab entering the layer
    /// after it is the ReLU's output, which is its own mask; a conv block
    /// keeps its ReLU'd conv planes, the slab its pool read.
    pub(super) inputs: Vec<Scratch>,
    /// Each pool's argmax into its input slab, front to back.
    pub(super) argmax: Vec<Vec<u32>>,
}

/// [`activations::relu`] over an activation slab, one task per
/// `block`-scalar chunk.
fn relu(slab: &mut [f32], block: usize) {
    let _s = span("nn.relu");
    slab.par_chunks_mut(block).for_each(activations::relu);
}

/// One mini-batch `xb` of `bsz` samples (`in_len` scalars each) through
/// `layers`, once per group of `banks` (one entry per parameterised layer):
/// one launch per parameterised layer, per-group activations in workspace
/// slabs. A conv block — `Conv → Relu → MaxPool` — is one launch whose
/// epilogue pools each conv plane while it is in cache
/// ([`Epilogue::ReluPool`]), so only the pooled slab is written. Returns
/// the logits slab `(groups, bsz, classes)`. With a `tape`, the slabs the
/// backward walk reads are kept there instead of going back to the pool.
pub(super) fn forward(
    layers: &[LayerSpec],
    in_len: usize,
    banks: &[Bank<'_>],
    xb: &[f32],
    bsz: usize,
    mut tape: Option<&mut Tape>,
) -> Scratch {
    const FIRST: &str = "a classifier starts with a parameterised layer";
    let g = banks[0].0.len();
    // A layer is done with its input: the tape keeps it, or it goes back to
    // the pool.
    let keep = |tape: &mut Option<&mut Tape>, input: Option<Scratch>| {
        if let (Some(tape), Some(x)) = (tape.as_deref_mut(), input) {
            tape.inputs.push(x);
        }
    };
    let mut banks = banks.iter();
    // What the next layer reads: one `(bsz, len)` block per group, groups
    // back to back, or (`None`) the mini-batch every group shares.
    let mut act: Option<Scratch> = None;
    // Scalars per sample entering the layer.
    let mut len = in_len;
    let mut rest = layers;
    // A linear layer's ReLU is memory-bound, a few percent of the layer.
    // Scoring runs alone on the server and splits it per sample; a training
    // step runs it on its own thread beside the other clients' steps, where
    // a join tree per pass costs more than it saves.
    while let [layer, tail @ ..] = rest {
        rest = tail;
        let mut out_len = layer.out_len(len);
        let operand = act.as_deref().map_or(GroupedA::Shared(xb), GroupedA::PerGroup);
        act = Some(match *layer {
            LayerSpec::Conv { conv: c, h, w } => {
                let [LayerSpec::Relu, pool @ LayerSpec::MaxPool { k, .. }, tail @ ..] = rest else {
                    panic!("{layer:?}: a conv runs as conv → ReLU → max pool");
                };
                rest = tail;
                let _s = span("nn.conv");
                let (wt, bias) = banks.next().expect("a bank per parameterised layer");
                let plane_len = out_len;
                out_len = pool.out_len(plane_len);
                let mut out = workspace::take_uninit(g * bsz * out_len);
                let mut kept = tape
                    .is_some()
                    .then(|| (workspace::take_uninit(g * bsz * plane_len), vec![0u32; out.len()]));
                let keep_views =
                    kept.as_mut().map(|(planes, argmax)| (&mut planes[..], &mut argmax[..]));
                let epilogue = Epilogue::ReluPool { k: *k, keep: keep_views };
                conv::conv2d_forward_into(operand, bsz, h, w, &c, wt, bias, epilogue, &mut out);
                keep(&mut tape, act);
                if let (Some(tape), Some((planes, argmax))) = (tape.as_deref_mut(), kept) {
                    tape.inputs.push(planes);
                    tape.argmax.push(argmax);
                }
                out
            }
            LayerSpec::Linear { inputs, outputs } => {
                let _s = span("nn.linear");
                let (wt, bias) = banks.next().expect("a bank per parameterised layer");
                let mut out = workspace::take_uninit(g * bsz * out_len);
                matmul_bt_bias_grouped(bsz, outputs, inputs, operand, wt, bias, &mut out);
                keep(&mut tape, act);
                out
            }
            LayerSpec::Relu => {
                let mut x = act.expect(FIRST);
                let chunk = if tape.is_some() { x.len() } else { len };
                relu(&mut x, chunk);
                x
            }
            // `(bsz, ch, h, w)` → `(bsz, features)` is a row-major no-op.
            LayerSpec::Flatten => act.expect(FIRST),
            LayerSpec::MaxPool { .. } => panic!("{layer:?}: a max pool ends a conv block"),
        });
        len = out_len;
    }
    assert!(banks.next().is_none(), "a parameterised layer per bank");
    act.expect(FIRST)
}

/// Correct predictions of every model over `(x, y)` in mini-batches of
/// `batch`, one [`forward`] per block of `blocks` per mini-batch. A row
/// counts when its first maximal logit (the scan and tie-breaking of
/// [`Tensor::argmax_rows`]) is its label. Counts come back block by block,
/// models in block order.
pub(super) fn correct_counts(
    spec: &ClassifierSpec,
    blocks: &[Vec<Bank<'_>>],
    x: &Tensor,
    y: &[usize],
    batch: usize,
) -> Vec<usize> {
    assert!(batch > 0, "evaluate: batch must be positive");
    let (n, dim, classes) = (x.dim(0), spec.input_dim(), spec.num_classes());
    assert_eq!(x.dim(1), dim, "classifier expects flattened 28x28 images");
    let layers = spec.layers();
    let mut correct = vec![0usize; blocks.iter().map(|banks| banks[0].0.len()).sum()];
    for lo in (0..n).step_by(batch) {
        let hi = (lo + batch).min(n);
        let bsz = hi - lo;
        let mut slot = 0;
        for banks in blocks {
            let logits = forward(&layers, dim, banks, &x.data()[lo * dim..hi * dim], bsz, None);
            for lg in logits.chunks_exact(bsz * classes) {
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
                slot += 1;
            }
        }
    }
    correct
}

/// A multi-model classifier view: `m` parameter sets of the same
/// architecture, borrowed (never cloned), scored together through grouped
/// per-layer kernel launches.
pub struct BatchedClassifier<'a> {
    spec: ClassifierSpec,
    models: Vec<&'a [f32]>,
}

impl<'a> BatchedClassifier<'a> {
    /// Wrap `models` (flat parameter vectors laid out by `spec`'s layers) for
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
    /// non-finite parameter sets scored `0.0`. Returns one score per model
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

        let finite: Vec<usize> =
            (0..total).filter(|&i| self.models[i].iter().all(|v| v.is_finite())).collect();
        NONFINITE.add((total - finite.len()) as u64);
        MODELS.add(finite.len() as u64);
        if finite.is_empty() {
            return scores;
        }

        let layers = self.spec.layers();
        let blocks: Vec<Vec<Bank<'_>>> = finite
            .chunks(MODEL_BLOCK)
            .map(|blk| {
                let models: Vec<&[f32]> = blk.iter().map(|&i| self.models[i]).collect();
                carve(&layers, &models)
            })
            .collect();
        let minibatches = n.div_ceil(batch) as u64;
        // `forward` issues one launch per bank and uses every bank.
        let launching = blocks[0].len() as u64;
        MINIBATCHES.add(minibatches);
        LAUNCHES.add(minibatches * blocks.len() as u64 * launching);
        let correct = correct_counts(&self.spec, &blocks, x, y, batch);
        for (&mi, &c) in finite.iter().zip(&correct) {
            scores[mi] = c as f32 / n as f32;
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Classifier;
    use fg_tensor::rng::SeededRng;
    use fg_tensor::simd::Level;

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

    fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
        let bytes = words.into_iter().flat_map(u32::to_le_bytes);
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    fn floats(v: &[f32]) -> u64 {
        fnv1a(v.iter().map(|x| x.to_bits()))
    }

    /// FNV-1a digests of the Table II logits slab `forward` returns — one
    /// group and three on a shared mini-batch, at batch 32 and a ragged 7 —
    /// untaped and taped, with every slab and argmax the tape kept. The
    /// accuracy and class list `classifier_fingerprint` pins can hide a
    /// moved logit bit; this cannot. Vector GEMM levels' bits, as there.
    const LOGITS_WANT: &str = "\
g1 b32 logits ae1c56b97316286c
g1 b32 kept 0 000daf848c851cbf
g1 b32 kept 1 4762e798ddea22be
g1 b32 kept 2 98521ddb65e39594
g1 b32 kept 3 dc695f86f68ba8fa
g1 b32 kept 4 b4d8837d4a8e16d0
g1 b32 argmax 0 ec30eac3d58bd545
g1 b32 argmax 1 424d2fe96c28c334
g1 b7 logits 343c48953e1ab5de
g1 b7 kept 0 13f0cab866d9c216
g1 b7 kept 1 f3247c1ffe056733
g1 b7 kept 2 921c3b25f774c176
g1 b7 kept 3 5907ed4dfa479712
g1 b7 kept 4 723c53623dc513b6
g1 b7 argmax 0 d2bd7246755e5a35
g1 b7 argmax 1 b8ca8804e6e4efa8
g3 b32 logits 3f5a9b9970820774
g3 b32 kept 0 613b1b62ab5843ac
g3 b32 kept 1 1ecdb38ddff761c2
g3 b32 kept 2 02a231f50fe761b5
g3 b32 kept 3 ce233dc9db6c960d
g3 b32 kept 4 7ad7213eeb00b86a
g3 b32 argmax 0 49716c62de8d14b9
g3 b32 argmax 1 c0c63e1a4b3b24c0
g3 b7 logits c86ef8e3af5b14a3
g3 b7 kept 0 e8e51f56ec0a0e8a
g3 b7 kept 1 343ff1a4a2a80b5f
g3 b7 kept 2 a6d5a3d1cc7bd76c
g3 b7 kept 3 d3b50d4697835305
g3 b7 kept 4 2bf423e20f630c39
g3 b7 argmax 0 e9a02dfc56a69a94
g3 b7 argmax 1 f9f6908b3c16677d
";

    #[test]
    fn table_ii_forward_reproduces_the_logit_digests() {
        if Level::detect() == Level::Scalar {
            eprintln!("logit digests skipped: the table holds the vector levels' bits");
            return;
        }
        let spec = ClassifierSpec::TableIICnn;
        let (layers, dim) = (spec.layers(), spec.input_dim());
        let params: Vec<Vec<f32>> = (0..3)
            .map(|i| Classifier::new(&spec, &mut SeededRng::new(40 + i)).get_params())
            .collect();
        let x = Tensor::rand_uniform(&[32, dim], 0.0, 1.0, &mut SeededRng::new(43));
        let mut got = String::new();
        for (groups, bsz) in [(1, 32), (1, 7), (3, 32), (3, 7)] {
            let models: Vec<&[f32]> = params[..groups].iter().map(Vec::as_slice).collect();
            let banks = carve(&layers, &models);
            let xb = &x.data()[..bsz * dim];
            let case = format!("g{groups} b{bsz}");
            let logits = forward(&layers, dim, &banks, xb, bsz, None);
            got.push_str(&format!("{case} logits {:016x}\n", floats(&logits)));
            let mut tape = Tape::default();
            let taped = forward(&layers, dim, &banks, xb, bsz, Some(&mut tape));
            assert_eq!(floats(&taped), floats(&logits), "{case}: taped logits");
            for (i, kept) in tape.inputs.iter().enumerate() {
                got.push_str(&format!("{case} kept {i} {:016x}\n", floats(kept)));
            }
            for (i, argmax) in tape.argmax.iter().enumerate() {
                let digest = fnv1a(argmax.iter().copied());
                got.push_str(&format!("{case} argmax {i} {digest:016x}\n"));
            }
        }
        assert_eq!(got, LOGITS_WANT, "logit digests moved; got:\n{got}");
    }
}
