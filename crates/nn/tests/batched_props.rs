//! Property-based oracle check for the batched audit scorer.
//!
//! [`BatchedClassifier::evaluate`] exists purely as a throughput
//! optimization: it must be observationally indistinguishable — bitwise,
//! not approximately — from scoring each parameter set through its own
//! [`Classifier`]. These properties drive the batched path with random
//! cohort sizes (including the `m = 0` and `m = 1` degenerate cases),
//! ragged final minibatches, and NaN/Inf-poisoned parameter sets, and
//! compare against the per-model sequential oracle.

use fg_nn::models::{BatchedClassifier, Classifier, ClassifierSpec};
use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;
use proptest::prelude::*;

/// Sequential oracle: score each parameter set through its own
/// [`Classifier`], mapping non-finite sets to 0.0 exactly as the
/// server-side audit does.
fn oracle_scores(
    spec: &ClassifierSpec,
    models: &[Vec<f32>],
    x: &Tensor,
    y: &[usize],
    batch: usize,
) -> Vec<f32> {
    models
        .iter()
        .map(|p| {
            if p.iter().any(|v| !v.is_finite()) {
                0.0
            } else {
                Classifier::from_params(spec, p).evaluate(x, y, batch)
            }
        })
        .collect()
}

fn random_models(spec: &ClassifierSpec, m: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..m).map(|_| Classifier::new(spec, &mut rng).get_params()).collect()
}

fn random_dataset(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = SeededRng::new(seed ^ 0x9e37_79b9);
    let x = Tensor::randn(&[n, 784], &mut rng);
    let y: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % 10).collect();
    (x, y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random cohort sizes (0..=6), random hidden widths, and batch sizes
    /// that leave ragged final minibatches: batched == oracle, bitwise.
    #[test]
    fn batched_scores_match_sequential_oracle_bitwise(
        m in 0usize..7,
        hidden in 4usize..24,
        n in 1usize..40,
        batch in 1usize..16,
        seed in 0u64..10_000,
    ) {
        let spec = ClassifierSpec::Mlp { hidden };
        let models = random_models(&spec, m, seed);
        let (x, y) = random_dataset(n, seed);

        let views: Vec<&[f32]> = models.iter().map(|v| v.as_slice()).collect();
        let batched = BatchedClassifier::new(&spec, &views).evaluate(&x, &y, batch);
        let oracle = oracle_scores(&spec, &models, &x, &y, batch);

        prop_assert_eq!(batched.len(), m);
        let got: Vec<u32> = batched.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = oracle.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }

    /// Poisoning a random parameter of a random model with NaN or Inf
    /// audits that model to exactly 0.0 and leaves every other model's
    /// score bitwise unchanged.
    #[test]
    fn non_finite_models_score_zero_without_disturbing_neighbors(
        m in 1usize..6,
        victim_sel in 0usize..1000,
        param_sel in 0usize..1_000_000,
        nan_sel in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let spec = ClassifierSpec::Mlp { hidden: 8 };
        let mut models = random_models(&spec, m, seed);
        let (x, y) = random_dataset(17, seed);
        let views: Vec<&[f32]> = models.iter().map(|v| v.as_slice()).collect();
        let clean = BatchedClassifier::new(&spec, &views).evaluate(&x, &y, 8);

        let victim = victim_sel % m;
        let slot = param_sel % spec.num_params();
        models[victim][slot] = if nan_sel == 0 { f32::NAN } else { f32::INFINITY };

        let views: Vec<&[f32]> = models.iter().map(|v| v.as_slice()).collect();
        let poisoned = BatchedClassifier::new(&spec, &views).evaluate(&x, &y, 8);

        prop_assert_eq!(poisoned[victim].to_bits(), 0.0f32.to_bits());
        for i in (0..m).filter(|&i| i != victim) {
            prop_assert_eq!(poisoned[i].to_bits(), clean[i].to_bits());
        }
    }

    /// A batch size larger than the dataset degenerates to a single ragged
    /// minibatch and still matches the oracle.
    #[test]
    fn oversized_batch_is_one_ragged_minibatch(
        m in 1usize..5,
        n in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let spec = ClassifierSpec::Mlp { hidden: 6 };
        let models = random_models(&spec, m, seed);
        let (x, y) = random_dataset(n, seed);
        let views: Vec<&[f32]> = models.iter().map(|v| v.as_slice()).collect();
        let batched = BatchedClassifier::new(&spec, &views).evaluate(&x, &y, 64);
        let oracle = oracle_scores(&spec, &models, &x, &y, 64);
        let got: Vec<u32> = batched.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = oracle.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}

/// The CNN architecture goes through the grouped conv/pool kernels rather
/// than the pure-GEMM path; one deterministic (non-proptest, it is slow)
/// case pins its oracle equivalence, including a ragged final minibatch
/// and a poisoned member.
#[test]
fn table_ii_cnn_cohort_matches_oracle_bitwise() {
    let spec = ClassifierSpec::TableIICnn;
    let mut models = random_models(&spec, 3, 7);
    models[1][12_345] = f32::NEG_INFINITY;
    let (x, y) = random_dataset(11, 7);

    let views: Vec<&[f32]> = models.iter().map(|v| v.as_slice()).collect();
    let batched = BatchedClassifier::new(&spec, &views).evaluate(&x, &y, 4);
    let oracle = oracle_scores(&spec, &models, &x, &y, 4);

    assert_eq!(batched[1].to_bits(), 0.0f32.to_bits());
    let got: Vec<u32> = batched.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> = oracle.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The server's evaluation of `ψ₀` is the `m = 1` case: one Table II model,
/// a ragged last mini-batch, and — since one group must be as parallel as
/// eight — the same bits as [`Classifier::evaluate`] at 1, 2 and 4 threads.
#[test]
fn one_table_ii_model_matches_the_oracle_at_any_thread_count() {
    let spec = ClassifierSpec::TableIICnn;
    let models = random_models(&spec, 1, 3);
    let (x, y) = random_dataset(13, 3);
    let want = bits(&oracle_scores(&spec, &models, &x, &y, 5));
    for threads in [1, 2, 4] {
        let got = rayon::with_threads(threads, || {
            BatchedClassifier::new(&spec, &[&models[0]]).evaluate(&x, &y, 5)
        });
        assert_eq!(bits(&got), want, "{threads} threads");
    }
}

/// The layer list is the one statement of the architecture: it reproduces
/// the parameter counts, its shapes chain from the image to the logits, and
/// its layers' weights and biases cover a flattened model exactly.
#[test]
fn layer_list_reproduces_param_counts_and_the_flatten_order() {
    let weights =
        |spec: &ClassifierSpec| -> usize { spec.layers().iter().map(|l| l.param_lens().0).sum() };
    assert_eq!(weights(&ClassifierSpec::TableIICnn), 1_662_752, "Table II counts weights only");
    assert_eq!(ClassifierSpec::TableIICnn.num_params(), 1_662_752 + 32 + 64 + 512 + 10);
    for hidden in [1, 24, 64] {
        let spec = ClassifierSpec::Mlp { hidden };
        assert_eq!(spec.num_params(), (784 * hidden + hidden) + (hidden * 10 + 10));
    }

    for spec in [ClassifierSpec::TableIICnn, ClassifierSpec::Mlp { hidden: 9 }] {
        let clf = Classifier::new(&spec, &mut SeededRng::new(5));
        let flat = clf.get_params();

        let mut off = 0usize;
        let mut len = spec.input_dim();
        for layer in spec.layers() {
            len = layer.out_len(len); // panics unless the shapes chain
            let (w, b) = layer.param_lens();
            off += w + b;
        }
        assert_eq!(len, spec.num_classes(), "{spec:?}: the list ends in the logits");
        assert_eq!(off, flat.len(), "{spec:?}");
    }
}

/// Each forward kernel has one body; a one-group call of it is the grouped
/// call's first group, bit for bit (and the other groups are independent
/// one-group calls too).
#[test]
fn one_group_kernel_calls_equal_the_grouped_calls_first_group() {
    use fg_tensor::conv::{
        conv2d_forward, conv2d_forward_grouped, conv2d_forward_into, Conv2dSpec, Epilogue,
    };
    use fg_tensor::kernels::{matmul_bt_bias, matmul_bt_bias_grouped, GroupedA};
    use fg_tensor::pool::{maxpool2d_forward, maxpool2d_forward_into, MaxPool2dSpec};

    let mut rng = SeededRng::new(17);
    let (groups, b) = (3usize, 5usize);

    // Convolution: per-group activations, and images every group shares.
    let spec = Conv2dSpec { in_ch: 2, out_ch: 4, kh: 3, kw: 3, pad: 1 };
    let (h, w) = (6, 7);
    let (img, out_img) = (spec.in_ch * h * w, spec.out_ch * h * w);
    let x = Tensor::randn(&[groups * b, spec.in_ch, h, w], &mut rng);
    let banks: Vec<Tensor> =
        (0..groups).map(|_| Tensor::randn(&[spec.out_ch, spec.patch_len()], &mut rng)).collect();
    let biases: Vec<Tensor> =
        (0..groups).map(|_| Tensor::randn(&[spec.out_ch], &mut rng)).collect();
    let wv: Vec<&[f32]> = banks.iter().map(|t| t.data()).collect();
    let bv: Vec<&[f32]> = biases.iter().map(|t| t.data()).collect();

    let mut grouped = vec![0.0f32; groups * b * out_img];
    conv2d_forward_grouped(x.data(), b, h, w, &spec, &wv, &bv, &mut grouped);
    let mut shared = vec![0.0f32; groups * b * out_img];
    let first_images = GroupedA::Shared(&x.data()[..b * img]);
    conv2d_forward_into(first_images, b, h, w, &spec, &wv, &bv, Epilogue::Store, &mut shared);
    for g in 0..groups {
        let own = Tensor::from_vec(
            x.data()[g * b * img..(g + 1) * b * img].to_vec(),
            &[b, spec.in_ch, h, w],
        );
        let one = conv2d_forward(&own, &banks[g], &biases[g], &spec);
        assert_eq!(bits(one.data()), bits(&grouped[g * b * out_img..(g + 1) * b * out_img]));
        // Every group of the shared launch convolved group 0's images.
        let first = Tensor::from_vec(x.data()[..b * img].to_vec(), &[b, spec.in_ch, h, w]);
        let one = conv2d_forward(&first, &banks[g], &biases[g], &spec);
        assert_eq!(bits(one.data()), bits(&shared[g * b * out_img..(g + 1) * b * out_img]));
    }

    // Linear forward, large enough (70 × 150 · 110 > 2^20 MACs) that each
    // group's product also splits its row blocks.
    let (m, n, k) = (70usize, 150usize, 110usize);
    let a = Tensor::randn(&[groups * m, k], &mut rng);
    let ws: Vec<Tensor> = (0..groups).map(|_| Tensor::randn(&[n, k], &mut rng)).collect();
    let bs: Vec<Tensor> = (0..groups).map(|_| Tensor::randn(&[n], &mut rng)).collect();
    let wv: Vec<&[f32]> = ws.iter().map(|t| t.data()).collect();
    let bv: Vec<&[f32]> = bs.iter().map(|t| t.data()).collect();
    let mut per_group = vec![0.0f32; groups * m * n];
    matmul_bt_bias_grouped(m, n, k, GroupedA::PerGroup(a.data()), &wv, &bv, &mut per_group);
    let mut shared = vec![0.0f32; groups * m * n];
    let first = Tensor::from_vec(a.data()[..m * k].to_vec(), &[m, k]);
    matmul_bt_bias_grouped(m, n, k, GroupedA::Shared(first.data()), &wv, &bv, &mut shared);
    for g in 0..groups {
        let own = Tensor::from_vec(a.data()[g * m * k..(g + 1) * m * k].to_vec(), &[m, k]);
        let one = matmul_bt_bias(&own, &ws[g], &bs[g]);
        assert_eq!(bits(one.data()), bits(&per_group[g * m * n..(g + 1) * m * n]));
        let one = matmul_bt_bias(&first, &ws[g], &bs[g]);
        assert_eq!(bits(one.data()), bits(&shared[g * m * n..(g + 1) * m * n]));
    }

    // Values-only pooling: a slab of `groups × b` images, its first group
    // alone, and the training-path forward agree.
    let (c, h, w, k) = (3usize, 6usize, 8usize, 2usize);
    let x = Tensor::randn(&[groups * b, c, h, w], &mut rng);
    let pooled_len = b * c * (h / k) * (w / k);
    let mut slab = vec![0.0f32; groups * pooled_len];
    maxpool2d_forward_into(x.data(), c, h, w, k, &mut slab, None);
    let mut one = vec![0.0f32; pooled_len];
    maxpool2d_forward_into(&x.data()[..b * c * h * w], c, h, w, k, &mut one, None);
    assert_eq!(bits(&one), bits(&slab[..pooled_len]));
    assert_eq!(bits(maxpool2d_forward(&x, &MaxPool2dSpec { k }).output.data()), bits(&slab));
}
