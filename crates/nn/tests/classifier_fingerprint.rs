//! Bit fingerprint of the classifier's training and scoring.
//!
//! Three `Classifier::train_batch` steps (SGD with momentum) of MLP-64 and
//! of the Table II CNN, each at a full batch of 32 and at a ragged batch of
//! 7, digested with FNV-1a: the loss and every bit of `ψ` after each step,
//! then the accuracy `evaluate` returns on a set that leaves a ragged last
//! mini-batch and the classes `predict` returns. A change to the training
//! engine — a layer's forward or backward, the loss, the optimizer step —
//! that moves any bit fails here, whatever path the step takes.
//!
//! As in `golden_digests`, the digests are the vector GEMM levels' bits
//! (the two agree); on a scalar-only CPU the test reports that it skipped.

use fg_nn::models::{Classifier, ClassifierSpec};
use fg_nn::optim::Sgd;
use fg_tensor::rng::SeededRng;
use fg_tensor::simd::Level;
use fg_tensor::Tensor;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn floats(v: &[f32]) -> u64 {
    fnv1a(v.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// Seeded images in `[0, 1)` with labels cycling through the classes.
fn data(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let x = Tensor::rand_uniform(&[n, 784], 0.0, 1.0, &mut rng);
    (x, (0..n).map(|i| (i * 3 + seed as usize) % 10).collect())
}

/// `loss, ψ` per step, then the `evaluate` and `predict` digests, one line
/// per value.
fn fingerprint(spec: &ClassifierSpec, batch: usize) -> Vec<String> {
    let mut clf = Classifier::new(spec, &mut SeededRng::new(31));
    let mut sgd = Sgd::with_momentum(0.05, 0.9);
    let (x, y) = data(batch, 32);
    let mut lines = Vec::new();
    for step in 0..3 {
        let loss = clf.train_batch(&x, &y, &mut sgd);
        lines.push(format!("step {step} loss {:08x}", loss.to_bits()));
        lines.push(format!("step {step} psi {:016x}", floats(&clf.get_params())));
    }
    let (test_x, test_y) = data(23, 33);
    let acc = clf.evaluate(&test_x, &test_y, 8);
    lines.push(format!("evaluate {:08x}", acc.to_bits()));
    let predicted = clf.predict(&test_x);
    lines.push(format!("predict {:016x}", fnv1a(predicted.iter().flat_map(|&c| c.to_le_bytes()))));
    lines
}

const WANT: &str = "\
mlp64 b32 step 0 loss 402d9939
mlp64 b32 step 0 psi 97e01c2c3dfb0c6b
mlp64 b32 step 1 loss 4012c2a8
mlp64 b32 step 1 psi 04c91322091b1197
mlp64 b32 step 2 loss 400d3781
mlp64 b32 step 2 psi 307d03de07476d9b
mlp64 b32 evaluate 3db21643
mlp64 b32 predict 0614007e657475a1
mlp64 b7 step 0 loss 402c2288
mlp64 b7 step 0 psi f151ef288c3e0df9
mlp64 b7 step 1 loss 3feb3144
mlp64 b7 step 1 psi e8733e1b33389d51
mlp64 b7 step 2 loss 3fa9e0a5
mlp64 b7 step 2 psi 829e47dfdf7d6ece
mlp64 b7 evaluate 3d321643
mlp64 b7 predict 518f49b87ef0c285
table2 b32 step 0 loss 403d7287
table2 b32 step 0 psi e24ff641c4f9932a
table2 b32 step 1 loss 4121d41b
table2 b32 step 1 psi 65d902ffe70ec1c8
table2 b32 step 2 loss 40f363a1
table2 b32 step 2 psi ddc9c1eee46e31f4
table2 b32 evaluate 3d321643
table2 b32 predict f1e48a4dbd7730c7
table2 b7 step 0 loss 405fec59
table2 b7 step 0 psi 18a6b0801bc4aeec
table2 b7 step 1 loss 40ed8233
table2 b7 step 1 psi 29aa300204316e4b
table2 b7 step 2 loss 423632b4
table2 b7 step 2 psi 1a6e1f62e4874568
table2 b7 evaluate 3db21643
table2 b7 predict c0cb699b1c3a4981
";

#[test]
fn training_steps_reproduce_the_fingerprint() {
    if Level::detect() == Level::Scalar {
        eprintln!("classifier_fingerprint skipped: scalar level (the table holds the vector levels' bits)");
        return;
    }
    let mut got = String::new();
    for (name, spec) in
        [("mlp64", ClassifierSpec::Mlp { hidden: 64 }), ("table2", ClassifierSpec::TableIICnn)]
    {
        for batch in [32, 7] {
            for line in fingerprint(&spec, batch) {
                got.push_str(&format!("{name} b{batch} {line}\n"));
            }
        }
    }
    assert_eq!(got, WANT, "classifier fingerprint moved; got:\n{got}");
}
