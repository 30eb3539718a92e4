//! The federated MNIST classifier `f_ψ`.

use super::batched::{correct_counts, forward, Tape};
use crate::activations::relu_backward;
use crate::layer::{self, carve, carve_mut, LayerSpec, Module, Parameter};
use crate::linear::accumulate_param_grads;
use crate::loss;
use crate::optim::Optimizer;
use crate::params;
use fg_obs::span::span;
use fg_tensor::conv::{conv2d_backward_into, Conv2dSpec};
use fg_tensor::kernels::matmul_into;
use fg_tensor::pool::maxpool2d_backward_into;
use fg_tensor::rng::SeededRng;
use fg_tensor::workspace;
use fg_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Which classifier architecture to instantiate.
///
/// `TableIICnn` is the paper's exact architecture: two ReLU-activated 5×5
/// convolutions (32 and 64 channels, padding 2) each followed by 2×2 max
/// pooling, a 512-unit ReLU fully connected layer, and a 10-way output
/// (softmax applied inside the loss). Weight-only parameter count is
/// 1,662,752, matching Table II.
///
/// `Mlp` is a single-hidden-layer perceptron over the flattened 784-pixel
/// image, used by the CPU-budget presets where the full CNN would be too
/// slow; it changes the capacity, not any federated or defensive mechanics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClassifierSpec {
    TableIICnn,
    Mlp { hidden: usize },
}

impl ClassifierSpec {
    /// Flattened input dimensionality (28 × 28 images).
    pub fn input_dim(&self) -> usize {
        784
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        10
    }

    /// The architecture, front to back — the one statement of its shapes:
    /// [`Self::num_params`], [`Classifier::new`], the engine's forward and
    /// backward walks and the offsets of `ψ`'s weights and biases are all
    /// read off this list.
    pub fn layers(&self) -> Vec<LayerSpec> {
        use LayerSpec::{Flatten, Linear, Relu};
        let classes = self.num_classes();
        match *self {
            ClassifierSpec::TableIICnn => {
                // Same-size 5×5 convolutions; the 2×2 pools take 28 → 14 → 7.
                let conv = |in_ch, out_ch, side| LayerSpec::Conv {
                    conv: Conv2dSpec { in_ch, out_ch, kh: 5, kw: 5, pad: 2 },
                    h: side,
                    w: side,
                };
                let pool = |ch, side| LayerSpec::MaxPool { ch, h: side, w: side, k: 2 };
                vec![
                    conv(1, 32, 28),
                    Relu,
                    pool(32, 28),
                    conv(32, 64, 14),
                    Relu,
                    pool(64, 14),
                    Flatten,
                    Linear { inputs: 64 * 7 * 7, outputs: 512 },
                    Relu,
                    Linear { inputs: 512, outputs: classes },
                ]
            }
            ClassifierSpec::Mlp { hidden } => vec![
                Linear { inputs: self.input_dim(), outputs: hidden },
                Relu,
                Linear { inputs: hidden, outputs: classes },
            ],
        }
    }

    /// Total trainable scalar count (including biases).
    pub fn num_params(&self) -> usize {
        layer::num_params(&self.layers())
    }
}

/// A classifier instance: architecture plus parameter state, trained and
/// scored by the engine that walks [`ClassifierSpec::layers`].
pub struct Classifier {
    spec: ClassifierSpec,
    layers: Vec<LayerSpec>,
    /// `ψ`, the flat vector the layer list lays out, and its gradient.
    param: Parameter,
    /// What the last training forward kept for its backward walk.
    tape: Tape,
}

impl Classifier {
    /// Freshly initialized classifier: each parameterised layer drawn as a
    /// `Linear`, front to back (the order the RNG draws follow).
    pub fn new(spec: &ClassifierSpec, rng: &mut SeededRng) -> Self {
        let layers = spec.layers();
        let param = layer::init(&layers, rng);
        Classifier { spec: *spec, layers, param, tape: Tape::default() }
    }

    /// Classifier built straight from a flat parameter vector `ψ`. Panics
    /// if `ψ` does not have [`ClassifierSpec::num_params`] scalars.
    pub fn from_params(spec: &ClassifierSpec, flat: &[f32]) -> Self {
        params::check_len(flat.len(), spec.num_params());
        let param = layer::flat_parameter(flat.to_vec());
        Classifier { spec: *spec, layers: spec.layers(), param, tape: Tape::default() }
    }

    pub fn spec(&self) -> &ClassifierSpec {
        &self.spec
    }

    /// Flat parameter vector `ψ`.
    pub fn get_params(&self) -> Vec<f32> {
        params::flatten(self)
    }

    /// `ψ` by value: the parameter buffer is moved out, not copied.
    pub fn into_params(self) -> Vec<f32> {
        self.param.value.into_vec()
    }

    /// Raw class logits `(rows, classes)` for flattened images `(rows, 784)`;
    /// a training pass keeps what [`Self::backward`] reads.
    fn logits(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (rows, dim) = (x.dim(0), self.spec.input_dim());
        assert_eq!(x.dim(1), dim, "classifier expects flattened 28x28 images");
        let _pass = span("nn.forward");
        let tape = train.then_some(&mut self.tape);
        let banks = carve(&self.layers, &[self.param.value.data()]);
        let logits = forward(&self.layers, dim, &banks, x.data(), rows, tape);
        Tensor::from_vec(logits.to_vec(), &[rows, self.spec.num_classes()])
    }

    /// One optimizer step on a mini-batch; returns the batch loss.
    pub fn train_batch(&mut self, x: &Tensor, y: &[usize], optim: &mut dyn Optimizer) -> f32 {
        let logits = self.logits(x, true);
        let (loss, dlogits) = loss::softmax_cross_entropy(&logits, y);
        self.backward(x.data(), x.dim(0), dlogits.data());
        optim.step(self);
        loss
    }

    /// The layer list walked last to first from the logits' gradient:
    /// parameter gradients accumulate into `ψ`'s gradient, and the first
    /// layer's input gradient, which nobody reads, is never formed.
    fn backward(&mut self, x: &[f32], bsz: usize, dlogits: &[f32]) {
        let _pass = span("nn.backward");
        let mut grad = workspace::take_uninit(dlogits.len());
        grad.copy_from_slice(dlogits);
        let Parameter { value, grad: dpsi } = &mut self.param;
        let banks = carve(&self.layers, &[value.data()]);
        let mut params =
            banks.iter().map(|(wt, _)| wt[0]).zip(carve_mut(&self.layers, dpsi.data_mut())).rev();
        // The slab entering the layer after the current one: what a ReLU
        // produced.
        let mut after = None;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            // The slab this layer read; the first layer read `x`.
            let mut input = || (i > 0).then(|| self.tape.inputs.pop().expect("a taped input"));
            match *layer {
                LayerSpec::Conv { conv, h, w } => {
                    let input = input();
                    let Some((wt, (dw, db))) = params.next() else { unreachable!() };
                    let mut d_in = input.as_ref().map(|x| workspace::take_zeroed(x.len()));
                    let input_grad = d_in.as_deref_mut().map(|d| (wt, d));
                    let x = input.as_deref().unwrap_or(x);
                    conv2d_backward_into(x, bsz, h, w, &conv, &grad, input_grad, dw, db);
                    grad = d_in.unwrap_or(grad);
                    after = input;
                }
                LayerSpec::Linear { inputs, outputs } => {
                    let input = input();
                    let Some((wt, (dw, db))) = params.next() else { unreachable!() };
                    let x = input.as_deref().unwrap_or(x);
                    accumulate_param_grads(x, &grad, dw, db);
                    if input.is_some() {
                        let mut d_in = workspace::take_zeroed(bsz * inputs);
                        matmul_into(bsz, inputs, outputs, &grad, wt, &mut d_in);
                        grad = d_in;
                    }
                    after = input;
                }
                LayerSpec::MaxPool { ch, h, w, .. } => {
                    let argmax = self.tape.argmax.pop().expect("a taped argmax");
                    let mut d_in = workspace::take_zeroed(bsz * ch * h * w);
                    maxpool2d_backward_into(&grad, &argmax, &mut d_in);
                    grad = d_in;
                    after = input();
                }
                LayerSpec::Relu => {
                    relu_backward(&mut grad, after.as_deref().expect("a ReLU feeds a layer"));
                }
                LayerSpec::Flatten => {}
            }
        }
    }

    /// Accuracy over a dataset, evaluated in mini-batches of `batch`: the
    /// batched scorer's pass with this one model as its only group, so the
    /// score is the same bits either way and a warm evaluation performs
    /// zero workspace allocations (`crates/nn/tests/alloc_free.rs`).
    pub fn evaluate(&mut self, x: &Tensor, y: &[usize], batch: usize) -> f32 {
        let n = x.dim(0);
        assert_eq!(y.len(), n);
        if n == 0 {
            return 0.0;
        }
        let banks = carve(&self.layers, &[self.param.value.data()]);
        let correct = correct_counts(&self.spec, &[banks], x, y, batch);
        correct[0] as f32 / n as f32
    }

    /// Predicted class per row.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.logits(x, false).argmax_rows()
    }
}

impl Module for Classifier {
    fn visit_params(&self, f: &mut dyn FnMut(&Parameter)) {
        f(&self.param);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.param);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use crate::layer::Bank;
    use crate::optim::Sgd;

    #[test]
    fn mlp_param_count() {
        let mut rng = SeededRng::new(0);
        let spec = ClassifierSpec::Mlp { hidden: 32 };
        let clf = Classifier::new(&spec, &mut rng);
        assert_eq!(clf.get_params().len(), spec.num_params());
    }

    #[test]
    fn params_round_trip() {
        let mut rng = SeededRng::new(1);
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let clf = Classifier::new(&spec, &mut rng);
        let p = clf.get_params();
        let clf2 = Classifier::from_params(&spec, &p);
        assert_eq!(clf2.get_params(), p);
    }

    #[test]
    #[should_panic(expected = "parameter vector length")]
    fn from_params_rejects_a_wrong_length() {
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        Classifier::from_params(&spec, &vec![0.0; spec.num_params() + 1]);
    }

    #[test]
    fn cnn_forward_shape() {
        let mut rng = SeededRng::new(2);
        let mut clf = Classifier::new(&ClassifierSpec::TableIICnn, &mut rng);
        let x = Tensor::randn(&[2, 784], &mut rng);
        let logits = clf.logits(&x, false);
        assert_eq!(logits.dims(), &[2, 10]);
    }

    #[test]
    fn mlp_learns_a_separable_task() {
        let mut rng = SeededRng::new(3);
        let spec = ClassifierSpec::Mlp { hidden: 16 };
        let mut clf = Classifier::new(&spec, &mut rng);
        // Class = brightest quadrant indicator in a crude synthetic pattern.
        let n = 64;
        let mut xs = vec![0.0f32; n * 784];
        let mut ys = vec![0usize; n];
        for i in 0..n {
            let c = i % 2;
            ys[i] = c;
            for j in 0..784 {
                let bright = if c == 0 { j < 392 } else { j >= 392 };
                xs[i * 784 + j] = if bright { 0.8 } else { 0.1 } + 0.05 * rng.next_normal();
            }
        }
        let x = Tensor::from_vec(xs, &[n, 784]);
        let mut sgd = Sgd::new(0.1);
        for _ in 0..30 {
            clf.train_batch(&x, &ys, &mut sgd);
        }
        assert!(clf.evaluate(&x, &ys, 32) > 0.95);
    }

    /// One SGD step taken layer by layer through fg-tensor's `Tensor` entry
    /// points, with a full backward: the first layer's input gradient is
    /// formed and dropped.
    fn full_backward_step(clf: &mut Classifier, x: &Tensor, y: &[usize], sgd: &mut Sgd) {
        use fg_tensor::conv::{conv2d_backward_acc, conv2d_forward};
        use fg_tensor::kernels::{matmul, matmul_at_acc, matmul_bt_bias};
        use fg_tensor::pool::{maxpool2d_backward, maxpool2d_forward, MaxPool2dSpec};

        clf.zero_grad();
        let layers = clf.layers.clone();
        // Each parameterised layer's weight and bias as `(outputs, fan_in)`
        // and `(outputs)` tensors, front to back: of `ψ`, and of its
        // gradient.
        let tensors = |flat: &[f32]| -> Vec<Tensor> {
            let shaped = |(w, b): Bank<'_>| {
                let outputs = b[0].len();
                let weight = Tensor::from_vec(w[0].to_vec(), &[outputs, w[0].len() / outputs]);
                [weight, Tensor::from_vec(b[0].to_vec(), &[outputs])]
            };
            carve(&layers, &[flat]).into_iter().flat_map(shaped).collect()
        };
        let (params, mut grads) = (tensors(clf.param.value.data()), tensors(clf.param.grad.data()));
        // The tensor entering each layer, and each pool's argmax.
        let (mut inputs, mut argmax) = (Vec::new(), Vec::new());
        let mut act = x.clone();
        let mut p = 0;
        for layer in &layers {
            let next = match *layer {
                LayerSpec::Conv { conv, h, w } => {
                    let img = act.clone().reshape(&[act.dim(0), conv.in_ch, h, w]);
                    p += 2;
                    conv2d_forward(&img, &params[p - 2], &params[p - 1], &conv)
                }
                LayerSpec::Relu => act.map(|v| v.max(0.0)),
                LayerSpec::MaxPool { k, .. } => {
                    let out = maxpool2d_forward(&act, &MaxPool2dSpec { k });
                    argmax.push(out.argmax);
                    out.output
                }
                LayerSpec::Flatten => act.clone().reshape(&[act.dim(0), act.numel() / act.dim(0)]),
                LayerSpec::Linear { .. } => {
                    p += 2;
                    matmul_bt_bias(&act, &params[p - 2], &params[p - 1])
                }
            };
            inputs.push(std::mem::replace(&mut act, next));
        }
        let (_, mut g) = loss::softmax_cross_entropy(&act, y);
        for (layer, input) in layers.iter().zip(&inputs).rev() {
            g = match *layer {
                LayerSpec::Conv { conv, h, w } => {
                    let img = input.clone().reshape(&[input.dim(0), conv.in_ch, h, w]);
                    p -= 2;
                    let [dw, db] = &mut grads[p..p + 2] else { unreachable!() };
                    conv2d_backward_acc(&img, &params[p], &g, &conv, dw, db)
                }
                LayerSpec::Relu => {
                    let mask = input.data().iter().zip(g.data());
                    let d = mask.map(|(&v, &d)| if v > 0.0 { d } else { 0.0 }).collect();
                    Tensor::from_vec(d, g.dims())
                }
                LayerSpec::MaxPool { .. } => {
                    maxpool2d_backward(&g, &argmax.pop().unwrap(), input.dims())
                }
                LayerSpec::Flatten => g.reshape(input.dims()),
                LayerSpec::Linear { .. } => {
                    p -= 2;
                    let [dw, db] = &mut grads[p..p + 2] else { unreachable!() };
                    matmul_at_acc(&g, input, dw);
                    for r in 0..g.dim(0) {
                        for (d, &v) in db.data_mut().iter_mut().zip(g.row(r)) {
                            *d += v;
                        }
                    }
                    matmul(&g, &params[p])
                }
            };
        }
        assert_eq!(g.numel(), x.numel(), "the first layer's input gradient was formed");
        let dpsi: Vec<f32> = grads.iter().flat_map(Tensor::data).copied().collect();
        clf.param.grad.data_mut().copy_from_slice(&dpsi);
        sgd.step(clf);
    }

    #[test]
    fn params_only_first_layer_trains_to_the_same_bits_as_a_full_backward() {
        for spec in [ClassifierSpec::Mlp { hidden: 64 }, ClassifierSpec::TableIICnn] {
            let mut rng = SeededRng::new(11);
            let x = Tensor::rand_uniform(&[6, 784], 0.0, 1.0, &mut rng);
            let y = vec![3usize, 1, 4, 1, 5, 9];
            let mut lean = Classifier::new(&spec, &mut SeededRng::new(12));
            let mut full = Classifier::new(&spec, &mut SeededRng::new(12));
            let (mut sgd_lean, mut sgd_full) =
                (Sgd::with_momentum(0.05, 0.9), Sgd::with_momentum(0.05, 0.9));
            for _ in 0..3 {
                lean.train_batch(&x, &y, &mut sgd_lean);
                full_backward_step(&mut full, &x, &y, &mut sgd_full);
            }
            assert_eq!(bits(&lean.get_params()), bits(&full.get_params()), "{spec:?}");
        }
    }

    #[test]
    fn evaluate_counts_the_rows_predict_gets_right() {
        for spec in [ClassifierSpec::Mlp { hidden: 16 }, ClassifierSpec::TableIICnn] {
            let mut rng = SeededRng::new(6);
            let mut clf = Classifier::new(&spec, &mut rng);
            let x = Tensor::rand_uniform(&[19, 784], 0.0, 1.0, &mut rng);
            let y: Vec<usize> =
                clf.predict(&x).iter().enumerate().map(|(i, &c)| (c + i % 3) % 10).collect();
            let right = clf.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count();
            assert_eq!(clf.evaluate(&x, &y, 4), right as f32 / 19.0, "{spec:?}");
        }
    }

    #[test]
    fn a_train_step_consumes_everything_its_forward_kept() {
        for spec in [ClassifierSpec::Mlp { hidden: 8 }, ClassifierSpec::TableIICnn] {
            let mut rng = SeededRng::new(7);
            let mut clf = Classifier::new(&spec, &mut rng);
            let x = Tensor::rand_uniform(&[3, 784], 0.0, 1.0, &mut rng);
            clf.train_batch(&x, &[1, 2, 3], &mut Sgd::new(0.1));
            assert!(clf.tape.inputs.is_empty() && clf.tape.argmax.is_empty(), "{spec:?}");
        }
    }

    #[test]
    fn evaluate_handles_partial_batches() {
        let mut rng = SeededRng::new(4);
        let mut clf = Classifier::new(&ClassifierSpec::Mlp { hidden: 8 }, &mut rng);
        let x = Tensor::randn(&[7, 784], &mut rng);
        let y = vec![0usize; 7];
        let acc = clf.evaluate(&x, &y, 3);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn evaluate_rejects_a_zero_batch() {
        // `hi = (lo + 0).min(n)` would never advance.
        let mut rng = SeededRng::new(4);
        let mut clf = Classifier::new(&ClassifierSpec::Mlp { hidden: 8 }, &mut rng);
        clf.evaluate(&Tensor::zeros(&[3, 784]), &[0, 1, 2], 0);
    }

    #[test]
    fn evaluate_empty_dataset_is_zero() {
        let mut rng = SeededRng::new(5);
        let mut clf = Classifier::new(&ClassifierSpec::Mlp { hidden: 8 }, &mut rng);
        let x = Tensor::zeros(&[0, 784]);
        assert_eq!(clf.evaluate(&x, &[], 4), 0.0);
    }
}
