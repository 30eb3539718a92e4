//! The federated MNIST classifier `f_ψ`.

use crate::activations::ReLU;
use crate::conv_layer::Conv2d;
use crate::layer::{Layer, Module, Parameter};
use crate::linear::Linear;
use crate::loss;
use crate::optim::Optimizer;
use crate::params;
use crate::pool_layer::{Flatten, MaxPool2d};
use crate::sequential::Sequential;
use fg_tensor::conv::Conv2dSpec;
use fg_tensor::rng::SeededRng;
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

/// One layer of a classifier architecture with every shape it needs; the
/// flat parameter vector holds each parameterised layer's weight then bias,
/// layers front to back (the `params::flatten` visit order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerSpec {
    /// Stride-1 convolution over `(in_ch, h, w)` activations.
    Conv {
        conv: Conv2dSpec,
        h: usize,
        w: usize,
    },
    Relu,
    /// `k×k` max pool (stride `k`) over `(ch, h, w)` activations.
    MaxPool {
        ch: usize,
        h: usize,
        w: usize,
        k: usize,
    },
    /// `(ch, h, w)` → features; a no-op on row-major data.
    Flatten,
    Linear {
        inputs: usize,
        outputs: usize,
    },
}

impl LayerSpec {
    /// `(weight, bias)` scalar counts; `(0, 0)` for a parameter-free layer.
    pub fn param_lens(&self) -> (usize, usize) {
        match *self {
            LayerSpec::Conv { conv, .. } => (conv.out_ch * conv.patch_len(), conv.out_ch),
            LayerSpec::Linear { inputs, outputs } => (outputs * inputs, outputs),
            LayerSpec::Relu | LayerSpec::MaxPool { .. } | LayerSpec::Flatten => (0, 0),
        }
    }

    /// Activation scalars per sample leaving this layer, given `in_len`
    /// entering it; panics when `in_len` is not what the layer consumes.
    pub fn out_len(&self, in_len: usize) -> usize {
        let (consumes, produces) = match *self {
            LayerSpec::Conv { conv, h, w } => {
                let (oh, ow) = conv.out_size(h, w);
                (conv.in_ch * h * w, conv.out_ch * oh * ow)
            }
            LayerSpec::MaxPool { ch, h, w, k } => (ch * h * w, ch * (h / k) * (w / k)),
            LayerSpec::Linear { inputs, outputs } => (inputs, outputs),
            LayerSpec::Relu | LayerSpec::Flatten => (in_len, in_len),
        };
        assert_eq!(in_len, consumes, "{self:?}: input length mismatch");
        produces
    }
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
    /// [`Self::num_params`], [`Classifier::new`] and the batched scorer's
    /// parameter offsets and launch sequence are all read off this list.
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
        self.layers().iter().map(LayerSpec::param_lens).map(|(w, b)| w + b).sum()
    }
}

/// A classifier instance: architecture plus parameter state.
pub struct Classifier {
    spec: ClassifierSpec,
    net: Sequential,
    /// `(in_ch, h, w)` the flat input rows are viewed as when the first layer
    /// is a convolution.
    image_dims: Option<[usize; 3]>,
    /// Mini-batch staging tensor recycled across [`Classifier::evaluate`]
    /// calls (taken around the forward pass, put back after), so scoring
    /// does not allocate a fresh input copy per mini-batch.
    eval_stage: Option<Tensor>,
}

impl Classifier {
    /// Freshly initialized classifier: one layer object per
    /// [`ClassifierSpec::layers`] entry, constructed front to back (the order
    /// the RNG draws follow).
    pub fn new(spec: &ClassifierSpec, rng: &mut SeededRng) -> Self {
        let layers = spec.layers();
        let image_dims = match layers.first() {
            Some(&LayerSpec::Conv { conv, h, w }) => Some([conv.in_ch, h, w]),
            _ => None,
        };
        let net = layers.into_iter().fold(Sequential::new(), |net, layer| match layer {
            LayerSpec::Conv { conv, .. } => {
                net.push(Conv2d::new(conv.in_ch, conv.out_ch, conv.kh, conv.pad, rng))
            }
            LayerSpec::Relu => net.push(ReLU::new()),
            LayerSpec::MaxPool { k, .. } => net.push(MaxPool2d::new(k)),
            LayerSpec::Flatten => net.push(Flatten::new()),
            LayerSpec::Linear { inputs, outputs } => net.push(Linear::new(inputs, outputs, rng)),
        });
        Classifier { spec: *spec, net, image_dims, eval_stage: None }
    }

    /// Classifier constructed from a flat parameter vector `ψ`.
    pub fn from_params(spec: &ClassifierSpec, flat: &[f32]) -> Self {
        // Seed is irrelevant: every weight is overwritten by `flat`.
        let mut clf = Classifier::new(spec, &mut SeededRng::new(0));
        params::load(&mut clf.net, flat);
        clf
    }

    pub fn spec(&self) -> &ClassifierSpec {
        &self.spec
    }

    /// Flat parameter vector `ψ`.
    pub fn get_params(&self) -> Vec<f32> {
        params::flatten(&self.net)
    }

    /// Raw class logits for a batch of flattened images `(batch, 784)`.
    pub fn logits(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.dim(1), self.spec.input_dim(), "classifier expects flattened 28x28 images");
        match self.image_dims {
            Some([c, h, w]) => self.net.forward(&x.view(&[x.dim(0), c, h, w]), train),
            None => self.net.forward(x, train),
        }
    }

    /// One optimizer step on a mini-batch; returns the batch loss.
    pub fn train_batch(&mut self, x: &Tensor, y: &[usize], optim: &mut dyn Optimizer) -> f32 {
        self.net.zero_grad();
        let logits = self.logits(x, true);
        let (loss, dlogits) = loss::softmax_cross_entropy(&logits, y);
        self.net.backward_params(&dlogits);
        optim.step(&mut self.net);
        loss
    }

    /// Accuracy over a dataset, evaluated in mini-batches of `batch`.
    ///
    /// The scoring hot path of FedGuard's audit: the mini-batch slice is
    /// staged into one recycled tensor instead of a fresh `slice_rows` copy
    /// per batch, and the row argmax + label comparison is inlined (same
    /// scan and tie-breaking as [`Tensor::argmax_rows`]) instead of
    /// materializing a predictions vector — so a warm evaluation performs
    /// zero workspace allocations (`crates/nn/tests/alloc_free.rs`).
    pub fn evaluate(&mut self, x: &Tensor, y: &[usize], batch: usize) -> f32 {
        let n = x.dim(0);
        assert_eq!(y.len(), n);
        if n == 0 {
            return 0.0;
        }
        assert!(batch > 0, "evaluate: batch must be positive");
        let cols = x.dim(1);
        let data = x.data();
        let mut correct = 0usize;
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + batch).min(n);
            let bsz = hi - lo;
            let mut stage = match self.eval_stage.take() {
                Some(t) if t.dims() == [bsz, cols] => t,
                _ => Tensor::zeros(&[bsz, cols]),
            };
            stage.data_mut().copy_from_slice(&data[lo * cols..hi * cols]);
            let logits = self.logits(&stage, false);
            self.eval_stage = Some(stage);
            let classes = logits.dim(1);
            let lg = logits.data();
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
                    correct += 1;
                }
            }
            lo = hi;
        }
        correct as f32 / n as f32
    }

    /// Predicted class per row.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.logits(x, false).argmax_rows()
    }
}

impl Module for Classifier {
    fn visit_params(&self, f: &mut dyn FnMut(&Parameter)) {
        self.net.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.net.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use crate::optim::Sgd;

    #[test]
    fn table_ii_weight_count_matches_paper() {
        // The paper counts weights only (no biases): 1,662,752.
        let mut rng = SeededRng::new(0);
        let clf = Classifier::new(&ClassifierSpec::TableIICnn, &mut rng);
        let mut weights_only = 0usize;
        let mut total = 0usize;
        clf.visit_params(&mut |p| {
            total += p.numel();
            if p.value.shape().rank() > 1 {
                weights_only += p.numel();
            }
        });
        assert_eq!(weights_only, 1_662_752);
        assert_eq!(total, ClassifierSpec::TableIICnn.num_params());
    }

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

    #[test]
    fn params_only_first_layer_trains_to_the_same_bits_as_a_full_backward() {
        for spec in [ClassifierSpec::Mlp { hidden: 64 }, ClassifierSpec::TableIICnn] {
            let mut rng = SeededRng::new(11);
            let x = Tensor::rand_uniform(&[6, 784], 0.0, 1.0, &mut rng);
            let y = vec![3usize, 1, 4, 1, 5, 9];
            let mut lean = Classifier::new(&spec, &mut SeededRng::new(12));
            // The same stack, stepped the pre-elision way: a full backward
            // through every layer, the first one's input gradient included.
            let mut full = Classifier::new(&spec, &mut SeededRng::new(12));
            let (mut sgd_lean, mut sgd_full) =
                (Sgd::with_momentum(0.05, 0.9), Sgd::with_momentum(0.05, 0.9));
            for _ in 0..3 {
                lean.train_batch(&x, &y, &mut sgd_lean);

                full.net.zero_grad();
                let logits = full.logits(&x, true);
                let (_, dlogits) = loss::softmax_cross_entropy(&logits, &y);
                full.net.backward(&dlogits);
                sgd_full.step(&mut full.net);
            }
            assert_eq!(bits(&lean.get_params()), bits(&full.get_params()), "{spec:?}");
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
