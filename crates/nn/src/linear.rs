//! Fully connected layers: the initialiser every model's flat vector is
//! drawn from, and the slice bodies the CVAE and VAE passes run.

use crate::layer::{Bank, Module, Parameter};
use fg_tensor::kernels::{matmul_at_into, matmul_bt_bias_grouped, matmul_into, GroupedA};
use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;

/// `y = x · Wᵀ + b` with weights stored `(out_features, in_features)`: the
/// initial draw of one layer of a model's flat vector (see
/// [`crate::layer::LayerSpec`]), and a stand-alone module the optimizers
/// can step.
pub struct Linear {
    pub weight: Parameter,
    pub bias: Parameter,
}

impl Linear {
    /// Kaiming-uniform initialized linear layer (ReLU-friendly).
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        let weight = Tensor::kaiming_uniform(&[out_features, in_features], in_features, rng);
        let bound = 1.0 / (in_features as f32).sqrt();
        let bias = Tensor::rand_uniform(&[out_features], -bound, bound, rng);
        Linear { weight: Parameter::new(weight), bias: Parameter::new(bias) }
    }
}

impl Module for Linear {
    fn visit_params(&self, f: &mut dyn FnMut(&Parameter)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// `x · Wᵀ + b` for a `(rows, in)` input `x` through a one-group `bank`:
/// the engine's grouped launch with a single group.
pub(crate) fn forward(x: &Tensor, (w, b): &Bank<'_>) -> Tensor {
    let (rows, outputs) = (x.dim(0), b[0].len());
    let mut y = vec![0.0; rows * outputs];
    matmul_bt_bias_grouped(rows, outputs, x.dim(1), GroupedA::Shared(x.data()), w, b, &mut y);
    Tensor::from_vec(y, &[rows, outputs])
}

/// Backprop the upstream gradient `g` of the [`forward`] that read `x`
/// through `bank`: accumulate the parameter gradients into `(dw, db)` and
/// return `dx = g · W`.
pub(crate) fn backward(
    x: &Tensor,
    g: &Tensor,
    (w, _): &Bank<'_>,
    (dw, db): (&mut [f32], &mut [f32]),
) -> Tensor {
    accumulate_param_grads(x.data(), g.data(), dw, db);
    let mut dx = vec![0.0; x.numel()];
    matmul_into(x.dim(0), x.dim(1), db.len(), g.data(), w[0], &mut dx);
    Tensor::from_vec(dx, x.dims())
}

/// The parameter half of a linear backward, for a `(batch, in)` input `x`
/// and its `(batch, out)` upstream gradient `g`: `dW += gᵀ · x` `(out, in)`
/// accumulated straight into the gradient, and `db +=` the column sums of
/// `g`, row by row. Every linear layer of the crate, the classifier's
/// included, backpropagates its parameters through this one function.
pub(crate) fn accumulate_param_grads(x: &[f32], g: &[f32], dw: &mut [f32], db: &mut [f32]) {
    let (outputs, inputs) = (db.len(), dw.len() / db.len());
    matmul_at_into(outputs, inputs, g.len() / outputs, g, x, dw);
    for row in g.chunks_exact(outputs) {
        for (d, &v) in db.iter_mut().zip(row) {
            *d += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bits, loss};

    /// The one-group bank of `l`'s parameters.
    fn bank(l: &Linear) -> Bank<'_> {
        (vec![l.weight.value.data()], vec![l.bias.value.data()])
    }

    /// [`backward`] through `l`, into `l`'s gradients.
    fn backward_through(l: &mut Linear, x: &Tensor, g: &Tensor) -> Tensor {
        let Linear { weight, bias } = l;
        let bank = (vec![weight.value.data()], vec![bias.value.data()]);
        backward(x, g, &bank, (weight.grad.data_mut(), bias.grad.data_mut()))
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = SeededRng::new(0);
        let mut l = Linear::new(3, 2, &mut rng);
        l.weight.value.fill(0.0);
        l.bias.value.data_mut().copy_from_slice(&[1.0, -1.0]);
        let x = Tensor::ones(&[4, 3]);
        let y = forward(&x, &bank(&l));
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeededRng::new(1);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let targets = vec![0usize, 2];

        // Analytic gradients through a softmax-CE head.
        let logits = forward(&x, &bank(&l));
        let (_, dlogits) = loss::softmax_cross_entropy(&logits, &targets);
        let dx = backward_through(&mut l, &x, &dlogits);

        let loss_fn = |l_: &Linear, x_: &Tensor| {
            let logits = forward(x_, &bank(l_));
            loss::softmax_cross_entropy(&logits, &targets).0
        };

        let eps = 1e-3f32;
        for i in 0..l.weight.value.numel() {
            let orig = l.weight.value.data()[i];
            l.weight.value.data_mut()[i] = orig + eps;
            let lp = loss_fn(&l, &x);
            l.weight.value.data_mut()[i] = orig - eps;
            let lm = loss_fn(&l, &x);
            l.weight.value.data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = l.weight.grad.data()[i];
            assert!((num - ana).abs() < 1e-2 * (1.0 + num.abs()), "dW[{i}] {num} vs {ana}");
        }
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss_fn(&l, &xp) - loss_fn(&l, &xm)) / (2.0 * eps);
            let ana = dx.data()[i];
            assert!((num - ana).abs() < 1e-2 * (1.0 + num.abs()), "dX[{i}] {num} vs {ana}");
        }
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = SeededRng::new(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        backward_through(&mut l, &x, &g);
        let once = l.weight.grad.clone();
        backward_through(&mut l, &x, &g);
        let twice = l.weight.grad.clone();
        for (a, b) in once.data().iter().zip(twice.data()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn params_only_backward_accumulates_the_same_gradient_bits() {
        let mut rng = SeededRng::new(5);
        for (batch, fan_in, fan_out) in [(32, 794, 100), (6, 794, 100), (3, 5, 2)] {
            let mut full = Linear::new(fan_in, fan_out, &mut rng);
            let mut lean = Linear { weight: full.weight.clone(), bias: full.bias.clone() };
            let x = Tensor::randn(&[batch, fan_in], &mut rng);
            let g = Tensor::randn(&[batch, fan_out], &mut rng);
            // Twice, so the second pass accumulates onto a non-zero gradient.
            for _ in 0..2 {
                backward_through(&mut full, &x, &g);
                let (dw, db) = (lean.weight.grad.data_mut(), lean.bias.grad.data_mut());
                accumulate_param_grads(x.data(), g.data(), dw, db);
            }
            assert_eq!(bits(lean.weight.grad.data()), bits(full.weight.grad.data()));
            assert_eq!(bits(lean.bias.grad.data()), bits(full.bias.grad.data()));
        }
    }

    #[test]
    fn param_count() {
        let mut rng = SeededRng::new(4);
        let l = Linear::new(784, 512, &mut rng);
        assert_eq!(l.num_params(), 784 * 512 + 512);
    }
}
