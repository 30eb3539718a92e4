//! First-order optimizers.
//!
//! Optimizer state is addressed by parameter visit order, which the
//! [`crate::layer::Module`] contract guarantees to be deterministic: each
//! state vector is one flat arena over all parameters in that order, sized on
//! the first step. The paper trains the classifier with SGD and the CVAE with
//! Adam (the standard choices for these models); both are provided.
//!
//! A step is one elementwise pass per parameter, compiled by
//! [`fg_tensor::simd::run`] for the widest vector level: it reads each
//! gradient element once, applies it, and stores `+0.0` in its place. The
//! passes contract no multiply-add and reassociate nothing, so every level
//! gives the same bits.

use crate::layer::{Module, Parameter};
use fg_tensor::simd::{self, Kernel};

/// A stateful first-order update rule.
pub trait Optimizer {
    /// Apply one update step from the gradients stored in the module's
    /// parameters, and leave every gradient element `+0.0`: a step consumes
    /// its gradient. A fresh [`Parameter`] starts with a zero gradient, so a
    /// training step needs no [`Module::zero_grad`] before its backward
    /// pass; only a caller that accumulates gradients without stepping does.
    fn step(&mut self, module: &mut dyn Module);
}

/// `arena` as one state slot per parameter element of `module`, in visit
/// order; zero-filled on the first step.
fn arena<'a>(arena: &'a mut Vec<f32>, module: &dyn Module) -> &'a mut [f32] {
    let total = module.num_params();
    if arena.is_empty() {
        arena.resize(total, 0.0);
    }
    assert_eq!(arena.len(), total, "optimizer state / parameter mismatch");
    arena
}

/// Stochastic gradient descent with optional momentum.
pub struct Sgd {
    pub lr: f32,
    pub momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum, velocity: Vec::new() }
    }
}

/// `w -= lr·g`, or with momentum `vel = momentum·vel + g; w -= lr·vel`;
/// then `g = 0`.
struct SgdPass<'a> {
    lr: f32,
    momentum: f32,
    w: &'a mut [f32],
    g: &'a mut [f32],
    velocity: &'a mut [f32],
}

impl Kernel for SgdPass<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let (lr, momentum) = (self.lr, self.momentum);
        if momentum > 0.0 {
            for ((w, g), vel) in self.w.iter_mut().zip(self.g.iter_mut()).zip(self.velocity) {
                *vel = momentum * *vel + *g;
                *w -= lr * *vel;
                *g = 0.0;
            }
        } else {
            for (w, g) in self.w.iter_mut().zip(self.g.iter_mut()) {
                *w -= lr * *g;
                *g = 0.0;
            }
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, module: &mut dyn Module) {
        let (lr, momentum) = (self.lr, self.momentum);
        let velocity = arena(&mut self.velocity, module);
        let mut offset = 0;
        module.visit_params_mut(&mut |p| {
            let Parameter { value, grad } = p;
            let n = value.numel();
            simd::run(SgdPass {
                lr,
                momentum,
                w: value.data_mut(),
                g: grad.data_mut(),
                velocity: &mut velocity[offset..][..n],
            });
            offset += n;
        });
    }
}

/// Adam (Kingma & Ba) with bias correction.
///
/// Step `t` hoists the bias corrections out of the per-element pass:
/// `step = lr / (1 − β1^t)` and `inv_bc2 = 1 / (1 − β2^t)`, then per element
/// `m = β1·m + (1−β1)·g`, `v = β2·v + (1−β2)·g·g` and
/// `w −= step·m / (√(v·inv_bc2) + ε)` — one division and one square root.
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

/// One Adam step over one parameter's slices; see [`Adam`].
struct AdamPass<'a> {
    beta1: f32,
    beta2: f32,
    step: f32,
    inv_bc2: f32,
    eps: f32,
    w: &'a mut [f32],
    g: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
}

impl Kernel for AdamPass<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let (b1, b2, step, inv_bc2, eps) =
            (self.beta1, self.beta2, self.step, self.inv_bc2, self.eps);
        let elems = self.w.iter_mut().zip(self.g.iter_mut()).zip(self.m).zip(self.v);
        for (((w, g), m), v) in elems {
            *m = b1 * *m + (1.0 - b1) * *g;
            *v = b2 * *v + (1.0 - b2) * *g * *g;
            *w -= step * *m / ((*v * inv_bc2).sqrt() + eps);
            *g = 0.0;
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, module: &mut dyn Module) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, eps) = (self.beta1, self.beta2, self.eps);
        let (step, inv_bc2) = (self.lr / bc1, 1.0 / bc2);
        let (m, v) = (arena(&mut self.m, module), arena(&mut self.v, module));
        let mut offset = 0;
        module.visit_params_mut(&mut |p| {
            let Parameter { value, grad } = p;
            let n = value.numel();
            simd::run(AdamPass {
                beta1,
                beta2,
                step,
                inv_bc2,
                eps,
                w: value.data_mut(),
                g: grad.data_mut(),
                m: &mut m[offset..][..n],
                v: &mut v[offset..][..n],
            });
            offset += n;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{self, accumulate_param_grads, Linear};
    use crate::loss::softmax_cross_entropy;
    use fg_tensor::rng::SeededRng;
    use fg_tensor::simd::{run_at, Level};
    use fg_tensor::Tensor;

    fn train_toy(optim: &mut dyn Optimizer, steps: usize) -> f32 {
        // Learn to classify two well-separated gaussian blobs.
        let mut rng = SeededRng::new(0);
        let mut net = Linear::new(2, 2, &mut rng);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let c = i % 2;
            let center = if c == 0 { -2.0 } else { 2.0 };
            xs.push(center + 0.3 * rng.next_normal());
            xs.push(center + 0.3 * rng.next_normal());
            ys.push(c);
        }
        let x = Tensor::from_vec(xs, &[40, 2]);
        let mut last = f32::MAX;
        for _ in 0..steps {
            let logits =
                linear::forward(&x, &(vec![net.weight.value.data()], vec![net.bias.value.data()]));
            let (loss, grad) = softmax_cross_entropy(&logits, &ys);
            let (dw, db) = (net.weight.grad.data_mut(), net.bias.grad.data_mut());
            accumulate_param_grads(x.data(), grad.data(), dw, db);
            optim.step(&mut net);
            last = loss;
        }
        last
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut sgd = Sgd::new(0.1);
        assert!(train_toy(&mut sgd, 50) < 0.1);
    }

    #[test]
    fn sgd_momentum_reduces_loss() {
        let mut sgd = Sgd::with_momentum(0.05, 0.9);
        assert!(train_toy(&mut sgd, 50) < 0.1);
    }

    #[test]
    fn adam_reduces_loss() {
        let mut adam = Adam::new(0.05);
        assert!(train_toy(&mut adam, 50) < 0.1);
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut rng = SeededRng::new(1);
        let mut net = Linear::new(1, 1, &mut rng);
        let before: Vec<f32> = {
            let mut v = Vec::new();
            net.visit_params(&mut |p| v.extend_from_slice(p.value.data()));
            v
        };
        net.visit_params_mut(&mut |p| p.grad.fill(1.0));
        Sgd::new(0.5).step(&mut net);
        let mut after = Vec::new();
        net.visit_params(&mut |p| after.extend_from_slice(p.value.data()));
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a - 0.5).abs() < 1e-6, "{b} -> {a}");
        }
    }

    /// Per-element inputs of a pass: 1003 elements (whole vectors and a
    /// ragged tail) spanning signs, magnitudes down to subnormal, and zeros.
    fn pass_inputs(seed: u64) -> [Vec<f32>; 4] {
        let mut rng = SeededRng::new(seed);
        let mut draw = |scale: f32| -> Vec<f32> {
            (0..1003)
                .map(|i| match i % 11 {
                    0 => 0.0,
                    1 => 1e-40,
                    _ => scale * rng.next_normal() * 10f32.powi(i % 7 - 3),
                })
                .collect()
        };
        [draw(1.0), draw(1.0), draw(0.1), draw(0.1).iter().map(|v| v * v).collect()]
    }

    /// Run `pass` on fresh copies of [`pass_inputs`] at every offered level
    /// and require one set of bits: the outputs, and a gradient of `+0.0`.
    fn assert_level_independent(pass: impl Fn(Level, &mut [Vec<f32>; 4])) {
        let mut reference: Option<Vec<Vec<u32>>> = None;
        for level in Level::offered() {
            let mut slots = pass_inputs(5);
            pass(level, &mut slots);
            assert!(slots[1].iter().all(|g| g.to_bits() == 0), "{level:?} left a gradient");
            let bits: Vec<Vec<u32>> = slots.iter().map(|s| crate::bits(s)).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "{level:?} diverged from the scalar pass"),
            }
        }
    }

    #[test]
    fn adam_pass_is_bit_identical_at_every_vector_level() {
        assert_level_independent(|level, [w, g, m, v]| {
            let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);
            let (step, inv_bc2) = (2e-3 / (1.0 - 0.9f32.powi(3)), 1.0 / (1.0 - 0.999f32.powi(3)));
            run_at(level, AdamPass { beta1, beta2, step, inv_bc2, eps, w, g, m, v });
        });
    }

    #[test]
    fn sgd_passes_are_bit_identical_at_every_vector_level() {
        for momentum in [0.0, 0.9] {
            assert_level_independent(|level, [w, g, velocity, _]| {
                run_at(level, SgdPass { lr: 0.05, momentum, w, g, velocity });
            });
        }
    }
}
