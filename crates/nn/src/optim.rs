//! First-order optimizers.
//!
//! Optimizer state is addressed by parameter visit order, which the
//! [`crate::layer::Module`] contract guarantees to be deterministic. The
//! paper trains the classifier with SGD and the CVAE with Adam (the standard
//! choices for these models); both are provided.

use crate::layer::Module;

/// A stateful first-order update rule.
pub trait Optimizer {
    /// Apply one update step using the gradients currently stored in the
    /// module's parameters, then leave gradients untouched (callers usually
    /// `zero_grad` before the next backward pass).
    fn step(&mut self, module: &mut dyn Module);
}

/// Stochastic gradient descent with optional momentum.
pub struct Sgd {
    pub lr: f32,
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum, velocity: Vec::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, module: &mut dyn Module) {
        let mut idx = 0usize;
        let lr = self.lr;
        let momentum = self.momentum;
        let velocity = &mut self.velocity;
        module.visit_params_mut(&mut |p| {
            if velocity.len() <= idx {
                velocity.push(vec![0.0; p.numel()]);
            }
            let v = &mut velocity[idx];
            assert_eq!(v.len(), p.numel(), "optimizer state / parameter mismatch");
            let value = p.value.data_mut();
            let grad = p.grad.data();
            if momentum > 0.0 {
                for ((w, &g), vel) in value.iter_mut().zip(grad).zip(v.iter_mut()) {
                    *vel = momentum * *vel + g;
                    *w -= lr * *vel;
                }
            } else {
                for (w, &g) in value.iter_mut().zip(grad) {
                    *w -= lr * g;
                }
            }
            idx += 1;
        });
    }
}

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, module: &mut dyn Module) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let mut idx = 0usize;
        let (m_state, v_state) = (&mut self.m, &mut self.v);
        module.visit_params_mut(&mut |p| {
            if m_state.len() <= idx {
                m_state.push(vec![0.0; p.numel()]);
                v_state.push(vec![0.0; p.numel()]);
            }
            let m = &mut m_state[idx];
            let v = &mut v_state[idx];
            assert_eq!(m.len(), p.numel(), "optimizer state / parameter mismatch");
            let value = p.value.data_mut();
            let grad = p.grad.data();
            for (((w, &g), mi), vi) in
                value.iter_mut().zip(grad).zip(m.iter_mut()).zip(v.iter_mut())
            {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{self, accumulate_param_grads, Linear};
    use crate::loss::softmax_cross_entropy;
    use fg_tensor::rng::SeededRng;
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
            net.zero_grad();
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
}
