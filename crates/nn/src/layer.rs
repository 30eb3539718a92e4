//! Trainable parameters and the module abstraction over them.

use fg_tensor::Tensor;

/// A trainable parameter: its value and the gradient accumulated by the most
/// recent backward pass.
#[derive(Clone, Debug)]
pub struct Parameter {
    pub value: Tensor,
    pub grad: Tensor,
}

impl Parameter {
    /// Wrap an initialized value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Parameter { value, grad }
    }

    /// Number of scalar entries.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Reset the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// Anything holding trainable parameters. The visitor formulation keeps
/// parameter traversal order stable, which [`crate::params`] relies on for
/// flatten/unflatten round-trips and the optimizers rely on for addressing
/// their per-parameter state.
pub trait Module {
    /// Visit parameters immutably, in a deterministic order.
    fn visit_params(&self, f: &mut dyn FnMut(&Parameter));

    /// Visit parameters mutably, in the same order as [`Module::visit_params`].
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter));

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Zero all gradients.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_tracks_shapes() {
        let p = Parameter::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.numel(), 6);
        assert_eq!(p.grad.dims(), &[2, 3]);
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Parameter::new(Tensor::ones(&[4]));
        p.grad.fill(3.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
