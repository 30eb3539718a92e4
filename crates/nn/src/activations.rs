//! Parameter-free activation layers.

use crate::layer::{cache_tensor, Layer, Module, Parameter};
use fg_tensor::Tensor;

/// Rectified linear unit.
#[derive(Default)]
pub struct ReLU {
    /// Which inputs of the last training forward were positive; the buffer
    /// is recycled across steps.
    mask: Option<Vec<bool>>,
}

impl ReLU {
    pub fn new() -> Self {
        ReLU { mask: None }
    }
}

impl Module for ReLU {
    fn visit_params(&self, _f: &mut dyn FnMut(&Parameter)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            let mask = self.mask.get_or_insert_with(Vec::new);
            mask.clear();
            mask.extend(input.data().iter().map(|&x| x > 0.0));
        }
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("ReLU::backward before forward");
        assert_eq!(mask.len(), grad_output.numel());
        let data =
            grad_output.data().iter().zip(mask).map(|(&g, &m)| if m { g } else { 0.0 }).collect();
        Tensor::from_vec(data, grad_output.dims())
    }
}

/// Logistic sigmoid.
#[derive(Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    pub fn new() -> Self {
        Sigmoid { cached_output: None }
    }

    /// The scalar sigmoid function, exposed for fused losses and generation.
    #[inline]
    pub fn apply(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }
}

impl Module for Sigmoid {
    fn visit_params(&self, _f: &mut dyn FnMut(&Parameter)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = input.map(Sigmoid::apply);
        if train {
            cache_tensor(&mut self.cached_output, &out);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self.cached_output.as_ref().expect("Sigmoid::backward before forward");
        let data =
            grad_output.data().iter().zip(out.data()).map(|(&g, &s)| g * s * (1.0 - s)).collect();
        Tensor::from_vec(data, grad_output.dims())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_tensor::rng::SeededRng;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(relu.forward(&x, false).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[2]);
        relu.forward(&x, true);
        let g = relu.backward(&Tensor::from_vec(vec![5.0, 5.0], &[2]));
        assert_eq!(g.data(), &[0.0, 5.0]);
    }

    #[test]
    fn recycled_caches_follow_a_shape_change() {
        let mut relu = ReLU::new();
        let mut sigmoid = Sigmoid::new();
        for x in [vec![-1.0, 2.0, 3.0], vec![4.0, -5.0]] {
            let n = x.len();
            let x = Tensor::from_vec(x, &[n]);
            relu.forward(&x, true);
            let mask: Vec<f32> =
                x.data().iter().map(|&v| if v > 0.0 { 1.0 } else { 0.0 }).collect();
            assert_eq!(relu.backward(&Tensor::ones(&[n])).data(), &mask[..]);
            let s = sigmoid.forward(&x, true);
            let want: Vec<f32> = s.data().iter().map(|&s| s * (1.0 - s)).collect();
            assert_eq!(sigmoid.backward(&Tensor::ones(&[n])).data(), &want[..]);
        }
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[3]);
        let y = s.forward(&x, false);
        assert!(y.data()[0] < 1e-4);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-4);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_differences() {
        let mut rng = SeededRng::new(0);
        let x = Tensor::randn(&[5], &mut rng);
        let mut s = Sigmoid::new();
        s.forward(&x, true);
        let ana = s.backward(&Tensor::ones(&[5]));
        let eps = 1e-3f32;
        for i in 0..5 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (Sigmoid::new().forward(&xp, false).sum()
                - Sigmoid::new().forward(&xm, false).sum())
                / (2.0 * eps);
            assert!((num - ana.data()[i]).abs() < 1e-3);
        }
    }
}
