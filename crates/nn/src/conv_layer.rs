//! Convolution layer wrapping the implicit-GEMM kernels of `fg-tensor`.

use crate::layer::{cache_tensor, Layer, Module, Parameter};
use fg_tensor::conv::{
    conv2d_backward_acc, conv2d_backward_params_acc, conv2d_forward, Conv2dSpec,
};
use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;

/// 2-D convolution, stride 1, configurable zero padding, as used by the
/// Table II classifier.
pub struct Conv2d {
    pub weight: Parameter,
    pub bias: Parameter,
    spec: Conv2dSpec,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Kaiming-uniform initialized convolution.
    pub fn new(in_ch: usize, out_ch: usize, k: usize, pad: usize, rng: &mut SeededRng) -> Self {
        let spec = Conv2dSpec { in_ch, out_ch, kh: k, kw: k, pad };
        let fan_in = in_ch * k * k;
        let weight = Tensor::kaiming_uniform(&[out_ch, spec.patch_len()], fan_in, rng);
        let bound = 1.0 / (fan_in as f32).sqrt();
        let bias = Tensor::rand_uniform(&[out_ch], -bound, bound, rng);
        Conv2d {
            weight: Parameter::new(weight),
            bias: Parameter::new(bias),
            spec,
            cached_input: None,
        }
    }

    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }
}

impl Module for Conv2d {
    fn visit_params(&self, f: &mut dyn FnMut(&Parameter)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = conv2d_forward(input, &self.weight.value, &self.bias.value, &self.spec);
        if train {
            cache_tensor(&mut self.cached_input, input);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("Conv2d::backward before forward");
        // Weight/bias gradients accumulate straight into the parameter
        // gradients — no temporary gradient tensors.
        conv2d_backward_acc(
            input,
            &self.weight.value,
            grad_output,
            &self.spec,
            &mut self.weight.grad,
            &mut self.bias.grad,
        )
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        let input = self.cached_input.as_ref().expect("Conv2d::backward before forward");
        conv2d_backward_params_acc(
            input,
            grad_output,
            &self.spec,
            &mut self.weight.grad,
            &mut self.bias.grad,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;

    #[test]
    fn table_ii_conv_param_counts() {
        let mut rng = SeededRng::new(0);
        // Paper counts weights only: conv1 = 32*1*5*5 = 800, conv2 = 64*32*5*5 = 51,200.
        let c1 = Conv2d::new(1, 32, 5, 2, &mut rng);
        assert_eq!(c1.weight.numel(), 800);
        let c2 = Conv2d::new(32, 64, 5, 2, &mut rng);
        assert_eq!(c2.weight.numel(), 51_200);
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv2d::new(1, 4, 3, 1, &mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);
        let y = conv.forward(&x, true);
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
        let dx = conv.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
        assert!(conv.weight.grad.l2_norm() > 0.0);
    }

    #[test]
    fn params_only_backward_accumulates_the_same_gradient_bits() {
        let mut rng = SeededRng::new(2);
        // Batch 5 splits the fold/reduce tree unevenly.
        let mut full = Conv2d::new(2, 4, 3, 1, &mut rng);
        let mut lean = Conv2d::new(2, 4, 3, 1, &mut SeededRng::new(0));
        lean.weight.value.copy_from(&full.weight.value);
        lean.bias.value.copy_from(&full.bias.value);
        let x = Tensor::randn(&[5, 2, 8, 8], &mut rng);
        let g = Tensor::randn(&[5, 4, 8, 8], &mut rng);
        for _ in 0..2 {
            full.forward(&x, true);
            full.backward(&g);
            lean.forward(&x, true);
            lean.backward_params(&g);
        }
        assert_eq!(bits(lean.weight.grad.data()), bits(full.weight.grad.data()));
        assert_eq!(bits(lean.bias.grad.data()), bits(full.bias.grad.data()));
    }
}
