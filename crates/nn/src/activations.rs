//! ReLU's two bodies. The classifier engine runs them over its activation
//! slabs and the CVAE/VAE steps over their hidden layers; nothing else in
//! the crate clamps or masks. The forward is fg-tensor's, which the conv
//! block's epilogue runs too.

pub use fg_tensor::vecops::relu;

/// ReLU's backward from the output [`relu`] left: the upstream gradient
/// survives where the output is positive and is zeroed elsewhere.
pub(crate) fn relu_backward(grad: &mut [f32], out: &[f32]) {
    assert_eq!(grad.len(), out.len(), "relu_backward: gradient / output length mismatch");
    for (g, &o) in grad.iter_mut().zip(out) {
        *g = if o > 0.0 { *g } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut x = [-1.0, 0.0, 2.0];
        relu(&mut x);
        assert_eq!(x, [0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks() {
        let mut x = [-1.0, 1.0];
        relu(&mut x);
        let mut g = [5.0, 5.0];
        relu_backward(&mut g, &x);
        assert_eq!(g, [0.0, 5.0]);
    }
}
