//! 2-D max pooling (the paper's classifier uses 2×2, stride = kernel).

use crate::tensor::Tensor;

/// Static description of a max pool with square window `k` and stride `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaxPool2dSpec {
    pub k: usize,
}

impl MaxPool2dSpec {
    /// Output spatial size (floor division, PyTorch default).
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.k, w / self.k)
    }
}

/// Result of a max-pool forward pass: pooled activations plus the flat index
/// (within each input image plane set) of every winning element, needed to
/// route gradients back.
pub struct MaxPoolOutput {
    pub output: Tensor,
    /// For each output element, the linear index into the *input* tensor of
    /// the element that won the max.
    pub argmax: Vec<u32>,
}

/// Forward max pooling over `(batch, ch, h, w)`. A call of
/// [`maxpool2d_forward_into`] that keeps the argmax.
pub fn maxpool2d_forward(input: &Tensor, spec: &MaxPool2dSpec) -> MaxPoolOutput {
    let &[b, c, h, w] = input.dims() else { panic!("maxpool input must be (B,C,H,W)") };
    let (oh, ow) = spec.out_size(h, w);
    let mut out = vec![0.0f32; b * c * oh * ow];
    let mut argmax = vec![0u32; b * c * oh * ow];
    maxpool2d_forward_into(input.data(), c, h, w, spec.k, &mut out, Some(&mut argmax));
    MaxPoolOutput { output: Tensor::from_vec(out, &[b, c, oh, ow]), argmax }
}

/// The one max-pool forward body: every `(c, h, w)` image in `input` — a
/// batch, or the `groups × batch` slab of a grouped launch (pooling does
/// not look across images, so the group axis needs no code of its own) —
/// pools into `out[i*c*(h/k)*(w/k)..]`. With `argmax`, each output element
/// also records the index into `input` of the element that won its window.
///
/// The window scan is `if v > best` from `−∞`, row-major within the window,
/// so ties go to the first element and a window with nothing above `−∞`
/// (all NaN or `−∞`) yields `−∞` and routes its gradient to its own first
/// element. Pooling is pure selection, no arithmetic, and runs on the
/// calling thread: a caller that wants tasks splits the slab by images.
pub fn maxpool2d_forward_into(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    out: &mut [f32],
    mut argmax: Option<&mut [u32]>,
) {
    let (oh, ow) = (h / k, w / k);
    assert_eq!(input.len() % (c * h * w), 0, "maxpool2d forward: input slab size");
    let planes = input.len() / (h * w);
    assert_eq!(out.len(), planes * oh * ow, "maxpool2d forward: output slab size");
    if let Some(argmax) = &argmax {
        assert_eq!(argmax.len(), out.len(), "maxpool2d forward: argmax length");
    }
    for plane in 0..planes {
        let plane_off = plane * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let first = plane_off + oy * k * w + ox * k;
                let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
                for ky in 0..k {
                    let row_off = first + ky * w;
                    for kx in 0..k {
                        let v = input[row_off + kx];
                        if v > best {
                            best = v;
                            best_idx = row_off + kx;
                        }
                    }
                }
                let at = (plane * oh + oy) * ow + ox;
                out[at] = best;
                if let Some(argmax) = argmax.as_deref_mut() {
                    argmax[at] = best_idx as u32;
                }
            }
        }
    }
}

/// Backward max pooling: scatter the upstream gradient to the winning input
/// positions recorded by the forward pass. A call of
/// [`maxpool2d_backward_into`] on a zeroed gradient.
pub fn maxpool2d_backward(d_out: &Tensor, argmax: &[u32], input_dims: &[usize]) -> Tensor {
    let mut d_in = Tensor::zeros(input_dims);
    maxpool2d_backward_into(d_out.data(), argmax, d_in.data_mut());
    d_in
}

/// The one max-pool backward body: `d_in[argmax[i]] += d_out[i]`, in
/// output order.
pub fn maxpool2d_backward_into(d_out: &[f32], argmax: &[u32], d_in: &mut [f32]) {
    assert_eq!(d_out.len(), argmax.len(), "maxpool2d backward: argmax length");
    for (g, &idx) in d_out.iter().zip(argmax) {
        d_in[idx as usize] += g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn forward_picks_window_max() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 1.0, 2.0, 3.0, //
                1.0, 1.0, 4.0, 0.0,
            ],
            &[1, 1, 4, 4],
        );
        let out = maxpool2d_forward(&x, &MaxPool2dSpec { k: 2 });
        assert_eq!(out.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.output.data(), &[4.0, 8.0, 9.0, 4.0]);
    }

    #[test]
    fn odd_sizes_floor() {
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let out = maxpool2d_forward(&x, &MaxPool2dSpec { k: 2 });
        assert_eq!(out.output.dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let fwd = maxpool2d_forward(&x, &MaxPool2dSpec { k: 2 });
        let g = Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]);
        let d_in = maxpool2d_backward(&g, &fwd.argmax, x.dims());
        assert_eq!(d_in.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn a_window_with_no_value_above_minus_infinity_routes_to_its_own_first_element() {
        // Image 1 of 2 is all NaN: its window's gradient stays in image 1.
        let nan = f32::NAN;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, nan, nan, nan, nan], &[2, 1, 2, 2]);
        let fwd = maxpool2d_forward(&x, &MaxPool2dSpec { k: 2 });
        assert_eq!(fwd.output.data(), &[4.0, f32::NEG_INFINITY]);
        assert_eq!(fwd.argmax, vec![3, 4]);
        let g = Tensor::from_vec(vec![1.0, 10.0], &[2, 1, 1, 1]);
        let d_in = maxpool2d_backward(&g, &fwd.argmax, x.dims());
        assert_eq!(d_in.data(), &[0.0, 0.0, 0.0, 1.0, 10.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = SeededRng::new(11);
        let x = Tensor::randn(&[2, 2, 4, 4], &mut rng);
        let spec = MaxPool2dSpec { k: 2 };
        let fwd = maxpool2d_forward(&x, &spec);
        let ones = Tensor::ones(fwd.output.dims());
        let d_in = maxpool2d_backward(&ones, &fwd.argmax, x.dims());

        let eps = 1e-3f32;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (maxpool2d_forward(&xp, &spec).output.sum()
                - maxpool2d_forward(&xm, &spec).output.sum())
                / (2.0 * eps);
            let ana = d_in.data()[i];
            // At ties / switch points finite differences disagree; skip those.
            if (num - ana).abs() > 0.5 {
                continue;
            }
            assert!((num - ana).abs() < 1e-2, "dX[{i}]: {num} vs {ana}");
        }
    }

    #[test]
    fn gradient_sums_are_preserved() {
        // Max pool backward only routes gradients; total mass is conserved.
        let mut rng = SeededRng::new(12);
        let x = Tensor::randn(&[1, 3, 6, 6], &mut rng);
        let spec = MaxPool2dSpec { k: 2 };
        let fwd = maxpool2d_forward(&x, &spec);
        let g = Tensor::randn(fwd.output.dims(), &mut rng);
        let d_in = maxpool2d_backward(&g, &fwd.argmax, x.dims());
        assert!((d_in.sum() - g.sum()).abs() < 1e-4);
    }
}
