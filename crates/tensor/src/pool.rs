//! 2-D max pooling (the paper's classifier uses 2×2, stride = kernel).

use crate::tensor::Tensor;
use rayon::prelude::*;

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

/// Forward max pooling over `(batch, ch, h, w)`.
pub fn maxpool2d_forward(input: &Tensor, spec: &MaxPool2dSpec) -> MaxPoolOutput {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "maxpool input must be (B,C,H,W)");
    let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = spec.out_size(h, w);
    let k = spec.k;

    let mut out = vec![0.0f32; b * c * oh * ow];
    let mut argmax = vec![0u32; b * c * oh * ow];
    let data = input.data();

    for bi in 0..b {
        for ci in 0..c {
            let plane_off = (bi * c + ci) * h * w;
            let out_off = (bi * c + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..k {
                        let row_off = plane_off + (oy * k + ky) * w + ox * k;
                        for kx in 0..k {
                            let v = data[row_off + kx];
                            if v > best {
                                best = v;
                                best_idx = row_off + kx;
                            }
                        }
                    }
                    out[out_off + oy * ow + ox] = best;
                    argmax[out_off + oy * ow + ox] = best_idx as u32;
                }
            }
        }
    }

    MaxPoolOutput { output: Tensor::from_vec(out, &[b, c, oh, ow]), argmax }
}

/// Values-only max pooling of every `(c, h, w)` image in `input` — the
/// inference form the batched scorer uses, which never backpropagates and so
/// skips the argmax bookkeeping. `input` holds any number of images (a batch,
/// or the `groups × batch` slab of a grouped launch: pooling does not look
/// across images, so the group axis needs no code of its own); image `i`
/// pools into `out[i*c*(h/k)*(w/k)..]`.
///
/// The window scan (`if v > best`, row-major within the window) is
/// [`maxpool2d_forward`]'s: pooling is pure selection, no arithmetic, so the
/// values are bit-identical to the training-path forward. Images are the
/// parallel grain (disjoint output chunks), so one image batch is as
/// parallel as eight models' and bits are the same at any `FG_THREADS`.
pub fn maxpool2d_forward_values(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    out: &mut [f32],
) {
    let (oh, ow) = (h / k, w / k);
    assert_eq!(input.len() % (c * h * w), 0, "maxpool2d_forward_values: input slab size");
    let images = input.len() / (c * h * w);
    assert_eq!(out.len(), images * c * oh * ow, "maxpool2d_forward_values: output slab size");
    out.par_chunks_mut(c * oh * ow).enumerate().for_each(|(i, out_img)| {
        let image = &input[i * c * h * w..(i + 1) * c * h * w];
        for (plane, out_plane) in image.chunks_exact(h * w).zip(out_img.chunks_exact_mut(oh * ow)) {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..k {
                        let row_off = (oy * k + ky) * w + ox * k;
                        for kx in 0..k {
                            let v = plane[row_off + kx];
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    out_plane[oy * ow + ox] = best;
                }
            }
        }
    });
}

/// Backward max pooling: scatter the upstream gradient to the winning input
/// positions recorded by the forward pass.
pub fn maxpool2d_backward(d_out: &Tensor, argmax: &[u32], input_dims: &[usize]) -> Tensor {
    let mut d_in = Tensor::zeros(input_dims);
    let d_in_data = d_in.data_mut();
    for (g, &idx) in d_out.data().iter().zip(argmax) {
        d_in_data[idx as usize] += g;
    }
    d_in
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
