//! 2-D convolution via im2col lowering.
//!
//! Layouts follow the paper's classifier (Table II): activations are
//! `(batch, channels, height, width)`, weights `(out_ch, in_ch, kh, kw)`
//! flattened to `(out_ch, in_ch*kh*kw)`, stride 1, configurable zero padding.
//! Table II's flatten size (3136 = 64·7·7) and parameter counts imply the
//! paper's two 5×5 convolutions are same-size (padding 2) with the 2×2 max
//! pools providing all downsampling (28 → 14 → 7), so padded convolution is a
//! first-class citizen here. Each batch item is lowered to a
//! `(out_h*out_w, in_ch*kh*kw)` patch matrix and the convolution becomes a
//! matrix multiply, reusing the optimized kernels in [`crate::kernels`].

use crate::kernels::{self, MatRef};
use crate::tensor::Tensor;
use crate::workspace;
use fg_obs::metrics::Counter;
use rayon::prelude::*;

static CONV_FWD_CALLS: Counter = Counter::new("tensor.conv2d.forward_calls");
static CONV_BWD_CALLS: Counter = Counter::new("tensor.conv2d.backward_calls");

/// Static description of a convolution (stride 1, zero padding `pad`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    pub in_ch: usize,
    pub out_ch: usize,
    pub kh: usize,
    pub kw: usize,
    pub pad: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an input of `(h, w)`.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let (ph, pw) = (h + 2 * self.pad, w + 2 * self.pad);
        assert!(ph >= self.kh && pw >= self.kw, "padded input smaller than kernel");
        (ph - self.kh + 1, pw - self.kw + 1)
    }

    /// Number of columns of the im2col patch matrix.
    pub fn patch_len(&self) -> usize {
        self.in_ch * self.kh * self.kw
    }
}

/// Lower one image `(in_ch, h, w)` into a `(out_h*out_w, patch_len)` matrix,
/// reading zeros outside the image bounds (zero padding).
pub fn im2col(image: &[f32], h: usize, w: usize, spec: &Conv2dSpec, out: &mut [f32]) {
    let (oh, ow) = spec.out_size(h, w);
    let patch = spec.patch_len();
    let pad = spec.pad as isize;
    debug_assert_eq!(image.len(), spec.in_ch * h * w);
    debug_assert_eq!(out.len(), oh * ow * patch);

    for oy in 0..oh {
        for ox in 0..ow {
            let row = &mut out[(oy * ow + ox) * patch..(oy * ow + ox + 1) * patch];
            let mut p = 0;
            for c in 0..spec.in_ch {
                let plane = &image[c * h * w..(c + 1) * h * w];
                for ky in 0..spec.kh {
                    let sy = oy as isize + ky as isize - pad;
                    if sy < 0 || sy >= h as isize {
                        row[p..p + spec.kw].fill(0.0);
                        p += spec.kw;
                        continue;
                    }
                    let sy = sy as usize;
                    for kx in 0..spec.kw {
                        let sx = ox as isize + kx as isize - pad;
                        row[p] = if sx < 0 || sx >= w as isize {
                            0.0
                        } else {
                            plane[sy * w + sx as usize]
                        };
                        p += 1;
                    }
                }
            }
        }
    }
}

/// Scatter-add the columns gradient back into an image gradient (adjoint of
/// [`im2col`]; contributions that fell in the zero-padding are dropped).
pub fn col2im(cols: &[f32], h: usize, w: usize, spec: &Conv2dSpec, image_grad: &mut [f32]) {
    let (oh, ow) = spec.out_size(h, w);
    let patch = spec.patch_len();
    let pad = spec.pad as isize;
    debug_assert_eq!(cols.len(), oh * ow * patch);
    debug_assert_eq!(image_grad.len(), spec.in_ch * h * w);

    for oy in 0..oh {
        for ox in 0..ow {
            let row = &cols[(oy * ow + ox) * patch..(oy * ow + ox + 1) * patch];
            let mut p = 0;
            for c in 0..spec.in_ch {
                let plane = &mut image_grad[c * h * w..(c + 1) * h * w];
                for ky in 0..spec.kh {
                    let sy = oy as isize + ky as isize - pad;
                    if sy < 0 || sy >= h as isize {
                        p += spec.kw;
                        continue;
                    }
                    let sy = sy as usize;
                    for kx in 0..spec.kw {
                        let sx = ox as isize + kx as isize - pad;
                        if sx >= 0 && sx < w as isize {
                            plane[sy * w + sx as usize] += row[p];
                        }
                        p += 1;
                    }
                }
            }
        }
    }
}

/// Where [`forward_body`] finds the `(out_plane, patch_len)` column matrix of
/// one image.
#[derive(Clone, Copy)]
enum Columns<'a> {
    /// Lower the image out of this `(groups, b, in_ch, h, w)` activation slab
    /// into pooled scratch ([`im2col`]).
    Lower(&'a [f32]),
    /// Read image `bi`'s block of a `(b, out_plane, patch_len)` slab that
    /// [`im2col_batch`] lowered once for every group.
    Shared(&'a [f32]),
}

/// The one forward-convolution body: group `g` convolves `b` images with its
/// own `(out_ch, patch_len)` filter bank and bias into
/// `out[g*b*out_ch*out_plane..]`.
///
/// Per *(group, image)* item: take the image's columns, seed each output
/// channel's row with its bias (the fused epilogue), then
/// `C(out_ch × out_plane) += W · colsᵀ` written straight in the output layout
/// (the GEMM's packing absorbs the transpose). The items are the parallel
/// grain — disjoint output planes, a sequential GEMM each — so one group is as
/// parallel as eight and every bit is the same at any thread count; scratch
/// comes from the thread-local workspace pool.
#[allow(clippy::too_many_arguments)]
fn forward_body(
    cols: Columns<'_>,
    b: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    weights: &[&[f32]],
    biases: &[&[f32]],
    out: &mut [f32],
) {
    CONV_FWD_CALLS.incr();
    let _span = fg_obs::span::span("tensor.conv2d.forward");
    let groups = weights.len();
    let (oh, ow) = spec.out_size(h, w);
    let (out_plane, patch, img_len) = (oh * ow, spec.patch_len(), spec.in_ch * h * w);
    let cols_len = out_plane * patch;
    assert_eq!(biases.len(), groups, "conv2d forward: weights/biases mismatch");
    assert_eq!(out.len(), groups * b * spec.out_ch * out_plane, "conv2d forward: output slab");
    match cols {
        Columns::Lower(x) => assert_eq!(x.len(), groups * b * img_len, "conv2d forward: input"),
        Columns::Shared(c) => assert_eq!(c.len(), b * cols_len, "conv2d forward: cols slab"),
    }
    for (w_data, bias) in weights.iter().zip(biases) {
        assert_eq!(w_data.len(), spec.out_ch * patch, "conv2d forward: filter bank size");
        assert_eq!(bias.len(), spec.out_ch, "conv2d forward: bias length");
    }
    out.par_chunks_mut(spec.out_ch * out_plane).enumerate().for_each(|(item, out_img)| {
        let (g, bi) = (item / b, item % b);
        let lowered;
        let cols = match cols {
            Columns::Lower(x) => {
                let mut scratch = workspace::take_uninit(cols_len);
                im2col(&x[item * img_len..(item + 1) * img_len], h, w, spec, &mut scratch);
                lowered = scratch;
                &lowered[..]
            }
            Columns::Shared(c) => &c[bi * cols_len..(bi + 1) * cols_len],
        };
        for (dst, &bv) in out_img.chunks_exact_mut(out_plane).zip(biases[g]) {
            dst.fill(bv);
        }
        kernels::gemm(
            false,
            spec.out_ch,
            out_plane,
            patch,
            MatRef { data: weights[g], rs: patch, cs: 1 },
            MatRef { data: cols, rs: 1, cs: patch },
            out_img,
        );
    });
}

/// Forward convolution: `input` `(batch, in_ch, h, w)`, `weight`
/// `(out_ch, in_ch*kh*kw)` (the flattened filter bank), `bias` `(out_ch)` →
/// `(batch, out_ch, out_h, out_w)`. A one-group call of the forward body;
/// steady-state calls allocate nothing but the returned tensor.
pub fn conv2d_forward(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let &[b, c, h, w] = input.dims() else { panic!("conv2d input must be (B,C,H,W)") };
    assert_eq!(c, spec.in_ch, "channel mismatch");
    assert_eq!(weight.dims(), &[spec.out_ch, spec.patch_len()]);
    let (oh, ow) = spec.out_size(h, w);
    let mut out = vec![0.0f32; b * spec.out_ch * oh * ow];
    let x = Columns::Lower(input.data());
    forward_body(x, b, h, w, spec, &[weight.data()], &[bias.data()], &mut out);
    Tensor::from_vec(out, &[b, spec.out_ch, oh, ow])
}

/// Lower a whole batch `(b, in_ch, h, w)` of images into one
/// `(b, out_h*out_w, patch_len)` column slab — the shared im2col buffer of
/// the batched scorer: every scored model convolves the *same* validation
/// batch, so the lowering is paid once and reused across all of them. Pure
/// data movement (each value is copied or zero), one task per image, so the
/// slab is bit-identical to the per-image [`im2col`] calls the forward body
/// makes.
pub fn im2col_batch(
    input: &[f32],
    b: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    out: &mut [f32],
) {
    let (oh, ow) = spec.out_size(h, w);
    let img_len = spec.in_ch * h * w;
    let cols_len = oh * ow * spec.patch_len();
    assert_eq!(input.len(), b * img_len, "im2col_batch: input slab size");
    assert_eq!(out.len(), b * cols_len, "im2col_batch: output slab size");
    out.par_chunks_mut(cols_len).enumerate().for_each(|(bi, cols)| {
        im2col(&input[bi * img_len..(bi + 1) * img_len], h, w, spec, cols);
    });
}

/// Grouped forward convolution over pre-lowered *shared* columns: every
/// group convolves the same `(b, out_plane, patch)` column slab (from
/// [`im2col_batch`]) with its own filter bank and bias. Bitwise equal to one
/// [`conv2d_forward`] per group on the images the slab was lowered from.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_cols_grouped(
    cols: &[f32],
    b: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    weights: &[&[f32]],
    biases: &[&[f32]],
    out: &mut [f32],
) {
    forward_body(Columns::Shared(cols), b, h, w, spec, weights, biases, out);
}

/// Grouped forward convolution over *per-group* activations: group `g`
/// convolves its own `(b, in_ch, h, w)` slice `input[g*b*in_ch*h*w..]` — the
/// deeper layers of the batched scorer, where activations have diverged per
/// model. Bitwise equal to one [`conv2d_forward`] per group.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_grouped(
    input: &[f32],
    b: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    weights: &[&[f32]],
    biases: &[&[f32]],
    out: &mut [f32],
) {
    forward_body(Columns::Lower(input), b, h, w, spec, weights, biases, out);
}

/// Gradients produced by [`conv2d_backward`].
pub struct Conv2dGrads {
    pub d_input: Tensor,
    pub d_weight: Tensor,
    pub d_bias: Tensor,
}

/// Backward convolution: given the cached forward `input` and the upstream
/// gradient `d_out` `(batch, out_ch, oh, ow)`, produce gradients for input,
/// weight and bias. Weight gradient layout matches the forward flattened
/// filter bank `(out_ch, in_ch*kh*kw)`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    spec: &Conv2dSpec,
) -> Conv2dGrads {
    let mut d_weight = Tensor::zeros(&[spec.out_ch, spec.patch_len()]);
    let mut d_bias = Tensor::zeros(&[spec.out_ch]);
    let d_input = conv2d_backward_acc(input, weight, d_out, spec, &mut d_weight, &mut d_bias);
    Conv2dGrads { d_input, d_weight, d_bias }
}

/// Backward convolution with in-place gradient accumulation: adds the batch
/// weight/bias gradients into `d_weight`/`d_bias` (the layer's `Parameter`
/// grads) and returns the input gradient — the training hot path.
///
/// Every image gets one task: the input gradient is written directly into
/// that image's disjoint slice, while the weight/bias gradients accumulate
/// through the shim's fixed fold/reduce tree over batch indices — combine
/// order depends only on the batch size, never the thread count, so the
/// result is bit-identical at any `FG_THREADS`. All per-image scratch (the
/// patch matrix, the upstream-gradient staging, the column gradient, and
/// the fold accumulators) comes from the thread-local workspace pool, so
/// steady-state calls allocate nothing beyond the returned tensor.
pub fn conv2d_backward_acc(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    spec: &Conv2dSpec,
    d_weight: &mut Tensor,
    d_bias: &mut Tensor,
) -> Tensor {
    let mut d_input = vec![0.0f32; input.numel()];
    backward_acc(input, Some((weight.data(), &mut d_input)), d_out, spec, d_weight, d_bias);
    Tensor::from_vec(d_input, input.dims())
}

/// [`conv2d_backward_acc`] without the input gradient, for a first layer
/// whose input gradient nobody reads: the same per-image weight/bias
/// gradients through the same fold/reduce tree (its shape depends on the
/// batch size only), so `d_weight`/`d_bias` receive the same bits, and the
/// `dcols` GEMM and its `col2im` scatter are skipped.
pub fn conv2d_backward_params_acc(
    input: &Tensor,
    d_out: &Tensor,
    spec: &Conv2dSpec,
    d_weight: &mut Tensor,
    d_bias: &mut Tensor,
) {
    backward_acc(input, None, d_out, spec, d_weight, d_bias);
}

/// The shared body of the two backward entry points; `input_grad` carries
/// the filter bank's data and the zeroed `(b, c, h, w)` buffer when the
/// input gradient is wanted.
fn backward_acc(
    input: &Tensor,
    input_grad: Option<(&[f32], &mut [f32])>,
    d_out: &Tensor,
    spec: &Conv2dSpec,
    d_weight: &mut Tensor,
    d_bias: &mut Tensor,
) {
    CONV_BWD_CALLS.incr();
    let _span = fg_obs::span::span("tensor.conv2d.backward");
    let dims = input.dims();
    let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = spec.out_size(h, w);
    let out_plane = oh * ow;
    let img_len = c * h * w;
    let patch = spec.patch_len();
    let out_ch = spec.out_ch;
    assert_eq!(d_out.dims(), &[b, out_ch, oh, ow]);
    assert_eq!(d_weight.dims(), &[out_ch, patch], "conv2d_backward_acc: d_weight shape");
    assert_eq!(d_bias.dims(), &[out_ch], "conv2d_backward_acc: d_bias shape");

    let in_data = input.data();
    let dout_data = d_out.data();

    // One image's contribution: `dw`/`db` gain its weight/bias gradients and,
    // given the filter bank, `dimg` (pre-zeroed) receives its input gradient.
    type Acc = (workspace::Scratch, workspace::Scratch);
    let per_image = |(mut dw, mut db): Acc, bi: usize, dimg: Option<(&[f32], &mut [f32])>| -> Acc {
        let image = &in_data[bi * img_len..(bi + 1) * img_len];
        let mut cols = workspace::take_uninit(out_plane * patch);
        im2col(image, h, w, spec, &mut cols);

        // Upstream grad staged as g(out_plane × out_ch).
        let mut g = workspace::take_uninit(out_plane * out_ch);
        let src = &dout_data[bi * out_ch * out_plane..(bi + 1) * out_ch * out_plane];
        for (oc, plane) in src.chunks_exact(out_plane).enumerate() {
            for (pos, &v) in plane.iter().enumerate() {
                g[pos * out_ch + oc] = v;
            }
        }

        // dW += gᵀ(out_ch × out_plane) · cols(out_plane × patch).
        kernels::gemm(
            false,
            out_ch,
            patch,
            out_plane,
            MatRef { data: &g, rs: 1, cs: out_ch },
            MatRef { data: &cols, rs: patch, cs: 1 },
            &mut dw,
        );
        // db += column sums of g.
        for row in g.chunks_exact(out_ch) {
            for (d, &v) in db.iter_mut().zip(row) {
                *d += v;
            }
        }
        if let Some((w_data, dimg)) = dimg {
            // dcols = g(out_plane × out_ch) · W(out_ch × patch), scattered
            // back into this image's input-gradient slice.
            let mut dcols = workspace::take_zeroed(out_plane * patch);
            kernels::gemm(
                false,
                out_plane,
                patch,
                out_ch,
                MatRef { data: &g, rs: out_ch, cs: 1 },
                MatRef { data: w_data, rs: patch, cs: 1 },
                &mut dcols,
            );
            col2im(&dcols, h, w, spec, dimg);
        }
        (dw, db)
    };
    let fresh = || (workspace::take_zeroed(out_ch * patch), workspace::take_zeroed(out_ch));
    let merge = |(mut dw1, mut db1): Acc, (dw2, db2): Acc| -> Acc {
        for (a, &x) in dw1.iter_mut().zip(dw2.iter()) {
            *a += x;
        }
        for (a, &x) in db1.iter_mut().zip(db2.iter()) {
            *a += x;
        }
        (dw1, db1)
    };

    // Both producers have `b` items, so both folds split into the same tree.
    let (dw, db) = match input_grad {
        Some((w_data, d_input)) => d_input
            .par_chunks_mut(img_len)
            .enumerate()
            .fold(fresh, |acc, (bi, dimg)| per_image(acc, bi, Some((w_data, dimg))))
            .reduce(fresh, merge),
        None => (0..b)
            .into_par_iter()
            .fold(fresh, |acc, bi| per_image(acc, bi, None))
            .reduce(fresh, merge),
    };

    for (d, &v) in d_weight.data_mut().iter_mut().zip(dw.iter()) {
        *d += v;
    }
    for (d, &v) in d_bias.data_mut().iter_mut().zip(db.iter()) {
        *d += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn naive_conv(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let dims = input.dims();
        let (b, _, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = spec.out_size(h, w);
        let pad = spec.pad as isize;
        let mut out = Tensor::zeros(&[b, spec.out_ch, oh, ow]);
        for bi in 0..b {
            for oc in 0..spec.out_ch {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut s = bias.data()[oc];
                        for ic in 0..spec.in_ch {
                            for ky in 0..spec.kh {
                                for kx in 0..spec.kw {
                                    let sy = oy as isize + ky as isize - pad;
                                    let sx = ox as isize + kx as isize - pad;
                                    if sy < 0 || sy >= h as isize || sx < 0 || sx >= w as isize {
                                        continue;
                                    }
                                    let wv = weight
                                        .at(&[oc, ic * spec.kh * spec.kw + ky * spec.kw + kx]);
                                    let xv = input.at(&[bi, ic, sy as usize, sx as usize]);
                                    s += wv * xv;
                                }
                            }
                        }
                        *out.at_mut(&[bi, oc, oy, ox]) = s;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive_unpadded() {
        let mut rng = SeededRng::new(1);
        let spec = Conv2dSpec { in_ch: 2, out_ch: 3, kh: 3, kw: 3, pad: 0 };
        let x = Tensor::randn(&[2, 2, 8, 8], &mut rng);
        let w = Tensor::randn(&[3, spec.patch_len()], &mut rng);
        let b = Tensor::randn(&[3], &mut rng);
        let fast = conv2d_forward(&x, &w, &b, &spec);
        let slow = naive_conv(&x, &w, &b, &spec);
        assert_eq!(fast.dims(), &[2, 3, 6, 6]);
        for (a, c) in fast.data().iter().zip(slow.data()) {
            assert!((a - c).abs() < 1e-4, "{a} vs {c}");
        }
    }

    #[test]
    fn forward_matches_naive_padded() {
        let mut rng = SeededRng::new(7);
        let spec = Conv2dSpec { in_ch: 1, out_ch: 2, kh: 5, kw: 5, pad: 2 };
        let x = Tensor::randn(&[2, 1, 10, 10], &mut rng);
        let w = Tensor::randn(&[2, spec.patch_len()], &mut rng);
        let b = Tensor::randn(&[2], &mut rng);
        let fast = conv2d_forward(&x, &w, &b, &spec);
        let slow = naive_conv(&x, &w, &b, &spec);
        // Same-size convolution.
        assert_eq!(fast.dims(), &[2, 2, 10, 10]);
        for (a, c) in fast.data().iter().zip(slow.data()) {
            assert!((a - c).abs() < 1e-4, "{a} vs {c}");
        }
    }

    #[test]
    fn im2col_col2im_adjointness() {
        // <im2col(x), y> == <x, col2im(y)> for any x, y: the two ops must be
        // adjoint linear maps or backprop is wrong. Checked with padding.
        let mut rng = SeededRng::new(2);
        let spec = Conv2dSpec { in_ch: 2, out_ch: 1, kh: 3, kw: 3, pad: 1 };
        let (h, w) = (6, 5);
        let (oh, ow) = spec.out_size(h, w);
        let x = Tensor::randn(&[spec.in_ch * h * w], &mut rng);
        let y = Tensor::randn(&[oh * ow * spec.patch_len()], &mut rng);

        let mut cols = vec![0.0f32; oh * ow * spec.patch_len()];
        im2col(x.data(), h, w, &spec, &mut cols);
        let lhs: f32 = cols.iter().zip(y.data()).map(|(a, b)| a * b).sum();

        let mut back = vec![0.0f32; spec.in_ch * h * w];
        col2im(y.data(), h, w, &spec, &mut back);
        let rhs: f32 = back.iter().zip(x.data()).map(|(a, b)| a * b).sum();

        assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = SeededRng::new(3);
        let spec = Conv2dSpec { in_ch: 1, out_ch: 2, kh: 2, kw: 2, pad: 1 };
        let x = Tensor::randn(&[1, 1, 4, 4], &mut rng);
        let w = Tensor::randn(&[2, spec.patch_len()], &mut rng);
        let b = Tensor::randn(&[2], &mut rng);

        // Loss = sum(conv(x)); upstream gradient of ones.
        let out = conv2d_forward(&x, &w, &b, &spec);
        let ones = Tensor::ones(out.dims());
        let grads = conv2d_backward(&x, &w, &ones, &spec);

        let eps = 1e-3f32;
        let loss = |w_: &Tensor, x_: &Tensor, b_: &Tensor| conv2d_forward(x_, w_, b_, &spec).sum();

        for i in 0..w.numel() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&wp, &x, &b) - loss(&wm, &x, &b)) / (2.0 * eps);
            let ana = grads.d_weight.data()[i];
            assert!((num - ana).abs() < 1e-2 * (1.0 + num.abs()), "dW[{i}]: {num} vs {ana}");
        }
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&w, &xp, &b) - loss(&w, &xm, &b)) / (2.0 * eps);
            let ana = grads.d_input.data()[i];
            assert!((num - ana).abs() < 1e-2 * (1.0 + num.abs()), "dX[{i}]: {num} vs {ana}");
        }
        for i in 0..b.numel() {
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let mut bm = b.clone();
            bm.data_mut()[i] -= eps;
            let num = (loss(&w, &x, &bp) - loss(&w, &x, &bm)) / (2.0 * eps);
            let ana = grads.d_bias.data()[i];
            assert!((num - ana).abs() < 1e-2 * (1.0 + num.abs()), "dB[{i}]: {num} vs {ana}");
        }
    }

    #[test]
    fn table_ii_shapes() {
        // The paper's classifier: flatten = 3136 = 64*7*7 implies same-size
        // 5x5 convolutions (padding 2) with 2x2 pools doing 28 -> 14 -> 7.
        let c1 = Conv2dSpec { in_ch: 1, out_ch: 32, kh: 5, kw: 5, pad: 2 };
        assert_eq!(c1.out_size(28, 28), (28, 28));
        let c2 = Conv2dSpec { in_ch: 32, out_ch: 64, kh: 5, kw: 5, pad: 2 };
        assert_eq!(c2.out_size(14, 14), (14, 14));
    }
}
