//! 2-D convolution as an implicit GEMM.
//!
//! Layouts follow the paper's classifier (Table II): activations are
//! `(batch, channels, height, width)`, weights `(out_ch, in_ch, kh, kw)`
//! flattened to `(out_ch, in_ch*kh*kw)`, stride 1, configurable zero padding.
//! Table II's flatten size (3136 = 64·7·7) and parameter counts imply the
//! paper's two 5×5 convolutions are same-size (padding 2) with the 2×2 max
//! pools providing all downsampling (28 → 14 → 7), so padded convolution is a
//! first-class citizen here.
//!
//! Each product is a GEMM over the image's `(out_h*out_w, in_ch*kh*kw)`
//! patch (im2col) matrix, but that matrix is never built: each image is
//! copied once with its zero border, and the driver in [`crate::kernels`]
//! packs its `B` panels straight from that copy ([`Patches`]). A filter bank
//! is packed once per call and shared by every image on every thread. The
//! packs move the same values the lowered matrix held, so every output bit
//! equals the lowering's (pinned to a per-element chain oracle in this
//! module's tests).
//!
//! The backward's input gradient is the column gradient scattered back onto
//! the image. It is formed patch-major, `dcolsᵀ = Wᵀ · d_out`, with the
//! transposed bank packed once per call and each image's `d_out` read in
//! place; per element that is the chain of `d_outᵀ · W`, since a
//! multiply-add does not care which factor comes first. `scatter` then
//! adds it into the image in the order `col2im` did, pixel by pixel, a
//! destination row at a time (one AVX-512 register per 16 pixels), so the
//! input gradient keeps its bits too.

use crate::kernels::{self, ASource, BSource, GroupedA, MatRef, Orient, Patches};
use crate::pool::maxpool2d_forward_into;
use crate::simd::{self, Kernel, Level};
use crate::tensor::Tensor;
use crate::vecops::relu;
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
/// reading zeros outside the image bounds (zero padding) — the explicit
/// patch matrix the packs are checked against.
#[cfg(test)]
pub(crate) fn im2col(image: &[f32], h: usize, w: usize, spec: &Conv2dSpec, out: &mut [f32]) {
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

/// Scatter-add a position-major `(oh·ow) × patch_len` column gradient back
/// into an image gradient (adjoint of the patch matrix; contributions that
/// fell in the zero-padding are dropped) — the order [`scatter`] keeps.
#[cfg(test)]
fn col2im(cols: &[f32], h: usize, w: usize, spec: &Conv2dSpec, image_grad: &mut [f32]) {
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

/// Add one image's column gradient into its `(in_ch, h, w)` input gradient
/// `dimg`. The column gradient is patch-major, `dcolsᵀ`: row `(c, ky, kx)`
/// holds that tap's gradient at every output position `(oy, ox)`.
///
/// Tap `(c, ky, kx)` at `(oy, ox)` lands on pixel `(c, oy+ky−pad,
/// ox+kx−pad)`, unless that falls in the zero border. `col2im` walks the
/// positions in increasing order, so each pixel receives its adds with
/// `oy` ascending and, within one `oy`, `ox` ascending (`kx` descending).
/// This walk keeps that order while touching each destination row once:
/// per channel and image row `sy`, it takes the source rows of every
/// `(oy, ky = sy+pad−oy)` with `oy` ascending, each `kx` descending, shifted
/// to line up with the destination row. Lanes outside the image add
/// nothing — not even `+0.0` — so every pixel gets the bits `col2im` gives
/// it whatever the gradient already holds.
///
/// AVX-512 keeps each 16-pixel chunk of a destination row in a register
/// across all its adds (masked loads and adds); the other levels add the
/// same rows one shifted slice at a time.
fn scatter(level: Level, dcols: &[f32], h: usize, w: usize, spec: &Conv2dSpec, dimg: &mut [f32]) {
    let (oh, ow) = spec.out_size(h, w);
    assert_eq!(dcols.len(), spec.patch_len() * oh * ow, "conv2d scatter: column gradient");
    assert_eq!(dimg.len(), spec.in_ch * h * w, "conv2d scatter: image gradient");
    let scatter = Scatter { dcols, h, w, spec, dimg };
    match level {
        // SAFETY: `Level::detect` (or the caller's `Level::offered`) found
        // AVX-512F; the asserts above size both slices.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::scatter_avx512(scatter) },
        _ => simd::run_at(level, scatter),
    }
}

/// [`scatter`]'s operands, and its portable body.
struct Scatter<'a> {
    dcols: &'a [f32],
    h: usize,
    w: usize,
    spec: &'a Conv2dSpec,
    dimg: &'a mut [f32],
}

/// The `(oy, ky)` pairs whose taps land on image row `sy`, `oy` ascending
/// (`oh` output rows).
fn sources(spec: &Conv2dSpec, oh: usize, sy: usize) -> impl Iterator<Item = (usize, usize)> {
    let top = sy + spec.pad;
    (top.saturating_sub(spec.kh - 1)..oh.min(top + 1)).map(move |oy| (oy, top - oy))
}

/// Image columns `lo..hi` receive tap column `kx`: pixel `sx` takes output
/// position `ox = sx + pad − kx`, which must lie in `0..ow`. On an image
/// narrower than the window the range can be empty (`lo >= hi`).
fn columns(spec: &Conv2dSpec, w: usize, ow: usize, kx: usize) -> (usize, usize) {
    (kx.saturating_sub(spec.pad), w.min((ow + kx).saturating_sub(spec.pad)))
}

impl Kernel for Scatter<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Scatter { dcols, h, w, spec, dimg } = self;
        let (oh, ow) = spec.out_size(h, w);
        let (plane, taps, pad) = (oh * ow, spec.kh * spec.kw, spec.pad);
        for c in 0..spec.in_ch {
            let channel = &dcols[c * taps * plane..][..taps * plane];
            for sy in 0..h {
                let dst = &mut dimg[(c * h + sy) * w..][..w];
                for (oy, ky) in sources(spec, oh, sy) {
                    for kx in (0..spec.kw).rev() {
                        let (lo, hi) = columns(spec, w, ow, kx);
                        if lo >= hi {
                            continue;
                        }
                        let src = &channel[(ky * spec.kw + kx) * plane + oy * ow..][..ow];
                        for (d, &g) in dst[lo..hi].iter_mut().zip(&src[lo + pad - kx..]) {
                            *d += g;
                        }
                    }
                }
            }
        }
    }
}

/// [`scatter`]'s AVX-512 body.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{columns, sources, Scatter};
    use core::arch::x86_64::*;

    /// Lanes `lo..hi` of the 16-pixel chunk starting at image column `x0`.
    fn lanes(x0: usize, (lo, hi): (usize, usize)) -> __mmask16 {
        let (lo, hi) = (lo.clamp(x0, x0 + 16) - x0, hi.clamp(x0, x0 + 16) - x0);
        (((1u32 << hi) - 1) & !((1u32 << lo) - 1)) as __mmask16
    }

    /// [`Scatter::run`]'s adds, in its order, with each 16-pixel chunk of a
    /// destination row held in a register from its one load to its one
    /// store.
    ///
    /// # Safety
    /// The CPU must support AVX-512F; `dcols` and `dimg` must have the
    /// lengths [`super::scatter`] asserts.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn scatter_avx512(s: Scatter<'_>) {
        let Scatter { dcols, h, w, spec, dimg } = s;
        let (oh, ow) = spec.out_size(h, w);
        let (plane, taps, pad) = (oh * ow, spec.kh * spec.kw, spec.pad);
        for c in 0..spec.in_ch {
            let channel = dcols[c * taps * plane..][..taps * plane].as_ptr();
            for sy in 0..h {
                let dst = dimg[(c * h + sy) * w..][..w].as_mut_ptr();
                for x0 in (0..w).step_by(16) {
                    let row = lanes(x0, (0, w));
                    let mut v = _mm512_maskz_loadu_ps(row, dst.add(x0));
                    for (oy, ky) in sources(spec, oh, sy) {
                        for kx in (0..spec.kw).rev() {
                            let m = lanes(x0, columns(spec, w, ow, kx));
                            // Lane `l` reads position `x0 + l + pad − kx` of
                            // output row `oy`; `m` keeps exactly the lanes
                            // where that lies in `0..ow`, so every read is
                            // inside this tap's row, and the masked-off
                            // lanes' addresses are never dereferenced.
                            let at = (ky * spec.kw + kx) * plane + oy * ow + x0 + pad;
                            let src = channel.wrapping_add(at).wrapping_sub(kx);
                            v = _mm512_mask_add_ps(v, m, v, _mm512_maskz_loadu_ps(m, src));
                        }
                    }
                    _mm512_mask_storeu_ps(dst.add(x0), row, v);
                }
            }
        }
    }
}

/// Copy one `(in_ch, h, w)` image into `padded` (`(in_ch, h + 2·pad,
/// w + 2·pad)`, [`padded_len`] floats) with its zero border, and view the
/// copy as the image's patch matrix in `orient`.
fn pad_image<'a>(
    image: &[f32],
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    orient: Orient,
    padded: &'a mut [f32],
) -> Patches<'a> {
    let (ph, pw) = (h + 2 * spec.pad, w + 2 * spec.pad);
    padded.fill(0.0);
    for (src, dst) in image.chunks_exact(h * w).zip(padded.chunks_exact_mut(ph * pw)) {
        for (row, dst_row) in src.chunks_exact(w).zip(dst[spec.pad * pw..].chunks_exact_mut(pw)) {
            dst_row[spec.pad..spec.pad + w].copy_from_slice(row);
        }
    }
    Patches { padded, ph, pw, kh: spec.kh, kw: spec.kw, orient }
}

/// Floats in one padded image copy ([`pad_image`]).
fn padded_len(h: usize, w: usize, spec: &Conv2dSpec) -> usize {
    spec.in_ch * (h + 2 * spec.pad) * (w + 2 * spec.pad)
}

/// What the forward body does with each item's convolution plane.
pub enum Epilogue<'a> {
    /// Write the plane: `out` holds `(out_ch, oh, ow)` per item.
    Store,
    /// [`relu`] the plane, then `k×k` max-pool it
    /// ([`maxpool2d_forward_into`]) while it is in cache: `out` holds the
    /// pooled `(out_ch, oh/k, ow/k)` per item and no full-resolution slab
    /// is written. With `keep`, the ReLU'd planes land in `keep.0`
    /// (`(out_ch, oh, ow)` per item) and each pooled element's argmax, an
    /// index into `keep.0`, in `keep.1` — what a pool backward reads.
    ReluPool { k: usize, keep: Option<(&'a mut [f32], &'a mut [u32])> },
}

/// The one forward-convolution body: group `g` convolves `b` images with its
/// own `(out_ch, patch_len)` filter bank and bias, and `epilogue` says what
/// reaches `out[(g*b + image)*item..]`. Group `g` reads image `bi` from its
/// own `(b, in_ch, h, w)` block of the input ([`GroupedA::PerGroup`]) or
/// from the one batch every group shares ([`GroupedA::Shared`]).
///
/// Each filter bank is packed once, before any item runs, and every item
/// reads it in place. Per *(group, image)* item: copy the image with its
/// zero border into pooled scratch, seed each output channel's row with its
/// bias, then `C(out_ch × out_plane) += W · colsᵀ` in the output layout, the
/// patch panels packed from the padded copy; [`Epilogue::Store`] writes `C`
/// straight into `out`, [`Epilogue::ReluPool`] into a scratch plane (or the
/// kept slab) that it then pools into `out`. The items are the parallel
/// grain — disjoint output planes, a sequential GEMM each — so one group is
/// as parallel as eight and every bit is the same at any thread count.
/// ReLU and max are exact, so a pooled plane holds the bits of a stored
/// one run through [`relu`] and [`maxpool2d_forward_into`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_into(
    input: GroupedA<'_>,
    b: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    weights: &[&[f32]],
    biases: &[&[f32]],
    epilogue: Epilogue<'_>,
    out: &mut [f32],
) {
    CONV_FWD_CALLS.incr();
    let _span = fg_obs::span::span("tensor.conv2d.forward");
    let groups = weights.len();
    let (oh, ow) = spec.out_size(h, w);
    let (out_ch, out_plane, patch) = (spec.out_ch, oh * ow, spec.patch_len());
    let (img_len, plane_len) = (spec.in_ch * h * w, out_ch * out_plane);
    let item_len = match epilogue {
        Epilogue::Store => plane_len,
        Epilogue::ReluPool { k, .. } => out_ch * (oh / k) * (ow / k),
    };
    assert_eq!(biases.len(), groups, "conv2d forward: weights/biases mismatch");
    assert_eq!(out.len(), groups * b * item_len, "conv2d forward: output slab");
    match input {
        GroupedA::PerGroup(x) => assert_eq!(x.len(), groups * b * img_len, "conv2d forward: input"),
        GroupedA::Shared(x) => assert_eq!(x.len(), b * img_len, "conv2d forward: shared input"),
    }
    for (w_data, bias) in weights.iter().zip(biases) {
        assert_eq!(w_data.len(), out_ch * patch, "conv2d forward: filter bank size");
        assert_eq!(bias.len(), out_ch, "conv2d forward: bias length");
    }
    if let Epilogue::ReluPool { keep: Some((planes, argmax)), .. } = &epilogue {
        assert_eq!(planes.len(), groups * b * plane_len, "conv2d forward: kept planes");
        assert_eq!(argmax.len(), out.len(), "conv2d forward: kept argmax");
    }
    let bank_len = kernels::packed_a_len(out_ch, patch);
    let mut banks = workspace::take_uninit(groups * bank_len);
    for (g, w_data) in weights.iter().enumerate() {
        let bank = MatRef { data: w_data, rs: patch, cs: 1 };
        kernels::prepack_a(bank, out_ch, patch, &mut banks[g * bank_len..][..bank_len]);
    }
    let banks = &banks[..];
    // One item's bias-seeded convolution into its `(out_ch, oh, ow)` plane.
    let convolve = |item: usize, plane: &mut [f32]| {
        let (g, bi) = (item / b, item % b);
        let image = match input {
            GroupedA::PerGroup(x) => &x[item * img_len..][..img_len],
            GroupedA::Shared(x) => &x[bi * img_len..][..img_len],
        };
        let mut padded = workspace::take_uninit(padded_len(h, w, spec));
        let patches = pad_image(image, h, w, spec, Orient::TapPos, &mut padded);
        for (dst, &bv) in plane.chunks_exact_mut(out_plane).zip(biases[g]) {
            dst.fill(bv);
        }
        kernels::gemm(
            false,
            out_ch,
            out_plane,
            patch,
            ASource::Packed(&banks[g * bank_len..][..bank_len]),
            BSource::Patches(patches),
            plane,
        );
    };
    let items = out.par_chunks_mut(item_len).enumerate();
    match epilogue {
        Epilogue::Store => items.for_each(|(item, plane)| convolve(item, plane)),
        Epilogue::ReluPool { k, keep: None } => items.for_each(|(item, pooled)| {
            let mut plane = workspace::take_uninit(plane_len);
            convolve(item, &mut plane);
            relu(&mut plane);
            maxpool2d_forward_into(&plane, out_ch, oh, ow, k, pooled, None);
        }),
        Epilogue::ReluPool { k, keep: Some((planes, argmax)) } => {
            let kept = planes.par_chunks_mut(plane_len).zip(argmax.par_chunks_mut(item_len));
            items.zip(kept).for_each(|((item, pooled), (plane, argmax))| {
                convolve(item, plane);
                relu(plane);
                maxpool2d_forward_into(plane, out_ch, oh, ow, k, pooled, Some(&mut *argmax));
                // Index the whole kept slab, not this item's plane.
                let base = (item * plane_len) as u32;
                argmax.iter_mut().for_each(|i| *i += base);
            });
        }
    }
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
    let (x, bank, bias) = (GroupedA::PerGroup(input.data()), [weight.data()], [bias.data()]);
    conv2d_forward_into(x, b, h, w, spec, &bank, &bias, Epilogue::Store, &mut out);
    Tensor::from_vec(out, &[b, spec.out_ch, oh, ow])
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
    let x = GroupedA::PerGroup(input);
    conv2d_forward_into(x, b, h, w, spec, weights, biases, Epilogue::Store, out);
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
/// grads) and returns the input gradient. A call of [`conv2d_backward_into`].
pub fn conv2d_backward_acc(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    spec: &Conv2dSpec,
    d_weight: &mut Tensor,
    d_bias: &mut Tensor,
) -> Tensor {
    let &[b, c, h, w] = input.dims() else { panic!("conv2d input must be (B,C,H,W)") };
    assert_eq!(c, spec.in_ch, "conv2d backward: channel mismatch");
    assert_eq!(weight.dims(), &[spec.out_ch, spec.patch_len()], "conv2d backward: filter bank");
    let (oh, ow) = spec.out_size(h, w);
    assert_eq!(d_out.dims(), &[b, spec.out_ch, oh, ow]);
    assert_eq!(d_weight.dims(), &[spec.out_ch, spec.patch_len()], "conv2d backward: d_weight");
    let mut d_input = vec![0.0f32; input.numel()];
    let input_grad = Some((weight.data(), &mut d_input[..]));
    let (dw, db) = (d_weight.data_mut(), d_bias.data_mut());
    conv2d_backward_into(input.data(), b, h, w, spec, d_out.data(), input_grad, dw, db);
    Tensor::from_vec(d_input, input.dims())
}

/// The one backward-convolution body: `b` images `(in_ch, h, w)` in `input`
/// and their upstream gradient `d_out` `(b, out_ch, oh, ow)`. Adds the batch
/// weight/bias gradients into `d_weight` `(out_ch, patch_len)` and `d_bias`
/// `(out_ch)`; when `input_grad` carries the filter bank and a
/// `(b, in_ch, h, w)` buffer, adds the input gradient there too (`dcolsᵀ`
/// per image, then [`scatter`]). A first layer, whose input gradient nobody
/// reads, passes `None` and skips the `dcolsᵀ` GEMM and the scatter; its
/// `d_weight`/`d_bias` get the same bits, because both producers fold
/// through the same tree.
///
/// Every image gets one task: the input gradient is written directly into
/// that image's disjoint slice, while the weight/bias gradients accumulate
/// through the shim's fixed fold/reduce tree over batch indices — combine
/// order depends only on the batch size, never the thread count, so the
/// result is bit-identical at any `FG_THREADS`. All scratch (the packed
/// filter bank, each image's padded copy and column gradient, and the fold
/// accumulators) comes from the thread-local workspace pool, so steady-state
/// calls allocate nothing.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into(
    input: &[f32],
    b: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    d_out: &[f32],
    input_grad: Option<(&[f32], &mut [f32])>,
    d_weight: &mut [f32],
    d_bias: &mut [f32],
) {
    CONV_BWD_CALLS.incr();
    let _span = fg_obs::span::span("tensor.conv2d.backward");
    let (oh, ow) = spec.out_size(h, w);
    let out_plane = oh * ow;
    let img_len = spec.in_ch * h * w;
    let patch = spec.patch_len();
    let out_ch = spec.out_ch;
    assert_eq!(input.len(), b * img_len, "conv2d backward: input");
    assert_eq!(d_out.len(), b * out_ch * out_plane, "conv2d backward: d_out");
    assert_eq!(d_weight.len(), out_ch * patch, "conv2d backward: d_weight");
    assert_eq!(d_bias.len(), out_ch, "conv2d backward: d_bias");
    if let Some((bank, d_input)) = &input_grad {
        assert_eq!(bank.len(), out_ch * patch, "conv2d backward: filter bank");
        assert_eq!(d_input.len(), b * img_len, "conv2d backward: d_input");
    }

    // One image's contribution: `dw`/`db` gain its weight/bias gradients and,
    // given the packed transposed filter bank, `dimg` gains its input
    // gradient. The image's `d_out` block is read in place, as `A` for dW and
    // as `B` for `dcolsᵀ`.
    type Acc = (workspace::Scratch, workspace::Scratch);
    let per_image = |(mut dw, mut db): Acc, bi: usize, dimg: Option<(&[f32], &mut [f32])>| -> Acc {
        let image = &input[bi * img_len..][..img_len];
        let mut padded = workspace::take_uninit(padded_len(h, w, spec));
        let patches = pad_image(image, h, w, spec, Orient::PosTap, &mut padded);
        let g = &d_out[bi * out_ch * out_plane..][..out_ch * out_plane];

        // dW += d_out(out_ch × out_plane) · cols(out_plane × patch).
        kernels::gemm(
            false,
            out_ch,
            patch,
            out_plane,
            MatRef { data: g, rs: out_plane, cs: 1 },
            BSource::Patches(patches),
            &mut dw,
        );
        // db += each channel's plane sum, in increasing position order.
        for (d, plane) in db.iter_mut().zip(g.chunks_exact(out_plane)) {
            for &v in plane {
                *d += v;
            }
        }
        if let Some((bank_t, dimg)) = dimg {
            // dcolsᵀ = Wᵀ(patch × out_ch) · d_out(out_ch × out_plane),
            // scattered back into this image's input-gradient slice.
            let mut dcols = workspace::take_zeroed(patch * out_plane);
            kernels::gemm(
                false,
                patch,
                out_plane,
                out_ch,
                ASource::Packed(bank_t),
                MatRef { data: g, rs: out_plane, cs: 1 },
                &mut dcols,
            );
            scatter(Level::detect(), &dcols, h, w, spec, dimg);
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
        Some((w_data, d_input)) => {
            // The filter bank transposed, the `dcolsᵀ` product's `A`, packed
            // once for every image.
            let mut bank = workspace::take_uninit(kernels::packed_a_len(patch, out_ch));
            let bank_t = MatRef { data: w_data, rs: 1, cs: patch };
            kernels::prepack_a(bank_t, patch, out_ch, &mut bank);
            let bank = &bank[..];
            d_input
                .par_chunks_mut(img_len)
                .enumerate()
                .fold(fresh, |acc, (bi, dimg)| per_image(acc, bi, Some((bank, dimg))))
                .reduce(fresh, merge)
        }
        None => (0..b)
            .into_par_iter()
            .fold(fresh, |acc, bi| per_image(acc, bi, None))
            .reduce(fresh, merge),
    };

    for (d, &v) in d_weight.iter_mut().zip(dw.iter()) {
        *d += v;
    }
    for (d, &v) in d_bias.iter_mut().zip(db.iter()) {
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

    /// `out(i, j) += A(i, ·) · B(·, j)` exactly as the GEMM driver's numeric
    /// contract states it: per element and per `KC` slab one chain from zero
    /// over increasing `p` — a fused multiply-add at the vector levels, a
    /// multiply then an add on the scalar one — then one add into `out`. `A`
    /// is `(data, rs, cs)`, `B` is row-major `(k, n)`. Elements are
    /// vectorised across `j`, which never reorders any one element's chain.
    struct Chain<'a> {
        fused: bool,
        n: usize,
        k: usize,
        a: (&'a [f32], usize, usize),
        b: &'a [f32],
        out: &'a mut [f32],
    }

    impl crate::simd::Kernel for Chain<'_> {
        type Output = ();

        #[inline(always)]
        fn run(self) {
            let (n, k, (a, rs, cs)) = (self.n, self.k, self.a);
            let mut acc = vec![0.0f32; n];
            for (i, out_row) in self.out.chunks_exact_mut(n).enumerate() {
                for pc in (0..k).step_by(crate::kernels::KC) {
                    acc.fill(0.0);
                    for p in pc..(pc + crate::kernels::KC).min(k) {
                        let x = a[i * rs + p * cs];
                        let b_row = &self.b[p * n..][..n];
                        if self.fused {
                            for (o, &y) in acc.iter_mut().zip(b_row) {
                                *o = x.mul_add(y, *o);
                            }
                        } else {
                            for (o, &y) in acc.iter_mut().zip(b_row) {
                                *o += x * y;
                            }
                        }
                    }
                    for (o, &v) in out_row.iter_mut().zip(&acc) {
                        *o += v;
                    }
                }
            }
        }
    }

    /// [`Chain`] at this CPU's level, as the production GEMM runs.
    fn chain(n: usize, k: usize, a: (&[f32], usize, usize), b: &[f32], out: &mut [f32]) {
        let fused = crate::simd::Level::detect() != crate::simd::Level::Scalar;
        crate::simd::run(Chain { fused, n, k, a, b, out });
    }

    fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; src.len()];
        for (r, row) in src.chunks_exact(cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out[c * rows + r] = v;
            }
        }
        out
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            panic!("{what}: element {i} is {} but the oracle says {}", got[i], want[i]);
        }
    }

    #[test]
    fn table_ii_convs_match_the_chain_oracle_bitwise() {
        // Every conv output is checked against `im2col`, then the per-element
        // chain, then (for the input gradient) `col2im`: the Table II shapes,
        // at batch 32 and a ragged 3, one group, three groups on their own
        // images and three groups on shared images.
        let (groups, full) = (3usize, 32usize);
        let mut rng = SeededRng::new(28);
        for (spec, hw) in [
            (Conv2dSpec { in_ch: 1, out_ch: 32, kh: 5, kw: 5, pad: 2 }, 28),
            (Conv2dSpec { in_ch: 32, out_ch: 64, kh: 5, kw: 5, pad: 2 }, 14),
        ] {
            let (h, w) = (hw, hw);
            let (oh, ow) = spec.out_size(h, w);
            let (plane, patch, out_ch) = (oh * ow, spec.patch_len(), spec.out_ch);
            let (img, out_img) = (spec.in_ch * h * w, out_ch * plane);
            // `groups` image sets of `full`; a ragged batch is each set's head.
            let x = Tensor::randn(&[groups * full, spec.in_ch, h, w], &mut rng);
            let banks: Vec<Tensor> =
                (0..groups).map(|_| Tensor::randn(&[out_ch, patch], &mut rng)).collect();
            let biases: Vec<Tensor> =
                (0..groups).map(|_| Tensor::randn(&[out_ch], &mut rng)).collect();
            let wv: Vec<&[f32]> = banks.iter().map(Tensor::data).collect();
            let bv: Vec<&[f32]> = biases.iter().map(Tensor::data).collect();
            let image = |set: usize, bi: usize| &x.data()[(set * full + bi) * img..][..img];
            let cols_of = |set: usize, bi: usize| {
                let mut cols = vec![0.0f32; plane * patch];
                im2col(image(set, bi), h, w, &spec, &mut cols);
                cols
            };

            // The forward oracle of bank `g` on every image of set `set`.
            let forward = |g: usize, set: usize| -> Vec<f32> {
                let mut want = Vec::with_capacity(full * out_img);
                for bi in 0..full {
                    let cols_t = transpose(&cols_of(set, bi), plane, patch);
                    let mut out: Vec<f32> =
                        bv[g].iter().flat_map(|&b| std::iter::repeat_n(b, plane)).collect();
                    chain(plane, patch, (wv[g], patch, 1), &cols_t, &mut out);
                    want.extend(out);
                }
                want
            };
            let own: Vec<Vec<f32>> = (0..groups).map(|g| forward(g, g)).collect();
            let on_first: Vec<Vec<f32>> =
                (0..groups).map(|g| if g == 0 { own[0].clone() } else { forward(g, 0) }).collect();

            for b in [full, 3] {
                let what = |kind: &str, g: usize| format!("{spec:?} b={b} {kind} group {g}");
                let set_batch = |set: usize| &x.data()[set * full * img..][..b * img];
                let first = Tensor::from_vec(set_batch(0).to_vec(), &[b, spec.in_ch, h, w]);
                let one = conv2d_forward(&first, &banks[0], &biases[0], &spec);
                assert_bits(one.data(), &own[0][..b * out_img], &what("one-group", 0));

                let input: Vec<f32> = (0..groups).flat_map(|s| set_batch(s).to_vec()).collect();
                let mut per_group = vec![0.0f32; groups * b * out_img];
                conv2d_forward_grouped(&input, b, h, w, &spec, &wv, &bv, &mut per_group);
                let mut shared = vec![0.0f32; groups * b * out_img];
                let first_images = GroupedA::Shared(set_batch(0));
                let store = Epilogue::Store;
                conv2d_forward_into(first_images, b, h, w, &spec, &wv, &bv, store, &mut shared);
                for g in 0..groups {
                    let got = &per_group[g * b * out_img..][..b * out_img];
                    assert_bits(got, &own[g][..b * out_img], &what("per-group", g));
                    let got = &shared[g * b * out_img..][..b * out_img];
                    assert_bits(got, &on_first[g][..b * out_img], &what("shared", g));
                }

                // Input gradient: dcols = d_outᵀ · W per image, then col2im.
                let d_out = Tensor::randn(&[b, out_ch, oh, ow], &mut rng);
                let grads = conv2d_backward(&first, &banks[0], &d_out, &spec);
                let mut want = vec![0.0f32; b * img];
                for (bi, dimg) in want.chunks_exact_mut(img).enumerate() {
                    let g_img = &d_out.data()[bi * out_img..][..out_img];
                    let mut dcols = vec![0.0f32; plane * patch];
                    chain(patch, out_ch, (g_img, 1, plane), wv[0], &mut dcols);
                    col2im(&dcols, h, w, &spec, dimg);
                }
                assert_bits(grads.d_input.data(), &want, &what("d_input", 0));
            }

            // Weight and bias gradients of one image: no fold tree involved.
            let d_out = Tensor::randn(&[1, out_ch, oh, ow], &mut rng);
            let single = Tensor::from_vec(image(0, 0).to_vec(), &[1, spec.in_ch, h, w]);
            let grads = conv2d_backward(&single, &banks[0], &d_out, &spec);
            let mut d_weight = vec![0.0f32; out_ch * patch];
            chain(patch, plane, (d_out.data(), plane, 1), &cols_of(0, 0), &mut d_weight);
            assert_bits(grads.d_weight.data(), &d_weight, &format!("{spec:?} d_weight"));
            let d_bias: Vec<f32> = d_out
                .data()
                .chunks_exact(plane)
                .map(|p| p.iter().fold(0.0, |s, &v| s + v))
                .collect();
            assert_bits(grads.d_bias.data(), &d_bias, &format!("{spec:?} d_bias"));
        }
    }

    #[test]
    fn input_gradient_accumulates_the_chain_and_col2im_bits() {
        // The input gradient against `dcols = d_outᵀ · W` (the per-element
        // chain) scattered by `col2im`, accumulated 31 times onto a non-zero
        // gradient: Table II's conv1 and conv2, odd kernels and padding on a
        // 13×11 image, and widths of more than two 16-lane chunks, one with
        // a non-square window.
        let (b, calls) = (2usize, 31);
        let mut rng = SeededRng::new(45);
        for (spec, (h, w)) in [
            (Conv2dSpec { in_ch: 1, out_ch: 32, kh: 5, kw: 5, pad: 2 }, (28, 28)),
            (Conv2dSpec { in_ch: 32, out_ch: 64, kh: 5, kw: 5, pad: 2 }, (14, 14)),
            (Conv2dSpec { in_ch: 3, out_ch: 4, kh: 3, kw: 3, pad: 0 }, (13, 11)),
            (Conv2dSpec { in_ch: 3, out_ch: 4, kh: 3, kw: 3, pad: 1 }, (13, 11)),
            (Conv2dSpec { in_ch: 3, out_ch: 5, kh: 3, kw: 3, pad: 1 }, (4, 40)),
            (Conv2dSpec { in_ch: 2, out_ch: 3, kh: 3, kw: 4, pad: 1 }, (5, 40)),
        ] {
            let (oh, ow) = spec.out_size(h, w);
            let (plane, patch, out_ch) = (oh * ow, spec.patch_len(), spec.out_ch);
            let (img, out_img) = (spec.in_ch * h * w, out_ch * plane);
            let x = Tensor::randn(&[b * img], &mut rng);
            let bank = Tensor::randn(&[out_ch * patch], &mut rng);
            let mut got = Tensor::randn(&[b * img], &mut rng).into_vec();
            let mut want = got.clone();
            let (mut dw, mut db) = (vec![0.0f32; out_ch * patch], vec![0.0f32; out_ch]);
            for call in 0..calls {
                let d_out = Tensor::randn(&[b * out_img], &mut rng);
                let input_grad = Some((bank.data(), &mut got[..]));
                let g = d_out.data();
                conv2d_backward_into(x.data(), b, h, w, &spec, g, input_grad, &mut dw, &mut db);
                for (bi, dimg) in want.chunks_exact_mut(img).enumerate() {
                    let mut dcols = vec![0.0f32; plane * patch];
                    chain(patch, out_ch, (&g[bi * out_img..], 1, plane), bank.data(), &mut dcols);
                    col2im(&dcols, h, w, &spec, dimg);
                }
                assert_bits(&got, &want, &format!("{spec:?} {h}×{w} d_input after call {call}"));
            }
        }
    }

    #[test]
    fn scatter_is_bit_identical_at_every_level() {
        // Each level's scatter of a patch-major column gradient equals
        // `col2im` of its transpose, on Table II's conv1 and conv2, a
        // 13×11 image without padding, a 40-wide one (three 16-lane chunks,
        // the last partial) and a 2×1 one narrower than its window, onto a
        // gradient holding ±0 and normals.
        let mut rng = SeededRng::new(46);
        for (spec, (h, w)) in [
            (Conv2dSpec { in_ch: 1, out_ch: 32, kh: 5, kw: 5, pad: 2 }, (28, 28)),
            (Conv2dSpec { in_ch: 32, out_ch: 64, kh: 5, kw: 5, pad: 2 }, (14, 14)),
            (Conv2dSpec { in_ch: 3, out_ch: 4, kh: 3, kw: 3, pad: 0 }, (13, 11)),
            (Conv2dSpec { in_ch: 2, out_ch: 3, kh: 3, kw: 4, pad: 1 }, (5, 40)),
            (Conv2dSpec { in_ch: 2, out_ch: 3, kh: 5, kw: 5, pad: 2 }, (2, 1)),
        ] {
            let (oh, ow) = spec.out_size(h, w);
            let (plane, patch) = (oh * ow, spec.patch_len());
            let dcols = Tensor::randn(&[patch * plane], &mut rng);
            let start: Vec<f32> =
                (0..spec.in_ch * h * w).map(|i| [0.0, -0.0, rng.next_normal()][i % 3]).collect();
            let mut want = start.clone();
            col2im(&transpose(dcols.data(), patch, plane), h, w, &spec, &mut want);
            for level in Level::offered() {
                let mut got = start.clone();
                scatter(level, dcols.data(), h, w, &spec, &mut got);
                assert_bits(&got, &want, &format!("{spec:?} {h}×{w} scatter at {level:?}"));
            }
        }
    }

    #[test]
    fn relu_pool_epilogue_equals_store_then_relu_then_pool() {
        // Three groups on shared images, an odd plane so the pool floors;
        // the kept argmax indexes the whole kept slab, as one pool call over
        // the stored slab would.
        let mut rng = SeededRng::new(34);
        let spec = Conv2dSpec { in_ch: 2, out_ch: 3, kh: 3, kw: 3, pad: 1 };
        let (groups, b, h, w, k) = (3usize, 5usize, 7usize, 6usize, 2usize);
        let x = Tensor::randn(&[b, spec.in_ch, h, w], &mut rng);
        let banks: Vec<Tensor> = (0..groups)
            .map(|_| Tensor::randn(&[spec.out_ch, spec.patch_len()], &mut rng))
            .collect();
        let biases: Vec<Tensor> =
            (0..groups).map(|_| Tensor::randn(&[spec.out_ch], &mut rng)).collect();
        let wv: Vec<&[f32]> = banks.iter().map(Tensor::data).collect();
        let bv: Vec<&[f32]> = biases.iter().map(Tensor::data).collect();
        let run = |epilogue: Epilogue<'_>, out: &mut [f32]| {
            let x = GroupedA::Shared(x.data());
            conv2d_forward_into(x, b, h, w, &spec, &wv, &bv, epilogue, out);
        };

        let mut stored = vec![0.0f32; groups * b * spec.out_ch * h * w];
        run(Epilogue::Store, &mut stored);
        relu(&mut stored);
        let pooled_len = groups * b * spec.out_ch * (h / k) * (w / k);
        let (mut want, mut want_argmax) = (vec![0.0f32; pooled_len], vec![0u32; pooled_len]);
        let c = spec.out_ch;
        maxpool2d_forward_into(&stored, c, h, w, k, &mut want, Some(&mut want_argmax));

        let mut lean = vec![0.0f32; pooled_len];
        run(Epilogue::ReluPool { k, keep: None }, &mut lean);
        assert_bits(&lean, &want, "pooled, nothing kept");
        let (mut kept, mut planes) = (vec![0.0f32; pooled_len], vec![0.0f32; stored.len()]);
        let mut argmax = vec![0u32; pooled_len];
        run(Epilogue::ReluPool { k, keep: Some((&mut planes, &mut argmax)) }, &mut kept);
        assert_bits(&kept, &want, "pooled, planes kept");
        assert_bits(&planes, &stored, "kept planes");
        assert_eq!(argmax, want_argmax, "kept argmax");
    }

    #[test]
    fn params_only_backward_accumulates_the_same_gradient_bits() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = SeededRng::new(2);
        let spec = Conv2dSpec { in_ch: 2, out_ch: 4, kh: 3, kw: 3, pad: 1 };
        let w = Tensor::kaiming_uniform(&[4, spec.patch_len()], spec.patch_len(), &mut rng);
        // Batch 5 splits the fold/reduce tree unevenly.
        let x = Tensor::randn(&[5, 2, 8, 8], &mut rng);
        let g = Tensor::randn(&[5, 4, 8, 8], &mut rng);
        let (mut full_w, mut full_b) = (Tensor::zeros(&[4, spec.patch_len()]), Tensor::zeros(&[4]));
        let (mut lean_w, mut lean_b) = (full_w.clone(), full_b.clone());
        // Twice, so the second pass accumulates onto a non-zero gradient.
        for _ in 0..2 {
            conv2d_backward_acc(&x, &w, &g, &spec, &mut full_w, &mut full_b);
            let (dw, db) = (lean_w.data_mut(), lean_b.data_mut());
            conv2d_backward_into(x.data(), 5, 8, 8, &spec, g.data(), None, dw, db);
        }
        assert_eq!(bits(&lean_w), bits(&full_w));
        assert_eq!(bits(&lean_b), bits(&full_b));
    }

    #[test]
    #[should_panic(expected = "conv2d backward: channel mismatch")]
    fn backward_rejects_an_input_with_more_channels_than_the_spec() {
        let spec = Conv2dSpec { in_ch: 1, out_ch: 2, kh: 3, kw: 3, pad: 1 };
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let w = Tensor::zeros(&[2, spec.patch_len()]);
        conv2d_backward(&x, &w, &Tensor::zeros(&[1, 2, 4, 4]), &spec);
    }

    #[test]
    #[should_panic(expected = "conv2d backward: filter bank")]
    fn backward_rejects_a_filter_bank_of_the_wrong_shape() {
        let spec = Conv2dSpec { in_ch: 1, out_ch: 2, kh: 3, kw: 3, pad: 1 };
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let w = Tensor::zeros(&[2, spec.patch_len() + 1]);
        conv2d_backward(&x, &w, &Tensor::zeros(&[1, 2, 4, 4]), &spec);
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
