//! 2-D max pooling (the paper's classifier uses 2×2, stride = kernel).
//!
//! The forward is a select chain compiled per SIMD level
//! ([`crate::simd::run`]): each window folds its elements row-major from
//! `−∞` with `best = if v > best { v } else { best }`, sixteen windows to a
//! vector step. It only selects, so every level yields the same values and
//! argmax. The backward routes each output gradient to its window's winner.

use crate::simd::{self, Kernel};
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
/// Each window is scanned row-major from `−∞` as a select chain,
/// `best = if v > best { v } else { best }`, the argmax picked by the same
/// compare (`Scan`): ties go to the first element, and a window with
/// nothing above `−∞` (all NaN or `−∞`) yields `−∞` and routes its gradient
/// to its own first element. Pooling is pure selection, no arithmetic, so
/// every vector level picks the same winners. It runs on the calling
/// thread: a caller that wants tasks splits the slab by images.
pub fn maxpool2d_forward_into(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    out: &mut [f32],
    argmax: Option<&mut [u32]>,
) {
    let (oh, ow) = (h / k, w / k);
    assert_eq!(input.len() % (c * h * w), 0, "maxpool2d forward: input slab size");
    let planes = input.len() / (h * w);
    assert_eq!(out.len(), planes * oh * ow, "maxpool2d forward: output slab size");
    if let Some(argmax) = &argmax {
        assert_eq!(argmax.len(), out.len(), "maxpool2d forward: argmax length");
    }
    simd::run(Scan { input, h, w, k, out, argmax });
}

/// [`maxpool2d_forward_into`]'s scan. It walks the output slab in order,
/// [`LANES`] windows of one output row per step, each window's select chain
/// running in its own lane ([`fold`]). A step may run past its
/// row's last window: the extra lanes read the next rows' elements and
/// write the next outputs, which a later step overwrites with their own
/// windows. A step is taken only where all its lanes' reads and writes fit
/// in the slabs; the last windows of the slab go one at a time.
struct Scan<'a> {
    input: &'a [f32],
    h: usize,
    w: usize,
    k: usize,
    out: &'a mut [f32],
    argmax: Option<&'a mut [u32]>,
}

/// Windows per vector step: one AVX-512 register of `f32`.
const LANES: usize = 16;

impl Kernel for Scan<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        // Every spec pools 2×2: a constant `k` lets that scan vectorise.
        match self.k {
            2 => self.scan(2),
            k => self.scan(k),
        }
    }
}

impl Scan<'_> {
    #[inline(always)]
    fn scan(mut self, k: usize) {
        let (h, w) = (self.h, self.w);
        let (oh, ow) = (h / k, w / k);
        if self.out.is_empty() {
            return;
        }
        for row in 0..self.out.len() / ow {
            // Output row `row` pools window row `row % oh` of plane `row / oh`.
            let first = row / oh * h * w + row % oh * k * w;
            let mut ox = 0;
            while ox < ow {
                let (at, o) = (first + ox * k, row * ow + ox);
                let fits =
                    o + LANES <= self.out.len() && at + (k - 1) * w + LANES * k <= self.input.len();
                ox += if fits {
                    self.windows::<LANES>(k, at, o)
                } else {
                    self.windows::<1>(k, at, o)
                };
            }
        }
    }

    /// The `N` windows whose first elements are `input[at + l·k]`, into
    /// `out[o + l]` (and `argmax[o + l]`) for `l < N`. Returns `N`.
    #[inline(always)]
    fn windows<const N: usize>(&mut self, k: usize, at: usize, o: usize) -> usize {
        let out = &mut self.out[o..][..N];
        match self.argmax.as_deref_mut() {
            None => out.copy_from_slice(&fold::<N, false>(self.input, self.w, k, at).0),
            Some(argmax) => {
                let (best, index) = fold::<N, true>(self.input, self.w, k, at);
                out.copy_from_slice(&best);
                argmax[o..][..N].copy_from_slice(&index);
            }
        }
        N
    }
}

/// The select chains of `N` windows of a `w`-wide plane whose first
/// elements are `input[at + l·k]`: per window, from `−∞`, each element `v`
/// row-major replaces the winner when `v > winner`. With `KEEP`, the
/// winners' indices into `input` too, starting at each window's first
/// element; without it, the index lanes compile away.
#[inline(always)]
fn fold<const N: usize, const KEEP: bool>(
    input: &[f32],
    w: usize,
    k: usize,
    at: usize,
) -> ([f32; N], [u32; N]) {
    let mut best = [f32::NEG_INFINITY; N];
    let mut index: [u32; N] = std::array::from_fn(|l| (at + l * k) as u32);
    for ky in 0..k {
        let src = &input[at + ky * w..][..N * k];
        for kx in 0..k {
            let first = (at + ky * w + kx) as u32;
            for (l, (b, i)) in best.iter_mut().zip(&mut index).enumerate() {
                let v = src[l * k + kx];
                let take = v > *b;
                *b = if take { v } else { *b };
                if KEEP {
                    *i = if take { first + (l * k) as u32 } else { *i };
                }
            }
        }
    }
    (best, index)
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
    use crate::simd::Level;

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

    /// The branchy window scan the forward body has to reproduce: per
    /// output element, `if v > best` from `−∞` over the window row-major.
    fn branchy_scan(
        input: &[f32],
        h: usize,
        w: usize,
        k: usize,
        out: &mut [f32],
        mut argmax: Option<&mut [u32]>,
    ) {
        let (oh, ow) = (h / k, w / k);
        for plane in 0..input.len() / (h * w) {
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

    #[test]
    fn forward_body_matches_the_branchy_scan() {
        // Planes drawn mostly from NaN, ±∞ and ±0 (whole windows of NaN or
        // −∞, ties between +0 and −0) plus normals, on the Table II planes
        // and odd sizes that floor, at k = 2 and 3, with and without argmax.
        let mut rng = SeededRng::new(45);
        let specials = [f32::NAN, f32::NEG_INFINITY, f32::INFINITY, 0.0, -0.0, 1.0, -1.0];
        for (c, h, w) in [(32, 28, 28), (64, 14, 14), (3, 7, 9), (2, 5, 40), (1, 13, 11), (2, 3, 3)]
        {
            let x: Vec<f32> = (0..3 * c * h * w)
                .map(|_| match rng.next_below(10) {
                    i @ 0..7 => specials[i],
                    _ => rng.next_normal(),
                })
                .collect();
            for k in [2, 3] {
                let len = 3 * c * (h / k) * (w / k);
                let (mut want, mut want_argmax) = (vec![0.0f32; len], vec![0u32; len]);
                branchy_scan(&x, h, w, k, &mut want, Some(&mut want_argmax));
                let what = format!("{c}×{h}×{w} k={k}");
                let (mut got, mut argmax) = (vec![f32::NAN; len], vec![u32::MAX; len]);
                maxpool2d_forward_into(&x, c, h, w, k, &mut got, Some(&mut argmax));
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{what}: pooled values");
                assert_eq!(argmax, want_argmax, "{what}: argmax");
                let mut lean = vec![f32::NAN; len];
                maxpool2d_forward_into(&x, c, h, w, k, &mut lean, None);
                assert_eq!(bits(&lean), bits(&want), "{what}: pooled values, no argmax");
            }
        }
    }

    #[test]
    fn select_chain_is_bit_identical_at_every_level() {
        // The scan at every offered level against the branchy oracle, with
        // and without argmax, on special-value planes whose windows reach
        // the slab's end (the one-window tail).
        let mut rng = SeededRng::new(46);
        let specials = [f32::NAN, f32::NEG_INFINITY, 0.0, -0.0, 1.0];
        for (c, h, w, k) in [(64, 14, 14, 2), (3, 7, 9, 2), (2, 5, 40, 3), (1, 2, 2, 2)] {
            let x: Vec<f32> = (0..2 * c * h * w)
                .map(|_| match rng.next_below(8) {
                    i @ 0..5 => specials[i],
                    _ => rng.next_normal(),
                })
                .collect();
            let len = 2 * c * (h / k) * (w / k);
            let (mut want, mut want_argmax) = (vec![0.0f32; len], vec![0u32; len]);
            branchy_scan(&x, h, w, k, &mut want, Some(&mut want_argmax));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for level in Level::offered() {
                let what = format!("{c}×{h}×{w} k={k} at {level:?}");
                let (mut got, mut argmax) = (vec![f32::NAN; len], vec![u32::MAX; len]);
                let argmax_out = Some(&mut argmax[..]);
                simd::run_at(level, Scan { input: &x, h, w, k, out: &mut got, argmax: argmax_out });
                assert_eq!(bits(&got), bits(&want), "{what}: pooled values");
                assert_eq!(argmax, want_argmax, "{what}: argmax");
                let mut lean = vec![f32::NAN; len];
                simd::run_at(level, Scan { input: &x, h, w, k, out: &mut lean, argmax: None });
                assert_eq!(bits(&lean), bits(&want), "{what}: pooled values, no argmax");
            }
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
