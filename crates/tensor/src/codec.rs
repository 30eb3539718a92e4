//! Wire-compression kernels: per-block symmetric int8 quantization, bf16
//! round-to-nearest-even packing, and deterministic magnitude top-k
//! selection.
//!
//! These are the lossy primitives behind `fg_fl`'s update-compression layer
//! (DESIGN.md §14). Everything here obeys the crate's determinism contract:
//! parallelism is only over disjoint [`CODEC_SLAB`]-element (or
//! caller-chosen block) ranges with per-element outputs, so results are
//! bit-identical at any `FG_THREADS`. Selection ties in [`topk_select`] are
//! broken by ascending index, making the selected set a pure function of
//! the input.
//!
//! Scratch discipline: the kernels write into caller-owned buffers
//! (`resize`d, never reallocated when capacity suffices), so a warm
//! encode/decode loop allocates nothing — the same zero-alloc contract the
//! f32 [`crate::workspace`] pool gives the aggregation kernels, extended to
//! the non-f32 codec outputs the pool cannot hold.

use rayon::prelude::*;

/// Slab granularity for codec parallelism; matches the aggregation kernels'
/// `PAR_LEN` so codec and fold passes split the parameter vector at the
/// same offsets.
pub const CODEC_SLAB: usize = 1 << 16;

// ---------------------------------------------------------------------------
// bf16: round-to-nearest-even truncation of the f32 mantissa
// ---------------------------------------------------------------------------

/// Convert one f32 to bf16 bits with round-to-nearest-even. NaNs map to a
/// quiet NaN that preserves the sign and top mantissa bits.
#[inline]
pub fn f32_to_bf16(x: f32) -> u16 {
    let b = x.to_bits();
    if x.is_nan() {
        // Force a mantissa bit so the payload never truncates to infinity.
        ((b >> 16) as u16) | 0x0040
    } else {
        let rounding = 0x7FFF + ((b >> 16) & 1);
        ((b.wrapping_add(rounding)) >> 16) as u16
    }
}

/// Widen bf16 bits back to f32 — exact (bf16 ⊂ f32), so
/// `f32_to_bf16(bf16_to_f32(h)) == h` for every non-NaN `h`.
#[inline]
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// Pack `src` into bf16, overwriting `dst` (resized, reusing capacity).
pub fn bf16_pack_into(src: &[f32], dst: &mut Vec<u16>) {
    dst.clear();
    dst.resize(src.len(), 0);
    dst.par_chunks_mut(CODEC_SLAB).zip(src.par_chunks(CODEC_SLAB)).for_each(|(d, s)| {
        for (o, &x) in d.iter_mut().zip(s) {
            *o = f32_to_bf16(x);
        }
    });
}

/// Unpack bf16 into `dst`, which must already have `src.len()` elements
/// (typically a `workspace` scratch).
pub fn bf16_unpack_into(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "bf16_unpack_into: length mismatch");
    dst.par_chunks_mut(CODEC_SLAB).zip(src.par_chunks(CODEC_SLAB)).for_each(|(d, s)| {
        for (o, &h) in d.iter_mut().zip(s) {
            *o = bf16_to_f32(h);
        }
    });
}

// ---------------------------------------------------------------------------
// int8: symmetric per-block quantization with f32 scales
// ---------------------------------------------------------------------------

/// Quantize `src` into `q` with one symmetric scale per `block` elements:
/// `scale = max|x| / 127`, `q = clamp(round(x / scale), ±127)`. All-zero
/// blocks get `scale = 0` and all-zero codes. `scales` and `q` are
/// overwritten (capacity reused). Blocks are independent, so the pass is
/// parallel and bit-deterministic.
pub fn int8_quantize_into(src: &[f32], block: usize, scales: &mut Vec<f32>, q: &mut Vec<i8>) {
    assert!(block > 0, "int8_quantize_into: block must be non-zero");
    scales.clear();
    scales.resize(src.len().div_ceil(block), 0.0);
    q.clear();
    q.resize(src.len(), 0);
    scales.par_iter_mut().zip(q.par_chunks_mut(block)).zip(src.par_chunks(block)).for_each(
        |((scale, qc), xc)| {
            let max_abs = xc.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            if max_abs == 0.0 {
                *scale = 0.0;
                return; // qc is already zeroed
            }
            *scale = max_abs / 127.0;
            let inv = 127.0 / max_abs;
            for (o, &x) in qc.iter_mut().zip(xc) {
                *o = (x * inv).round().clamp(-127.0, 127.0) as i8;
            }
        },
    );
}

/// Dequantize `q` back into `dst` (`x' = q · scale`). `dst` must already
/// have `q.len()` elements; `scales.len()` must be `ceil(len / block)`.
pub fn int8_dequantize_into(q: &[i8], scales: &[f32], block: usize, dst: &mut [f32]) {
    assert!(block > 0, "int8_dequantize_into: block must be non-zero");
    assert_eq!(q.len(), dst.len(), "int8_dequantize_into: length mismatch");
    assert_eq!(scales.len(), q.len().div_ceil(block), "int8_dequantize_into: scale count mismatch");
    scales.par_iter().zip(dst.par_chunks_mut(block)).zip(q.par_chunks(block)).for_each(
        |((&scale, dc), qc)| {
            for (o, &c) in dc.iter_mut().zip(qc) {
                *o = c as f32 * scale;
            }
        },
    );
}

// ---------------------------------------------------------------------------
// top-k: deterministic magnitude selection
// ---------------------------------------------------------------------------

/// Number of entries a `frac` top-k keeps out of `len`: `ceil(len · frac)`,
/// clamped to `[0, len]` (0 only when `len == 0` or `frac == 0`).
pub fn topk_count(len: usize, frac: f64) -> usize {
    if len == 0 || frac <= 0.0 {
        return 0;
    }
    (((len as f64) * frac).ceil() as usize).clamp(1, len)
}

/// Select the indices of the `k` largest-magnitude entries of `src`,
/// written to `out` in ascending index order. Ties in magnitude are broken
/// by ascending index, so the selected *set* is a total-order prefix —
/// deterministic regardless of the selection algorithm's internals or the
/// thread count. `keys` is caller-owned scratch (reused across calls); the
/// key-building pass is parallel over [`CODEC_SLAB`] slabs.
pub fn topk_select(src: &[f32], k: usize, out: &mut Vec<u32>, keys: &mut Vec<u64>) {
    assert!(
        src.len() <= u32::MAX as usize,
        "topk_select: vectors beyond u32 indexing are unsupported"
    );
    out.clear();
    if k == 0 || src.is_empty() {
        return;
    }
    let k = k.min(src.len());
    // One u64 key per element: high 32 bits |x| (IEEE abs bits order
    // matches magnitude order for finite values), low 32 bits !index so
    // that among equal magnitudes the *larger* key has the *smaller* index.
    keys.clear();
    keys.resize(src.len(), 0);
    keys.par_chunks_mut(CODEC_SLAB).zip(src.par_chunks(CODEC_SLAB)).enumerate().for_each(
        |(slab, (kc, xc))| {
            let base = (slab * CODEC_SLAB) as u32;
            for (j, (o, &x)) in kc.iter_mut().zip(xc).enumerate() {
                let abs = (x.to_bits() & 0x7FFF_FFFF) as u64;
                *o = (abs << 32) | (!(base + j as u32)) as u64;
            }
        },
    );
    if k < keys.len() {
        // Partition the k largest keys to the front; the kept set is unique
        // because the key order is total, so the partition's internal
        // nondeterminism cannot change the outcome.
        keys.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    }
    out.extend(keys[..k].iter().map(|&key| !(key as u32)));
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;
    use rayon::with_threads;

    fn noise(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SeededRng::new(seed);
        (0..n).map(|_| rng.next_f32() * 4.0 - 2.0).collect()
    }

    #[test]
    fn bf16_known_values_round_to_nearest_even() {
        assert_eq!(f32_to_bf16(0.0), 0x0000);
        assert_eq!(f32_to_bf16(-0.0), 0x8000);
        assert_eq!(f32_to_bf16(1.0), 0x3F80);
        assert_eq!(f32_to_bf16(-2.0), 0xC000);
        // Below-tie rounds down, above-tie rounds up.
        assert_eq!(f32_to_bf16(f32::from_bits(0x3F80_7FFF)), 0x3F80);
        assert_eq!(f32_to_bf16(f32::from_bits(0x3F80_8001)), 0x3F81);
        // Exact ties round to even mantissa.
        assert_eq!(f32_to_bf16(f32::from_bits(0x3F80_8000)), 0x3F80);
        assert_eq!(f32_to_bf16(f32::from_bits(0x3F81_8000)), 0x3F82);
        // Infinities survive; NaN stays NaN.
        assert_eq!(f32_to_bf16(f32::INFINITY), 0x7F80);
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
    }

    #[test]
    fn bf16_pack_of_unpack_is_identity_on_bf16_values() {
        for h in [0x0000u16, 0x3F80, 0xC2F7, 0x0001, 0x7F80, 0xFF7F] {
            assert_eq!(f32_to_bf16(bf16_to_f32(h)), h, "h = {h:#06x}");
        }
    }

    #[test]
    fn bf16_relative_error_is_bounded() {
        let xs = noise(100_000, 7);
        let mut packed = Vec::new();
        bf16_pack_into(&xs, &mut packed);
        let mut back = vec![0.0f32; xs.len()];
        bf16_unpack_into(&packed, &mut back);
        for (&x, &y) in xs.iter().zip(&back) {
            // bf16 keeps 7 stored mantissa bits: rel err ≤ 2^-8 after RNE.
            assert!((x - y).abs() <= x.abs() * (1.0 / 256.0) + f32::EPSILON, "{x} -> {y}");
        }
    }

    #[test]
    fn bf16_pack_is_bitwise_identical_across_thread_counts() {
        let xs = noise(3 * CODEC_SLAB + 17, 11);
        let mut a = Vec::new();
        let mut b = Vec::new();
        with_threads(1, || bf16_pack_into(&xs, &mut a));
        with_threads(4, || bf16_pack_into(&xs, &mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn int8_round_trip_error_is_within_half_step() {
        let xs = noise(200_000, 13);
        let block = CODEC_SLAB;
        let (mut scales, mut q) = (Vec::new(), Vec::new());
        int8_quantize_into(&xs, block, &mut scales, &mut q);
        assert_eq!(scales.len(), xs.len().div_ceil(block));
        let mut back = vec![0.0f32; xs.len()];
        int8_dequantize_into(&q, &scales, block, &mut back);
        for (i, (&x, &y)) in xs.iter().zip(&back).enumerate() {
            let scale = scales[i / block];
            assert!((x - y).abs() <= scale * 0.5 + 1e-6, "elem {i}: {x} -> {y} (scale {scale})");
        }
    }

    #[test]
    fn int8_zero_blocks_quantize_to_zero_scale_and_codes() {
        let mut xs = vec![0.0f32; 300];
        xs[290] = 1.5; // last (partial) block non-zero, first blocks zero
        let (mut scales, mut q) = (Vec::new(), Vec::new());
        int8_quantize_into(&xs, 128, &mut scales, &mut q);
        assert_eq!(scales[0], 0.0);
        assert_eq!(scales[1], 0.0);
        assert!(scales[2] > 0.0);
        assert!(q[..256].iter().all(|&c| c == 0));
        assert_eq!(q[290], 127);
        let mut back = vec![1.0f32; xs.len()];
        int8_dequantize_into(&q, &scales, 128, &mut back);
        assert_eq!(back[0], 0.0);
        assert_eq!(back[290], 1.5);
    }

    #[test]
    fn int8_is_bitwise_identical_across_thread_counts() {
        let xs = noise(2 * CODEC_SLAB + 999, 17);
        let run = |n: usize| {
            with_threads(n, || {
                let (mut scales, mut q) = (Vec::new(), Vec::new());
                int8_quantize_into(&xs, 1 << 10, &mut scales, &mut q);
                let mut back = vec![0.0f32; xs.len()];
                int8_dequantize_into(&q, &scales, 1 << 10, &mut back);
                (scales, q, back.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn topk_selects_largest_magnitudes_with_index_tie_break() {
        let xs = [0.5f32, -3.0, 2.0, -2.0, 0.1, 3.0];
        let (mut idx, mut keys) = (Vec::new(), Vec::new());
        // |−3| and |3| tie at the top, then |2| and |−2| tie: ties must
        // resolve toward the smaller index.
        topk_select(&xs, 3, &mut idx, &mut keys);
        assert_eq!(idx, vec![1, 2, 5]);
        topk_select(&xs, 1, &mut idx, &mut keys);
        assert_eq!(idx, vec![1]);
    }

    #[test]
    fn topk_edges_and_determinism() {
        let xs = noise(CODEC_SLAB + 123, 23);
        let (mut idx, mut keys) = (Vec::new(), Vec::new());
        topk_select(&xs, 0, &mut idx, &mut keys);
        assert!(idx.is_empty());
        topk_select(&xs, xs.len() + 10, &mut idx, &mut keys);
        assert_eq!(idx.len(), xs.len());
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending, unique");

        let k = topk_count(xs.len(), 0.1);
        let run = |n: usize| {
            with_threads(n, || {
                let (mut i, mut s) = (Vec::new(), Vec::new());
                topk_select(&xs, k, &mut i, &mut s);
                i
            })
        };
        let a = run(1);
        assert_eq!(a, run(4));
        assert_eq!(a.len(), k);
        // Every kept magnitude ≥ every dropped magnitude.
        let kept_min = a.iter().map(|&i| xs[i as usize].abs()).fold(f32::INFINITY, f32::min);
        let dropped_max = (0..xs.len() as u32)
            .filter(|i| a.binary_search(i).is_err())
            .map(|i| xs[i as usize].abs())
            .fold(0.0f32, f32::max);
        assert!(kept_min >= dropped_max);
    }

    #[test]
    fn topk_count_boundaries() {
        assert_eq!(topk_count(0, 0.5), 0);
        assert_eq!(topk_count(100, 0.0), 0);
        assert_eq!(topk_count(100, 0.1), 10);
        assert_eq!(topk_count(101, 0.1), 11);
        assert_eq!(topk_count(100, 1.0), 100);
        assert_eq!(topk_count(100, 2.0), 100);
        assert_eq!(topk_count(3, 0.001), 1);
    }
}
