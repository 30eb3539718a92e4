//! Vector algebra over raw `&[f32]` parameter slices.
//!
//! Federated aggregation operates on flattened model-parameter vectors (1.66
//! million elements at paper scale), not on shaped tensors, so these free
//! functions work directly on slices. They are the primitives FedAvg, GeoMed,
//! Krum and the attacks are built from; [`relu`] is the elementwise
//! activation every network pass shares.

use rayon::prelude::*;

/// Below this length the fork-join overhead exceeds the work; stay
/// sequential. Each `join` costs a queue push plus (worst case) a couple of
/// hundred microseconds of latch wait, so a parallel block must carry at
/// least ~10⁵ float ops to pay for itself now that the pool is real.
const PAR_LEN: usize = 1 << 16;

/// Euclidean distance between two equal-length vectors.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    squared_distance_f64(a, b).sqrt() as f32
}

/// Squared Euclidean distance, truncated to f32.
///
/// Accumulation happens in f64 (see [`squared_distance_f64`]); finite inputs
/// whose true squared distance exceeds `f32::MAX` still come back as `+inf`
/// after the cast — callers that rank by distance (Krum) must stay on the
/// f64 form to keep their ordering intact.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    squared_distance_f64(a, b) as f32
}

/// Squared Euclidean distance with f64 accumulation.
///
/// Per-element squares of f32 inputs can reach ~1e76, far beyond
/// `f32::MAX ≈ 3.4e38`: a single large-but-finite poisoned coordinate used
/// to overflow the old f32 accumulator to `+inf` and collapse Krum's score
/// ordering whenever several attackers overflowed together. Partial sums are
/// taken per `PAR_LEN` chunk (each chunk folds left-to-right in f64) and the
/// chunk partials are reduced **sequentially in chunk order**, so the result
/// is bit-identical at any `FG_THREADS` and identical whether a caller walks
/// the vectors whole or slab by slab.
pub fn squared_distance_f64(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    // Subtract in f64 too: a diff of two finite f32s near ±3e38 would already
    // overflow before squaring if taken at f32 width.
    let chunk_sum = |ca: &[f32], cb: &[f32]| {
        ca.iter().zip(cb).fold(0.0f64, |acc, (x, y)| {
            let d = *x as f64 - *y as f64;
            acc + d * d
        })
    };
    if a.len() >= PAR_LEN {
        let partials: Vec<f64> = a
            .par_chunks(PAR_LEN)
            .zip(b.par_chunks(PAR_LEN))
            .map(|(ca, cb)| chunk_sum(ca, cb))
            .collect();
        partials.iter().sum()
    } else {
        chunk_sum(a, b)
    }
}

/// Euclidean norm.
pub fn l2_norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// `out = sum_i w_i * vs_i` — the weighted mean when the weights sum to 1.
///
/// Panics if `vs` is empty, lengths are ragged, or weight count mismatches.
pub fn weighted_sum(vs: &[&[f32]], weights: &[f32]) -> Vec<f32> {
    assert!(!vs.is_empty(), "weighted_sum of zero vectors");
    let mut out = vec![0.0f32; vs[0].len()];
    weighted_sum_into(vs, weights, &mut out);
    out
}

/// [`weighted_sum`] into a caller-owned buffer — the allocation-free form
/// iterative callers (Weiszfeld) use to double-buffer instead of allocating
/// a fresh `d`-length vector every iteration. `out` is zeroed first, so the
/// result is bit-identical to `weighted_sum` whatever `out` held before.
pub fn weighted_sum_into(vs: &[&[f32]], weights: &[f32], out: &mut [f32]) {
    assert!(!vs.is_empty(), "weighted_sum of zero vectors");
    assert_eq!(vs.len(), weights.len(), "weighted_sum: weight count mismatch");
    let n = out.len();
    for v in vs {
        assert_eq!(v.len(), n, "weighted_sum: ragged input");
    }
    out.fill(0.0);
    if n >= PAR_LEN {
        // Parallel over disjoint output blocks; each block accumulates its
        // input slices in the same order as the sequential loop, so every
        // output element sees the identical add sequence (bit-identical).
        out.par_chunks_mut(PAR_LEN).enumerate().for_each(|(ci, block)| {
            let start = ci * PAR_LEN;
            let end = start + block.len();
            for (v, &w) in vs.iter().zip(weights) {
                if w == 0.0 {
                    continue;
                }
                for (o, &x) in block.iter_mut().zip(&v[start..end]) {
                    *o += w * x;
                }
            }
        });
    } else {
        for (v, &w) in vs.iter().zip(weights) {
            if w == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(*v) {
                *o += w * x;
            }
        }
    }
}

/// One step of an incremental (running) weighted mean:
/// `acc[j] += frac * (x[j] - acc[j])`, where `frac = w_k / (w_1 + … + w_k)`.
///
/// This is the O(d)-streamable form of the weighted mean: folding vectors
/// one at a time with their cumulative-weight fraction needs no knowledge of
/// the total weight up front, and — unlike `Σ (w_i / W) · x_i` with
/// f32-rounded weights — it is **structurally exact on identical inputs**:
/// once `acc == x` bitwise, `frac * (x - acc)` contributes exactly `+0.0`,
/// so averaging m copies of a vector returns that vector bit-for-bit (with
/// one caveat: a `-0.0` coordinate leaves the first fold as `+0.0`, because
/// the very first step computes `0.0 + 1.0 * (x - 0.0)`).
///
/// Element-wise over disjoint `PAR_LEN` blocks, so the result is
/// bit-identical at any `FG_THREADS`.
pub fn fold_weighted_mean(acc: &mut [f32], x: &[f32], frac: f32) {
    assert_eq!(acc.len(), x.len(), "fold_weighted_mean: length mismatch");
    if acc.len() >= PAR_LEN {
        acc.par_chunks_mut(PAR_LEN).zip(x.par_chunks(PAR_LEN)).for_each(|(ca, cx)| {
            for (a, &v) in ca.iter_mut().zip(cx) {
                *a += frac * (v - *a);
            }
        });
    } else {
        for (a, &v) in acc.iter_mut().zip(x) {
            *a += frac * (v - *a);
        }
    }
}

/// Arithmetic mean of a set of vectors, computed as an incremental fold
/// (`acc += (x_k - acc) / k`) so that the mean of m identical vectors is
/// bit-equal to the input — the old `Σ (1/m) · x_i` form drifted whenever
/// `1/m` was not exactly representable (m = 3 already breaks it).
pub fn mean_vector(vs: &[&[f32]]) -> Vec<f32> {
    assert!(!vs.is_empty(), "mean_vector of zero vectors");
    let mut acc = vs[0].to_vec();
    for (k, v) in vs.iter().enumerate().skip(1) {
        fold_weighted_mean(&mut acc, v, 1.0 / (k as f32 + 1.0));
    }
    acc
}

/// In-place `a += alpha * b`.
pub fn axpy(a: &mut [f32], alpha: f32, b: &[f32]) {
    assert_eq!(a.len(), b.len(), "axpy: length mismatch");
    if a.len() >= PAR_LEN {
        a.par_chunks_mut(PAR_LEN).zip(b.par_chunks(PAR_LEN)).for_each(|(ca, cb)| {
            for (x, &y) in ca.iter_mut().zip(cb) {
                *x += alpha * y;
            }
        });
    } else {
        for (x, &y) in a.iter_mut().zip(b) {
            *x += alpha * y;
        }
    }
}

/// ReLU in place, `max(x, 0)` per scalar, on the calling thread: the one
/// ReLU body, run by the conv block's epilogue ([`crate::conv::Epilogue`])
/// and by fg-nn's activations. The output is its own mask: it is positive
/// exactly where the input was.
pub fn relu(x: &mut [f32]) {
    for v in x {
        *v = v.max(0.0);
    }
}

/// In-place scale.
pub fn scale(a: &mut [f32], alpha: f32) {
    if a.len() >= PAR_LEN {
        a.par_chunks_mut(PAR_LEN).for_each(|c| {
            for x in c.iter_mut() {
                *x *= alpha;
            }
        });
    } else {
        for x in a.iter_mut() {
            *x *= alpha;
        }
    }
}

/// Linear interpolation `(1 - t) * a + t * b`, the server-learning-rate
/// update rule of FedGuard (§V-A): `t = 1` is the standard full step.
pub fn lerp(a: &[f32], b: &[f32], t: f32) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "lerp: length mismatch");
    if a.len() >= PAR_LEN {
        let mut out = vec![0.0f32; a.len()];
        out.par_chunks_mut(PAR_LEN).zip(a.par_chunks(PAR_LEN)).zip(b.par_chunks(PAR_LEN)).for_each(
            |((co, ca), cb)| {
                for ((o, x), y) in co.iter_mut().zip(ca).zip(cb) {
                    *o = (1.0 - t) * x + t * y;
                }
            },
        );
        out
    } else {
        a.iter().zip(b).map(|(x, y)| (1.0 - t) * x + t * y).collect()
    }
}

/// Full pairwise squared-distance matrix of `m` vectors, parallelized over
/// the O(m²) upper triangle. Entry `(i, j)` is `‖v_i − v_j‖²`.
pub fn pairwise_squared_distances(vs: &[&[f32]]) -> Vec<Vec<f32>> {
    pairwise_squared_distances_f64(vs)
        .into_iter()
        .map(|row| row.into_iter().map(|d| d as f32).collect())
        .collect()
}

/// [`pairwise_squared_distances`] at full f64 width — the form Krum ranks
/// on, where an f32 cast could collapse several large-but-finite distances
/// to one `+inf` tie.
pub fn pairwise_squared_distances_f64(vs: &[&[f32]]) -> Vec<Vec<f64>> {
    let m = vs.len();
    let pairs: Vec<(usize, usize)> = (0..m).flat_map(|i| (i + 1..m).map(move |j| (i, j))).collect();
    let dists: Vec<f64> =
        pairs.par_iter().map(|&(i, j)| squared_distance_f64(vs[i], vs[j])).collect();
    let mut mat = vec![vec![0.0f64; m]; m];
    for (&(i, j), &d) in pairs.iter().zip(&dists) {
        mat[i][j] = d;
        mat[j][i] = d;
    }
    mat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn weighted_sum_is_convex_combination() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        let out = weighted_sum(&[&a, &b], &[0.25, 0.75]);
        assert_eq!(out, vec![0.25, 0.75]);
    }

    #[test]
    fn mean_of_identical_vectors_is_identity() {
        let v = [2.0f32, -1.0, 0.5];
        let out = mean_vector(&[&v, &v, &v]);
        for (o, e) in out.iter().zip(&v) {
            assert!((o - e).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic]
    fn weighted_sum_rejects_ragged() {
        weighted_sum(&[&[1.0, 2.0], &[1.0]], &[0.5, 0.5]);
    }

    #[test]
    fn lerp_endpoints() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 6.0];
        assert_eq!(lerp(&a, &b, 0.0), a.to_vec());
        assert_eq!(lerp(&a, &b, 1.0), b.to_vec());
        assert_eq!(lerp(&a, &b, 0.5), vec![2.0, 4.0]);
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_zero_diagonal() {
        let vs: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 2.0]];
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let m = pairwise_squared_distances(&refs);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m[j][i]);
            }
        }
        assert_eq!(m[0][1], 1.0);
        assert_eq!(m[0][2], 4.0);
        assert_eq!(m[1][2], 5.0);
    }

    #[test]
    fn parallel_distance_matches_sequential() {
        // Length above PAR_LEN exercises the rayon path.
        let n = (1 << 16) + 7;
        let a: Vec<f32> = (0..n).map(|i| (i % 13) as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let seq: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        let par = squared_distance(&a, &b);
        assert!((seq - par).abs() < 1e-2 * seq.max(1.0));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = vec![1.0f32, 2.0];
        axpy(&mut a, 2.0, &[1.0, 1.0]);
        assert_eq!(a, vec![3.0, 4.0]);
        scale(&mut a, 0.5);
        assert_eq!(a, vec![1.5, 2.0]);
    }

    #[test]
    fn parallel_weighted_sum_matches_sequential_bitwise() {
        let n = (1 << 16) + 13; // crosses PAR_LEN with a ragged tail block
        let a: Vec<f32> = (0..n).map(|i| ((i % 31) as f32 - 15.0) * 0.1).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i % 17) as f32 - 8.0) * 0.2).collect();
        let c: Vec<f32> = (0..n).map(|i| (i % 5) as f32).collect();
        let w = [0.5f32, 0.0, 0.3];
        let par = weighted_sum(&[&a, &b, &c], &w);
        // Reference: the pre-parallel accumulation order.
        let mut seq = vec![0.0f32; n];
        for (v, &wi) in [&a, &b, &c].iter().zip(&w) {
            if wi == 0.0 {
                continue;
            }
            for (o, &x) in seq.iter_mut().zip(v.iter()) {
                *o += wi * x;
            }
        }
        assert!(par.iter().zip(&seq).all(|(p, s)| p.to_bits() == s.to_bits()));
    }

    #[test]
    fn parallel_axpy_and_lerp_match_sequential_bitwise() {
        let n = (1 << 17) + 3;
        let base: Vec<f32> = (0..n).map(|i| (i % 101) as f32 * 0.03).collect();
        let delta: Vec<f32> = (0..n).map(|i| ((i % 41) as f32 - 20.0) * 0.07).collect();

        let mut par = base.clone();
        axpy(&mut par, 1.5, &delta);
        let seq: Vec<f32> = base.iter().zip(&delta).map(|(x, y)| x + 1.5 * y).collect();
        assert!(par.iter().zip(&seq).all(|(p, s)| p.to_bits() == s.to_bits()));

        let par_l = lerp(&base, &delta, 0.25);
        let seq_l: Vec<f32> = base.iter().zip(&delta).map(|(x, y)| 0.75 * x + 0.25 * y).collect();
        assert!(par_l.iter().zip(&seq_l).all(|(p, s)| p.to_bits() == s.to_bits()));
    }

    #[test]
    fn large_finite_inputs_do_not_overflow_the_f64_accumulator() {
        // Each squared diff is ~1.5e77 — astronomically past f32::MAX — yet
        // the f64 sum stays finite and ordered. The old f32 accumulator
        // returned +inf for *both* and lost the ordering.
        let n = 64;
        let zero = vec![0.0f32; n];
        let big = vec![2.0e38f32; n];
        let bigger = vec![3.0e38f32; n];
        let d1 = squared_distance_f64(&zero, &big);
        let d2 = squared_distance_f64(&zero, &bigger);
        assert!(d1.is_finite() && d2.is_finite());
        assert!(d2 > d1);
        // The f32 view still saturates — documented truncation.
        assert_eq!(squared_distance(&zero, &big), f32::INFINITY);
    }

    #[test]
    fn chunked_distance_equals_whole_vector_distance_bitwise() {
        // Summing per-slab partials in slab order must give the same bits
        // as one whole-vector call: the contract the sharded aggregators
        // and the batch oracle both rely on.
        let n = 3 * (1 << 16) + 997; // ragged final slab
        let a: Vec<f32> = (0..n).map(|i| ((i % 37) as f32 - 18.0) * 1.7).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i % 23) as f32 - 11.0) * 0.9).collect();
        let whole = squared_distance_f64(&a, &b);
        let mut by_slab = 0.0f64;
        for (ca, cb) in a.chunks(1 << 16).zip(b.chunks(1 << 16)) {
            by_slab += squared_distance_f64(ca, cb);
        }
        assert_eq!(whole.to_bits(), by_slab.to_bits());
    }

    #[test]
    fn mean_of_identical_vectors_is_bit_identical() {
        let v: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.37 + 0.1).collect();
        for m in 1..=7 {
            let refs: Vec<&[f32]> = (0..m).map(|_| v.as_slice()).collect();
            let out = mean_vector(&refs);
            assert!(
                out.iter().zip(&v).all(|(o, e)| o.to_bits() == e.to_bits()),
                "mean of {m} copies drifted"
            );
        }
    }

    #[test]
    fn fold_weighted_mean_is_thread_invariant() {
        let n = (1 << 16) + 31;
        let base: Vec<f32> = (0..n).map(|i| (i % 19) as f32 * 0.05).collect();
        let x: Vec<f32> = (0..n).map(|i| ((i % 29) as f32 - 14.0) * 0.11).collect();
        let mut one = base.clone();
        let mut four = base.clone();
        rayon::with_threads(1, || fold_weighted_mean(&mut one, &x, 0.375));
        rayon::with_threads(4, || fold_weighted_mean(&mut four, &x, 0.375));
        assert!(one.iter().zip(&four).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn weighted_sum_into_matches_weighted_sum_and_ignores_stale_contents() {
        let n = (1 << 16) + 5;
        let a: Vec<f32> = (0..n).map(|i| (i % 13) as f32 * 0.3).collect();
        let b: Vec<f32> = (0..n).map(|i| (i % 11) as f32 * -0.2).collect();
        let fresh = weighted_sum(&[&a, &b], &[0.6, 0.4]);
        let mut stale = vec![f32::NAN; n];
        weighted_sum_into(&[&a, &b], &[0.6, 0.4], &mut stale);
        assert!(fresh.iter().zip(&stale).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
