//! Property-based tests on the tensor substrate's algebraic invariants.

use fg_tensor::kernels::{matmul, matmul_at, matmul_bt};
use fg_tensor::rng::SeededRng;
use fg_tensor::stats;
use fg_tensor::Tensor;
use proptest::prelude::*;
use rayon::with_threads;

/// Naive triple-loop multiply, the oracle the blocked kernels answer to.
fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for kk in 0..k {
                s += a.at(&[i, kk]) * b.at(&[kk, j]);
            }
            *out.at_mut(&[i, j]) = s;
        }
    }
    out
}

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-5.0f32..5.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]))
}

/// A random GEMM problem derived from one seed: `(m, k, n)` spanning the
/// blocking boundaries (`m` past `MC`=32, `k` past `KC`=256, `n` past
/// `NR`=16), with each dim independently collapsed to the degenerate 1 every
/// few cases.
fn gemm_case(seed: u64) -> (Tensor, Tensor) {
    let mut rng = SeededRng::new(seed);
    let mut dim = |hi: usize| if rng.next_below(8) == 0 { 1 } else { 1 + rng.next_below(hi) };
    let (m, k, n) = (dim(70), dim(300), dim(40));
    let a = Tensor::randn(&[m, k], &mut rng);
    let b = Tensor::randn(&[k, n], &mut rng);
    (a, b)
}

fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(4, 6),
        b in tensor_strategy(6, 3),
        c in tensor_strategy(6, 3),
    ) {
        let lhs = matmul(&a, &b.add(&c));
        let rhs = matmul(&a, &b).add(&matmul(&a, &c));
        prop_assert!(close(&lhs, &rhs, 1e-4));
    }

    #[test]
    fn matmul_identity_is_neutral(a in tensor_strategy(5, 5)) {
        prop_assert!(close(&matmul(&a, &Tensor::eye(5)), &a, 1e-6));
        prop_assert!(close(&matmul(&Tensor::eye(5), &a), &a, 1e-6));
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose(a in tensor_strategy(3, 7), b in tensor_strategy(4, 7)) {
        prop_assert!(close(&matmul_bt(&a, &b), &matmul(&a, &b.transpose()), 1e-4));
    }

    #[test]
    fn matmul_at_equals_explicit_transpose(a in tensor_strategy(7, 3), b in tensor_strategy(7, 4)) {
        prop_assert!(close(&matmul_at(&a, &b), &matmul(&a.transpose(), &b), 1e-4));
    }

    #[test]
    fn blocked_gemm_matches_reference_on_random_shapes(seed in 0u64..1 << 32) {
        let (a, b) = gemm_case(seed);
        let reference = matmul_reference(&a, &b);
        prop_assert!(close(&matmul(&a, &b), &reference, 2e-4), "matmul vs reference");
        prop_assert!(
            close(&matmul_bt(&a, &b.transpose()), &reference, 2e-4),
            "matmul_bt vs reference"
        );
        prop_assert!(
            close(&matmul_at(&a.transpose(), &b), &reference, 2e-4),
            "matmul_at vs reference"
        );
    }

    #[test]
    fn blocked_gemm_is_bitwise_thread_invariant(seed in 0u64..1 << 32) {
        let (a, b) = gemm_case(seed);
        let seq = with_threads(1, || matmul(&a, &b));
        let par = with_threads(4, || matmul(&a, &b));
        let seq_bits: Vec<u32> = seq.data().iter().map(|x| x.to_bits()).collect();
        let par_bits: Vec<u32> = par.data().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(seq_bits, par_bits, "matmul bits diverged between 1 and 4 threads");
    }

    #[test]
    fn transpose_is_involutive(a in tensor_strategy(3, 8)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn reshape_preserves_contents(a in tensor_strategy(4, 6)) {
        let r = a.clone().reshape(&[6, 4]);
        prop_assert_eq!(r.data(), a.data());
        prop_assert_eq!(r.clone().reshape(&[4, 6]), a);
    }

    #[test]
    fn concat_then_slice_round_trips(a in tensor_strategy(3, 4), b in tensor_strategy(3, 2)) {
        let joined = a.concat_cols(&b);
        prop_assert_eq!(joined.slice_cols(0, 4), a);
        prop_assert_eq!(joined.slice_cols(4, 6), b);
    }

    #[test]
    fn axpy_matches_definition(
        a in proptest::collection::vec(-3.0f32..3.0, 16),
        b in proptest::collection::vec(-3.0f32..3.0, 16),
        alpha in -2.0f32..2.0,
    ) {
        let mut t = Tensor::from_vec(a.clone(), &[16]);
        t.axpy(alpha, &Tensor::from_vec(b.clone(), &[16]));
        for i in 0..16 {
            prop_assert!((t.data()[i] - (a[i] + alpha * b[i])).abs() < 1e-5);
        }
    }

    #[test]
    fn stats_invariants(v in proptest::collection::vec(-10.0f32..10.0, 2..40)) {
        let m = stats::mean(&v);
        let lo = v.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(m >= lo - 1e-4 && m <= hi + 1e-4);
        prop_assert!(stats::std_dev(&v) >= 0.0);
        let med = stats::median(&v);
        prop_assert!(med >= lo && med <= hi);
    }

    #[test]
    fn argmax_rows_points_at_row_maximum(a in tensor_strategy(4, 7)) {
        for (r, &j) in a.argmax_rows().iter().enumerate() {
            let row = a.row(r);
            prop_assert!(row.iter().all(|&v| v <= row[j]));
        }
    }

    #[test]
    fn l2_norm_triangle_inequality(a in tensor_strategy(1, 24), b in tensor_strategy(1, 24)) {
        let sum = a.add(&b);
        prop_assert!(sum.l2_norm() <= a.l2_norm() + b.l2_norm() + 1e-4);
    }
}
