//! Warm-path allocation-freedom of the slab-sharded order-statistic
//! operators: once a first pass has primed the `fg_tensor::workspace` pool
//! with the m-length column scratch, a second pass of
//! `coordinate_median` / `trimmed_mean_vectors` must not touch the
//! allocator for scratch at all.
//!
//! `workspace::alloc_events` counts the calling thread's allocations, and
//! `with_threads(1)` keeps every take on that thread's pool — the pools are
//! per-thread, so which worker is warm under a wider schedule is up to the
//! scheduler (thread-count invariance of the results is
//! `schedule_invariance`'s job).

use fg_agg::{coordinate_median, trimmed_mean_vectors};
use fg_tensor::rng::SeededRng;
use fg_tensor::workspace;
use rayon::with_threads;

/// Four coordinate slabs (`SLAB = 1 << 16`) with a ragged tail.
const DIM: usize = 3 * (1 << 16) + 41;
const M: usize = 16;

#[test]
fn warm_median_and_trimmed_mean_passes_take_no_workspace_allocations() {
    let mut rng = SeededRng::new(0xFEDA66);
    let cohort: Vec<Vec<f32>> =
        (0..M).map(|_| (0..DIM).map(|_| rng.next_f32() * 4.0 - 2.0).collect()).collect();
    let refs: Vec<&[f32]> = cohort.iter().map(|u| u.as_slice()).collect();
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
    let pass = || (bits(coordinate_median(&refs)), bits(trimmed_mean_vectors(&refs, 2)));

    with_threads(1, || {
        let cold = pass();
        let before = workspace::alloc_events();
        let warm = pass();
        assert_eq!(
            workspace::alloc_events() - before,
            0,
            "warm median/trimmed-mean pass missed the workspace pool"
        );
        assert_eq!(cold, warm, "pool reuse changed a result");
    });
}
