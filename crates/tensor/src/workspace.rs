//! Thread-local scratch workspace for the compute kernels.
//!
//! The blocked GEMM ([`crate::kernels`]) and the convolution path
//! ([`crate::conv`]) need short-lived `f32` buffers on every call: packed
//! `A`/`B` panels and filter banks, zero-padded image copies, column
//! gradients. Allocating those per call put a `vec![0.0; ..]` (and its
//! page-zeroing) on every hot-path invocation — per *image* in the conv
//! case. This module replaces that with a per-thread pool of reusable
//! buffers:
//!
//! * [`take_uninit`] / [`take_zeroed`] hand out a [`Scratch`] guard backed by
//!   a recycled `Vec<f32>` when one of sufficient capacity is available, and
//!   only touch the allocator otherwise.
//! * Dropping the guard returns the buffer to the current thread's pool
//!   (guards may migrate across pool workers; buffers simply change homes).
//! * Pool traffic feeds the process-wide `fg-obs` metrics
//!   `tensor.workspace.hits` / `.misses` / `.evictions`; [`alloc_events`]
//!   (the calling thread's share of the misses, per-thread like the pools)
//!   lets tests assert that a steady-state training loop performs **zero**
//!   workspace allocations after warm-up (`crates/nn/tests/alloc_free.rs`).
//!
//! The pool is deliberately simple: a best-fit scan over at most
//! [`MAX_POOLED`] buffers per thread. Hot paths request the same handful of
//! sizes every iteration, so after one warm-up pass every request is served
//! from the pool. Buffer *contents* are unspecified on `take_uninit` (stale
//! data from a previous user); callers must fully overwrite what they read,
//! or use [`take_zeroed`].
//!
//! Determinism: the workspace only recycles storage — it never changes what
//! is computed, so the bit-exactness contract of the kernels is unaffected by
//! pool state.

use fg_obs::metrics::Counter;
use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};

/// Upper bound on buffers retained per thread; excess buffers are freed on
/// return rather than hoarded. Sized for the deepest hot path: a conv
/// backward whose fold tree holds per-segment accumulators (up to 32 split
/// leaves) on top of the per-image staging and packing buffers.
const MAX_POOLED: usize = 96;

/// Non-empty takes served from a recycled buffer.
static HITS: Counter = Counter::new("tensor.workspace.hits");
/// Non-empty takes that had to touch the allocator, process-wide (the
/// telemetry view; [`alloc_events`] is the per-thread one).
static MISSES: Counter = Counter::new("tensor.workspace.misses");
/// Buffers freed on return because the per-thread pool was full.
static EVICTIONS: Counter = Counter::new("tensor.workspace.evictions");

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// This thread's misses — what [`alloc_events`] reports.
    static THREAD_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// RAII guard over a pooled scratch buffer; derefs to `[f32]` of exactly the
/// requested length. Returns the buffer to the dropping thread's pool.
pub struct Scratch {
    buf: Vec<f32>,
}

impl Scratch {
    /// Capacity of the backing buffer (tests use this to observe recycling).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl Deref for Scratch {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 {
            return;
        }
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            pool.push(buf);
            if pool.len() > MAX_POOLED {
                // Evict the smallest buffer (possibly the one just pushed):
                // reuse is capacity-based, so retaining the largest
                // `MAX_POOLED` capacities keeps every recurring request
                // servable and avoids free-then-realloc limit cycles when a
                // workload touches more than `MAX_POOLED` distinct sizes.
                let (idx, _) = pool
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, b)| b.capacity())
                    .expect("pool is non-empty");
                pool.swap_remove(idx);
                EVICTIONS.incr();
            }
        });
    }
}

/// Pop the pooled buffer whose capacity fits `len` best (smallest adequate),
/// or allocate a fresh one (counting an allocation event).
fn take_raw(len: usize) -> Vec<f32> {
    let recycled = POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let mut best: Option<usize> = None;
        for (i, b) in pool.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j: usize| b.capacity() < pool[j].capacity())
            {
                best = Some(i);
            }
        }
        best.map(|i| pool.swap_remove(i))
    });
    match recycled {
        Some(buf) => {
            if len > 0 {
                HITS.incr();
            }
            buf
        }
        None => {
            if len > 0 {
                MISSES.incr();
                THREAD_MISSES.with(|m| m.set(m.get() + 1));
            }
            Vec::with_capacity(len)
        }
    }
}

/// A scratch buffer of length `len` with **unspecified contents** (possibly
/// stale data from a previous user). Callers must write before they read.
pub fn take_uninit(len: usize) -> Scratch {
    let mut buf = take_raw(len);
    // Capacity is adequate by construction, so resize never reallocates; the
    // zero-fill only touches the (at most once per buffer) grown tail.
    buf.resize(len, 0.0);
    buf.truncate(len);
    Scratch { buf }
}

/// A scratch buffer of length `len`, zero-filled.
pub fn take_zeroed(len: usize) -> Scratch {
    let mut s = take_uninit(len);
    s.fill(0.0);
    s
}

/// Number of times the **calling thread** had to touch the allocator for a
/// non-empty take. Per-thread, like the pools it describes, so a reader is
/// never moved by another thread's warm-up: measure on one thread (under
/// `rayon::with_threads(1)`). Steady-state hot paths must not move it; see
/// `crates/nn/tests/alloc_free.rs`.
pub fn alloc_events() -> u64 {
    THREAD_MISSES.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_has_requested_length() {
        let s = take_uninit(37);
        assert_eq!(s.len(), 37);
        let z = take_zeroed(11);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn buffers_are_recycled_without_new_allocations() {
        // Warm the pool with the sizes we are about to request.
        {
            let _a = take_uninit(1000);
            let _b = take_uninit(500);
        }
        let before = alloc_events();
        for _ in 0..100 {
            let a = take_uninit(1000);
            let b = take_zeroed(500);
            assert_eq!(a.len(), 1000);
            assert_eq!(b.len(), 500);
        }
        assert_eq!(alloc_events(), before, "steady-state takes must hit the pool");
    }

    #[test]
    fn zero_length_take_never_counts() {
        let before = alloc_events();
        for _ in 0..10 {
            let s = take_uninit(0);
            assert!(s.is_empty());
        }
        assert_eq!(alloc_events(), before);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_buffer() {
        // Pool a big and a small buffer, then request a small one: the small
        // buffer must be chosen so the big one stays available.
        {
            let _big = take_uninit(10_000);
            let _small = take_uninit(16);
        }
        let before = alloc_events();
        {
            let small = take_uninit(10);
            assert!(small.capacity() < 10_000, "best-fit picked the oversized buffer");
            let big = take_uninit(9_000);
            assert!(big.capacity() >= 9_000);
        }
        assert_eq!(alloc_events(), before);
    }
}
