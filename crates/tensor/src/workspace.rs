//! Per-thread scratch workspace for the compute kernels.
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
//! * Dropping the guard returns the buffer to the pool of the thread that
//!   took it, wherever the drop runs. Guards do migrate: the rayon shim's
//!   `join` lets a waiting thread run other queued jobs, so a buffer taken
//!   on one worker is often dropped on another. Sent home, it is there for
//!   its taker's next request; were it kept where it was dropped, one
//!   thread's pool would fill to the cap while its sibling missed on every
//!   round.
//! * Pool traffic feeds the process-wide `fg-obs` metrics
//!   `tensor.workspace.hits` / `.misses` / `.evictions`; [`alloc_events`]
//!   (the calling thread's share of the misses, per-thread like the pools)
//!   lets tests assert that a steady-state training loop performs **zero**
//!   workspace allocations after warm-up (`crates/nn/tests/alloc_free.rs`).
//!
//! The pool is deliberately simple: a best-fit scan over at most
//! [`MAX_POOLED`] buffers per thread, behind a mutex that each guard holds
//! a handle to — one uncontended lock per take and per drop. Hot paths
//! request the same handful of sizes every iteration, so after one warm-up
//! pass every request is served from the pool. Buffer *contents* are unspecified on `take_uninit` (stale
//! data from a previous user); callers must fully overwrite what they read,
//! or use [`take_zeroed`].
//!
//! Determinism: the workspace only recycles storage — it never changes what
//! is computed, so the bit-exactness contract of the kernels is unaffected by
//! pool state.

use fg_obs::metrics::Counter;
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// One thread's recycled buffers, shared with the guards it handed out.
type Pool = Arc<Mutex<Vec<Vec<f32>>>>;

thread_local! {
    static POOL: Pool = Pool::default();
    /// This thread's misses — what [`alloc_events`] reports.
    static THREAD_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// The pool's buffers. Nothing panics while holding the lock, so a poisoned
/// one still holds a consistent list.
fn lock(pool: &Pool) -> MutexGuard<'_, Vec<Vec<f32>>> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII guard over a pooled scratch buffer; derefs to `[f32]` of exactly the
/// requested length. Returns the buffer to the pool of the thread that took
/// it, on whichever thread it is dropped.
pub struct Scratch {
    buf: Vec<f32>,
    /// The taking thread's pool.
    home: Pool,
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
        let mut pool = lock(&self.home);
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
    }
}

/// Pop the calling thread's pooled buffer whose capacity fits `len` best
/// (smallest adequate), or allocate a fresh one (counting an allocation
/// event); either way the buffer's home is the calling thread's pool.
fn take_raw(len: usize) -> Scratch {
    let (recycled, home) = POOL.with(|home| {
        let mut pool = lock(home);
        let mut best: Option<usize> = None;
        for (i, b) in pool.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j: usize| b.capacity() < pool[j].capacity())
            {
                best = Some(i);
            }
        }
        (best.map(|i| pool.swap_remove(i)), Arc::clone(home))
    });
    let buf = match recycled {
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
    };
    Scratch { buf, home }
}

/// A scratch buffer of length `len` with **unspecified contents** (possibly
/// stale data from a previous user). Callers must write before they read.
pub fn take_uninit(len: usize) -> Scratch {
    let mut s = take_raw(len);
    // Capacity is adequate by construction, so resize never reallocates; the
    // zero-fill only touches the (at most once per buffer) grown tail.
    s.buf.resize(len, 0.0);
    s.buf.truncate(len);
    s
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
    fn a_buffer_dropped_on_another_thread_goes_home() {
        // Larger than anything else this crate's tests pool, so no other
        // buffer can serve the requests below.
        const LEN: usize = 1 << 21;
        let taken = take_uninit(LEN);
        let at = taken.as_ptr() as usize;
        std::thread::scope(|s| {
            s.spawn(move || {
                let before = alloc_events();
                drop(taken);
                // This thread's pool did not gain the buffer.
                let again = take_uninit(LEN);
                assert_ne!(again.as_ptr() as usize, at, "the buffer stayed on the dropping thread");
                assert_eq!(alloc_events(), before + 1);
            });
        });
        let before = alloc_events();
        let back = take_uninit(LEN);
        assert_eq!(alloc_events(), before, "the taking thread missed its own buffer");
        assert_eq!(back.as_ptr() as usize, at, "another buffer served the request");
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
