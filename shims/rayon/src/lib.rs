//! Offline shim for `rayon`: the parallel-iterator API surface used by this
//! workspace, executed on a real fork-join worker pool.
//!
//! The hermetic build environment has no crates.io access, so `rayon` is
//! replaced by this crate. Call sites are unchanged: `par_iter`,
//! `par_iter_mut`, `par_chunks(_mut)`, `into_par_iter`, and the
//! rayon-specific `fold(identity, op).reduce(identity, op)` chain all
//! compile against the same signatures — but unlike the old pass-through
//! shim they now actually run across threads (see [`mod@pool`]).
//!
//! ## Execution model
//!
//! An iterator chain is a tree of splittable [`Producer`]s (ranges, slices,
//! chunk views, and the `map`/`zip`/`enumerate` adapters over them). A
//! consuming operation (`for_each`, `collect`, `fold`, `reduce`) recursively
//! halves the producer into segments and executes the segments via [`join`],
//! then combines the per-segment results **in index order**.
//!
//! ## Determinism contract
//!
//! The segment tree is a pure function of the input length, never of the
//! thread count, and segment results are always combined left-to-right in
//! the fixed tree shape. The thread count (`FG_THREADS`, or a scoped
//! [`with_threads`] override) therefore changes only *which thread* runs a
//! segment, not what is computed or in what order results are folded — so
//! every consumer, including order-sensitive `f32` reductions, is
//! bit-identical at any thread count. `FG_THREADS=1` runs the same tree
//! inline on the calling thread.

mod pool;

pub use pool::{current_num_threads, join, with_threads};

/// Number of segments a parallel consumption splits its input into. A fixed
/// constant — deliberately *not* derived from the thread count, so the
/// reduction tree (and therefore every floating-point result) is identical
/// no matter how many workers execute it. 32 segments keep up to 32 threads
/// busy while costing only ~5 levels of split recursion.
const MAX_SEGMENTS: usize = 32;

// ---------------------------------------------------------------------------
// Producers: splittable sources
// ---------------------------------------------------------------------------

/// A splittable, exactly-sized source of items — the shim's equivalent of
/// rayon's internal `Producer`. Consumers split producers at deterministic
/// indices and iterate the leaves sequentially.
#[allow(clippy::len_without_is_empty)]
pub trait Producer: Sized + Send {
    type Item: Send;
    type IntoIter: Iterator<Item = Self::Item>;

    /// Exact number of items.
    fn len(&self) -> usize;

    /// Split into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Sequential iterator over a leaf segment.
    fn into_seq(self) -> Self::IntoIter;
}

/// Producer over `Range<usize>`.
pub struct RangeProducer {
    start: usize,
    end: usize,
}

impl Producer for RangeProducer {
    type Item = usize;
    type IntoIter = std::ops::Range<usize>;

    fn len(&self) -> usize {
        self.end - self.start
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = self.start + index;
        (RangeProducer { start: self.start, end: mid }, RangeProducer { start: mid, end: self.end })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.start..self.end
    }
}

/// Producer over an owned `Vec` (splits via `split_off`, a shallow move).
pub struct VecProducer<T>(Vec<T>);

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.0.split_off(index);
        (self, VecProducer(tail))
    }

    fn into_seq(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// Producer over `&[T]` (the `par_iter` source).
pub struct SliceProducer<'a, T>(&'a [T]);

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(index);
        (SliceProducer(l), SliceProducer(r))
    }

    fn into_seq(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Producer over `&mut [T]` (the `par_iter_mut` source).
pub struct SliceMutProducer<'a, T>(&'a mut [T]);

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at_mut(index);
        (SliceMutProducer(l), SliceMutProducer(r))
    }

    fn into_seq(self) -> Self::IntoIter {
        self.0.iter_mut()
    }
}

/// Producer over `chunks(size)` of a slice; items are whole chunks, so a
/// split at chunk `i` is a split at element `i * size`.
pub struct ChunksProducer<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Producer for ChunksProducer<'a, T> {
    type Item = &'a [T];
    type IntoIter = std::slice::Chunks<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let elems = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at(elems);
        (ChunksProducer { slice: l, size: self.size }, ChunksProducer { slice: r, size: self.size })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.slice.chunks(self.size)
    }
}

/// Producer over `chunks_mut(size)` of a slice.
pub struct ChunksMutProducer<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ChunksMutProducer<'a, T> {
    type Item = &'a mut [T];
    type IntoIter = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let elems = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at_mut(elems);
        (
            ChunksMutProducer { slice: l, size: self.size },
            ChunksMutProducer { slice: r, size: self.size },
        )
    }

    fn into_seq(self) -> Self::IntoIter {
        self.slice.chunks_mut(self.size)
    }
}

/// `map` adapter. The mapping closure is cloned per split — cheap, since
/// parallel closures capture by shared reference or `Copy`.
pub struct MapProducer<P, F> {
    base: P,
    f: F,
}

impl<P, F, B> Producer for MapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> B + Clone + Send,
    B: Send,
{
    type Item = B;
    type IntoIter = std::iter::Map<P::IntoIter, F>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (MapProducer { base: l, f: self.f.clone() }, MapProducer { base: r, f: self.f })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.base.into_seq().map(self.f)
    }
}

/// `zip` adapter; both sides split at the same index.
pub struct ZipProducer<P, Q> {
    a: P,
    b: Q,
}

impl<P: Producer, Q: Producer> Producer for ZipProducer<P, Q> {
    type Item = (P::Item, Q::Item);
    type IntoIter = std::iter::Zip<P::IntoIter, Q::IntoIter>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(index);
        let (bl, br) = self.b.split_at(index);
        (ZipProducer { a: al, b: bl }, ZipProducer { a: ar, b: br })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// Sequential tail of [`EnumerateProducer`]: `enumerate` offset by the
/// segment's position in the original input.
pub struct OffsetEnumerate<I> {
    inner: I,
    next: usize,
}

impl<I: Iterator> Iterator for OffsetEnumerate<I> {
    type Item = (usize, I::Item);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        let idx = self.next;
        self.next += 1;
        Some((idx, item))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// `enumerate` adapter; indices stay global across splits.
pub struct EnumerateProducer<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    type IntoIter = OffsetEnumerate<P::IntoIter>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            EnumerateProducer { base: l, offset: self.offset },
            EnumerateProducer { base: r, offset: self.offset + index },
        )
    }

    fn into_seq(self) -> Self::IntoIter {
        OffsetEnumerate { inner: self.base.into_seq(), next: self.offset }
    }
}

// ---------------------------------------------------------------------------
// The driver: deterministic split tree, work distributed via join
// ---------------------------------------------------------------------------

/// Recursively halve `p` down to segments of at most `floor` items, run
/// `leaf` on each segment, and `combine` the results in left-to-right tree
/// order. `parallel` gates whether halves are offered to the pool; it never
/// affects the tree shape or combine order, which is the determinism
/// contract of the whole shim.
fn drive<P, T, L, C>(p: P, floor: usize, parallel: bool, leaf: &L, combine: &C) -> T
where
    P: Producer,
    T: Send,
    L: Fn(P) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    let len = p.len();
    if len <= floor {
        return leaf(p);
    }
    let (l, r) = p.split_at(len / 2);
    let (tl, tr) = if parallel {
        join(
            || drive(l, floor, parallel, leaf, combine),
            || drive(r, floor, parallel, leaf, combine),
        )
    } else {
        (drive(l, floor, parallel, leaf, combine), drive(r, floor, parallel, leaf, combine))
    };
    combine(tl, tr)
}

// ---------------------------------------------------------------------------
// ParIter: the user-facing parallel iterator
// ---------------------------------------------------------------------------

/// Stand-in for every rayon parallel-iterator type: a splittable producer.
pub struct ParIter<P> {
    p: P,
}

fn par<P>(p: P) -> ParIter<P> {
    ParIter { p }
}

impl<P: Producer> ParIter<P> {
    /// Smallest segment the driver will produce for this input.
    fn floor(&self) -> usize {
        self.p.len().div_ceil(MAX_SEGMENTS).max(1)
    }

    fn parallel() -> bool {
        current_num_threads() > 1
    }

    // ---- adapters --------------------------------------------------------

    pub fn map<B, F>(self, f: F) -> ParIter<MapProducer<P, F>>
    where
        B: Send,
        F: Fn(P::Item) -> B + Clone + Send,
    {
        par(MapProducer { base: self.p, f })
    }

    /// Pair items by index.
    pub fn zip<J: IntoParallelIterator>(self, other: J) -> ParIter<ZipProducer<P, J::Producer>> {
        par(ZipProducer { a: self.p, b: other.into_par_iter().p })
    }

    pub fn enumerate(self) -> ParIter<EnumerateProducer<P>> {
        par(EnumerateProducer { base: self.p, offset: 0 })
    }

    // ---- consumers -------------------------------------------------------

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Sync,
    {
        let floor = self.floor();
        drive(
            self.p,
            floor,
            Self::parallel(),
            &|leaf: P| {
                for item in leaf.into_seq() {
                    f(item)
                }
            },
            &|(), ()| (),
        );
    }

    fn collect_vec(self) -> Vec<P::Item> {
        let floor = self.floor();
        drive(
            self.p,
            floor,
            Self::parallel(),
            &|leaf: P| leaf.into_seq().collect::<Vec<_>>(),
            &|mut a, mut b| {
                a.append(&mut b);
                a
            },
        )
    }

    /// Collect into a container, preserving input order.
    pub fn collect<C: FromParallelIterator<P::Item>>(self) -> C {
        C::from_par_vec(self.collect_vec())
    }

    /// Rayon-style fold: one accumulator **per segment** of the fixed split
    /// tree (not per thread), exposed as a parallel iterator over the
    /// per-segment accumulators in index order.
    pub fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> ParIter<VecProducer<T>>
    where
        T: Send,
        ID: Fn() -> T + Sync,
        F: Fn(T, P::Item) -> T + Sync,
    {
        let floor = self.floor();
        let accs = drive(
            self.p,
            floor,
            Self::parallel(),
            &|leaf: P| vec![leaf.into_seq().fold(identity(), &fold_op)],
            &|mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        par(VecProducer(accs))
    }

    /// Rayon-style reduce with an identity constructor. Segments reduce
    /// internally left-to-right and segment results combine in fixed tree
    /// order, so the reduction is deterministic for any (even non-associative
    /// floating-point) `op` at any thread count.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        ID: Fn() -> P::Item + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Sync,
    {
        let floor = self.floor();
        drive(
            self.p,
            floor,
            Self::parallel(),
            &|leaf: P| leaf.into_seq().fold(identity(), &op),
            &|a, b| op(a, b),
        )
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits
// ---------------------------------------------------------------------------

/// `collect()` target; order of `v` is the input order.
pub trait FromParallelIterator<T: Send> {
    fn from_par_vec(v: Vec<T>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_vec(v: Vec<T>) -> Self {
        v
    }
}

/// `into_par_iter()` (rayon: `IntoParallelIterator`).
pub trait IntoParallelIterator {
    type Item: Send;
    type Producer: Producer<Item = Self::Item>;
    fn into_par_iter(self) -> ParIter<Self::Producer>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Producer = RangeProducer;

    fn into_par_iter(self) -> ParIter<RangeProducer> {
        par(RangeProducer { start: self.start, end: self.end })
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Producer = VecProducer<T>;

    fn into_par_iter(self) -> ParIter<VecProducer<T>> {
        par(VecProducer(self))
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Producer = SliceProducer<'a, T>;

    fn into_par_iter(self) -> ParIter<SliceProducer<'a, T>> {
        par(SliceProducer(self))
    }
}

/// A `ParIter` is trivially "into" itself — this is what lets `zip` accept
/// the result of another `par_chunks`/`par_iter` call.
impl<P: Producer> IntoParallelIterator for ParIter<P> {
    type Item = P::Item;
    type Producer = P;

    fn into_par_iter(self) -> ParIter<P> {
        self
    }
}

/// `par_iter()` / `par_chunks()` on slices (rayon: `IntoParallelRefIterator`
/// + `ParallelSlice`).
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParIter<SliceProducer<'_, T>>;
    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksProducer<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<SliceProducer<'_, T>> {
        par(SliceProducer(self))
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksProducer<'_, T>> {
        assert!(chunk_size > 0, "par_chunks: chunk size must be non-zero");
        par(ChunksProducer { slice: self, size: chunk_size })
    }
}

/// `par_iter_mut()` / `par_chunks_mut()` on slices (rayon:
/// `IntoParallelRefMutIterator` + `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> ParIter<SliceMutProducer<'_, T>>;
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutProducer<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<SliceMutProducer<'_, T>> {
        par(SliceMutProducer(self))
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutProducer<'_, T>> {
        assert!(chunk_size > 0, "par_chunks_mut: chunk size must be non-zero");
        par(ChunksMutProducer { slice: self, size: chunk_size })
    }
}

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, ParIter, ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, join, with_threads};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_matches_sequential() {
        let v: Vec<usize> = (0..10usize).into_par_iter().map(|x| x * x).collect();
        assert_eq!(v, (0..10usize).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn collect_preserves_order_across_threads() {
        let v: Vec<usize> =
            with_threads(4, || (0..10_000).into_par_iter().map(|x| x * 2).collect());
        assert_eq!(v, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn fold_reduce_rayon_signatures() {
        let total = (1..=4usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| x as f32)
            .fold(|| 0.0f32, |acc, x| acc + x)
            .reduce(|| 0.0f32, |a, b| a + b);
        assert_eq!(total, 10.0);
    }

    #[test]
    fn chunks_zip_sum() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [10.0f32, 20.0, 30.0, 40.0];
        let s: f32 = a
            .par_chunks(2)
            .zip(b.par_chunks(2))
            .map(|(x, y)| x.iter().zip(y).map(|(p, q)| p * q).sum::<f32>())
            .reduce(|| 0.0, |a, b| a + b);
        assert_eq!(s, 10.0 + 40.0 + 90.0 + 160.0);
    }

    #[test]
    fn chunks_mut_enumerate_for_each() {
        let mut out = [0usize; 6];
        out.par_chunks_mut(2).enumerate().for_each(|(i, c)| c.iter_mut().for_each(|x| *x = i));
        assert_eq!(out, [0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = with_threads(4, || join(|| 1 + 1, || "two"));
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn join_nests() {
        // A 3-level join tree summing 0..8 — exercises workers calling join
        // and stealing back / helping while blocked.
        fn tree_sum(lo: usize, hi: usize) -> usize {
            if hi - lo <= 1 {
                return lo;
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(|| tree_sum(lo, mid), || tree_sum(mid, hi));
            a + b
        }
        let total = with_threads(4, || tree_sum(0, 8));
        assert_eq!(total, (0..8).sum::<usize>());
    }

    #[test]
    fn join_propagates_panic_from_first_closure() {
        let res =
            catch_unwind(AssertUnwindSafe(|| with_threads(4, || join(|| panic!("boom-a"), || 7))));
        let payload = res.expect_err("panic in a must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom-a");
    }

    #[test]
    fn join_propagates_panic_from_second_closure() {
        let res =
            catch_unwind(AssertUnwindSafe(|| with_threads(4, || join(|| 7, || panic!("boom-b")))));
        let payload = res.expect_err("panic in b must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom-b");
    }

    #[test]
    fn for_each_propagates_worker_panic() {
        let res = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                (0..1024usize).into_par_iter().for_each(|i| {
                    if i == 777 {
                        panic!("poisoned item")
                    }
                });
            })
        }));
        assert!(res.is_err(), "panic inside a parallel closure must reach the caller");
    }

    #[test]
    fn with_threads_override_propagates_to_workers() {
        // Queued jobs carry the minting scope's limit, so a closure running
        // on a pool worker still sees the override when it mints nested
        // parallelism.
        let mismatches = AtomicUsize::new(0);
        with_threads(5, || {
            (0..256usize).into_par_iter().for_each(|_| {
                if current_num_threads() != 5 {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(mismatches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn float_sum_is_bit_identical_across_thread_counts() {
        // An adversarial sequence where summation order visibly matters.
        let xs: Vec<f32> = (0..100_000).map(|i| ((i * 37 % 1000) as f32 - 499.5) * 1e-3).collect();
        let sum = |n: usize| {
            with_threads(n, || xs.par_iter().map(|&x| x * x - 0.1).reduce(|| 0.0f32, |a, b| a + b))
        };
        let s1 = sum(1).to_bits();
        assert_eq!(s1, sum(4).to_bits());
        assert_eq!(s1, sum(8).to_bits());
    }

    #[test]
    fn fold_reduce_is_bit_identical_across_thread_counts() {
        let xs: Vec<f32> = (0..50_000).map(|i| (i as f32).sin()).collect();
        let run = |n: usize| {
            with_threads(n, || {
                xs.par_iter()
                    .fold(|| 0.0f32, |acc, &x| acc + x * 1.0001)
                    .reduce(|| 0.0f32, |a, b| a + b)
            })
        };
        assert_eq!(run(1).to_bits(), run(4).to_bits());
    }

    #[test]
    fn work_actually_lands_on_pool_threads() {
        // With >1 threads requested, at least one segment of a large enough
        // for_each should execute off the calling thread.
        let caller = std::thread::current().id();
        let off_thread = AtomicUsize::new(0);
        with_threads(4, || {
            (0..64usize).into_par_iter().for_each(|_| {
                if std::thread::current().id() != caller {
                    off_thread.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        });
        assert!(
            off_thread.load(Ordering::Relaxed) > 0,
            "no work was executed by pool workers at 4 threads"
        );
    }

    #[test]
    fn with_threads_scopes_and_restores() {
        let outer = current_num_threads();
        with_threads(3, || {
            assert_eq!(current_num_threads(), 3);
            with_threads(1, || assert_eq!(current_num_threads(), 1));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn par_iter_mut_writes_every_slot() {
        let mut v = vec![0usize; 5000];
        with_threads(4, || v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * 3));
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3));
    }

    #[test]
    fn empty_input_reduces_to_the_identity() {
        let r = (0..0usize).into_par_iter().map(|x| x as f32).reduce(|| 0.0, |a, b| a + b);
        assert_eq!(r, 0.0);
    }
}
