//! O(d)-memory streaming aggregation.
//!
//! A strategy that cannot fold has the round loop buffer all `m` surviving
//! updates — O(m·d) server RAM — before an operator in [`crate::ops`] runs.
//! [`StreamingFedAvg`] implements [`fg_fl::StreamingAggregator`] instead:
//! each update folds into a fixed accumulator as it leaves the transport, so
//! a round's peak residency no longer scales with the cohort.
//!
//! ## Determinism
//!
//! The contract ([`fg_fl::AggregationStrategy::begin_streaming`]) is that
//! the fold reproduces [`crate::ops::fedavg`] over the buffered survivors
//! **bit-for-bit** at any arrival order and any `FG_THREADS`. The round loop
//! sorts its survivor buffer by client id, so the streaming fold is
//! keyed to the round roster: each arrival resolves to its roster *slot*,
//! and folds are issued strictly in slot order. In-order arrivals (both
//! in-tree transports deliver ascending ids) fold eagerly in O(d); an
//! out-of-order or gapped arrival parks in a reorder buffer until the slots
//! before it are resolved, and whatever is still parked when the round ends
//! is drained in slot order by `finalize` — the fold sequence, and hence
//! every intermediate rounding, is identical no matter how arrivals were
//! interleaved. Thread-invariance comes for free: the only parallel kernel
//! involved is [`vecops::fold_weighted_mean`], which is element-wise over
//! disjoint blocks.

use fg_fl::{AggregationOutcome, ModelUpdate, SparseUpdate, StreamingAggregator};
use fg_tensor::vecops;
use std::collections::BTreeMap;

/// Streaming FedAvg: a slot-ordered weighted-mean fold into an O(d)
/// accumulator, bit-identical to [`ops::fedavg`](crate::ops::fedavg) over
/// the id-sorted batch. Replays its exact arithmetic: skip zero-weight
/// updates, copy the first positive-weight update verbatim, then
/// `acc += (n/cum)·(x − acc)` — with `ops::fedavg`'s unweighted
/// `mean_vector` fallback tracked in parallel until a positive weight
/// retires it.
pub struct StreamingFedAvg {
    dim: usize,
    /// The round's client ids, ascending — the slot order of the fold.
    roster: Vec<usize>,
    /// Length of the contiguously folded roster prefix.
    next_slot: usize,
    /// Out-of-order arrivals parked until their predecessors resolve.
    pending: BTreeMap<usize, (Vec<f32>, usize)>,
    pending_bytes: u64,
    /// Weighted running mean; allocated by the first positive-weight fold.
    acc: Option<Vec<f32>>,
    /// Cumulative sample count folded into `acc`.
    cum: usize,
    /// Unweighted running mean of everything folded while `cum == 0` —
    /// `ops::fedavg`'s zero-total fallback. Freed the moment a positive
    /// weight arrives.
    fallback: Option<Vec<f32>>,
    fallback_count: usize,
    /// Every pushed client id (sorted at finalize).
    ids: Vec<usize>,
    peak_bytes: u64,
}

impl StreamingFedAvg {
    pub fn new(dim: usize, roster: &[usize]) -> StreamingFedAvg {
        debug_assert!(roster.windows(2).all(|w| w[0] < w[1]), "roster must be ascending");
        StreamingFedAvg {
            dim,
            roster: roster.to_vec(),
            next_slot: 0,
            pending: BTreeMap::new(),
            pending_bytes: 0,
            acc: None,
            cum: 0,
            fallback: None,
            fallback_count: 0,
            ids: Vec::new(),
            peak_bytes: 0,
        }
    }

    /// Fold a sparse update — `base[i] + val` at the selected coordinates,
    /// `base` unchanged elsewhere — without materializing the dense vector,
    /// bit-identically to [`fold`](StreamingFedAvg::fold) of that vector.
    ///
    /// Bit-equality argument: the dense fold computes
    /// `a[j] += frac·(x[j] − a[j])` with `x[j] = base[j]` off the selected
    /// set and `x[i] = base[i] + δᵢ` (rounded once, when the vector was
    /// materialized) on it. Here the selected coordinates are computed first
    /// from the accumulator's *pre-fold* values with exactly that
    /// expression, then `fold_weighted_mean(acc, base, frac)` runs the dense
    /// expression for every coordinate, and the saved selected results
    /// overwrite their slots — every coordinate ends up with the identical
    /// sequence of IEEE operations.
    fn fold_sparse(&mut self, base: &[f32], idx: &[u32], val: &[f32], n: usize) {
        fn sparse_fold_into(a: &mut [f32], base: &[f32], idx: &[u32], val: &[f32], frac: f32) {
            let sel: Vec<f32> = idx
                .iter()
                .zip(val)
                .map(|(&i, &v)| {
                    let ai = a[i as usize];
                    let xi = base[i as usize] + v;
                    ai + frac * (xi - ai)
                })
                .collect();
            vecops::fold_weighted_mean(a, base, frac);
            for (&i, &s) in idx.iter().zip(&sel) {
                a[i as usize] = s;
            }
        }
        if n == 0 {
            if self.cum == 0 {
                match &mut self.fallback {
                    None => self.fallback = Some(sparse_to_dense(base, idx, val)),
                    Some(f) => sparse_fold_into(
                        f,
                        base,
                        idx,
                        val,
                        1.0 / (self.fallback_count as f32 + 1.0),
                    ),
                }
                self.fallback_count += 1;
            }
            return;
        }
        self.fallback = None;
        self.cum += n;
        match &mut self.acc {
            None => self.acc = Some(sparse_to_dense(base, idx, val)),
            Some(a) => sparse_fold_into(a, base, idx, val, n as f32 / self.cum as f32),
        }
    }

    /// Fold one update, already known to be the next one in slot order.
    fn fold(&mut self, params: &[f32], n: usize) {
        if n == 0 {
            // Zero weight: invisible to the weighted mean, but tracked by
            // the unweighted fallback in case the whole round weighs zero.
            if self.cum == 0 {
                match &mut self.fallback {
                    None => self.fallback = Some(params.to_vec()),
                    Some(f) => vecops::fold_weighted_mean(
                        f,
                        params,
                        1.0 / (self.fallback_count as f32 + 1.0),
                    ),
                }
                self.fallback_count += 1;
            }
            return;
        }
        self.fallback = None;
        self.cum += n;
        match &mut self.acc {
            None => self.acc = Some(params.to_vec()),
            Some(a) => vecops::fold_weighted_mean(a, params, n as f32 / self.cum as f32),
        }
    }

    fn note_peak(&mut self) {
        let live = self.pending_bytes
            + self.acc.as_ref().map_or(0, |a| (a.len() * 4) as u64)
            + self.fallback.as_ref().map_or(0, |f| (f.len() * 4) as u64);
        self.peak_bytes = self.peak_bytes.max(live);
    }

    /// Resolve an arrival to its roster slot, recording the id and rejecting
    /// duplicates.
    fn claim_slot(&mut self, client_id: usize) -> usize {
        let slot = self
            .roster
            .binary_search(&client_id)
            .expect("streamed update's client id is not on the round roster");
        assert!(
            slot >= self.next_slot && !self.pending.contains_key(&slot),
            "client {client_id} streamed twice (caller must dedup)",
        );
        self.ids.push(client_id);
        slot
    }

    /// After an in-order fold: advance past it and fold any parked
    /// successors it unblocked.
    fn advance_and_drain(&mut self) {
        self.next_slot += 1;
        while let Some((p, n)) = self.pending.remove(&self.next_slot) {
            self.pending_bytes -= (p.len() * 4) as u64;
            self.fold(&p, n);
            self.next_slot += 1;
        }
    }

    fn park(&mut self, slot: usize, params: Vec<f32>, n: usize) {
        self.pending_bytes += (params.len() * 4) as u64;
        self.pending.insert(slot, (params, n));
    }
}

/// The dense vector a [`SparseUpdate`] stands for: `base` with the decoded
/// deltas added at the selected coordinates (a copy elsewhere — not
/// `+ 0.0`, which would flush `-0.0` to `+0.0`).
fn sparse_to_dense(base: &[f32], idx: &[u32], val: &[f32]) -> Vec<f32> {
    let mut x = base.to_vec();
    for (&i, &v) in idx.iter().zip(val) {
        x[i as usize] = base[i as usize] + v;
    }
    x
}

impl StreamingAggregator for StreamingFedAvg {
    fn push(&mut self, update: &ModelUpdate) {
        assert_eq!(update.params.len(), self.dim, "streamed update has wrong dimension");
        let slot = self.claim_slot(update.client_id);
        if slot == self.next_slot {
            self.fold(&update.params, update.num_samples);
            self.advance_and_drain();
        } else {
            self.park(slot, update.params.clone(), update.num_samples);
        }
        self.note_peak();
    }

    /// An in-order arrival folds its (idx, val) pairs straight into the
    /// accumulator — no dense vector is ever built for it. Only an
    /// out-of-order arrival (which the in-tree transports never produce)
    /// materializes densely, because the reorder buffer outlives the
    /// caller's borrow of `base`.
    fn push_sparse(&mut self, update: &SparseUpdate, base: &[f32]) {
        assert_eq!(update.raw_len, self.dim, "streamed update has wrong dimension");
        assert_eq!(base.len(), self.dim, "sparse base has wrong dimension");
        let slot = self.claim_slot(update.client_id);
        if slot == self.next_slot {
            self.fold_sparse(base, &update.idx, &update.val, update.num_samples);
            self.advance_and_drain();
        } else {
            let dense = sparse_to_dense(base, &update.idx, &update.val);
            self.park(slot, dense, update.num_samples);
        }
        self.note_peak();
    }

    fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Drain whatever is still parked (slots whose predecessors never
    /// arrived — e.g. a rejected submission left a gap) in slot order.
    fn finalize(mut self: Box<Self>) -> Option<AggregationOutcome> {
        let parked = std::mem::take(&mut self.pending);
        for (_, (p, n)) in parked {
            self.pending_bytes -= (p.len() * 4) as u64;
            self.fold(&p, n);
            self.note_peak();
        }
        let StreamingFedAvg { acc, fallback, mut ids, .. } = *self;
        let params = acc.or(fallback)?;
        ids.sort_unstable();
        Some(AggregationOutcome::new(params, ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::with_threads;

    /// A sub-block size, and the Table II CNN's parameter count: 26
    /// `PAR_LEN` blocks with a ragged tail, so the `fold_weighted_mean` pass
    /// under the sparse fold actually fans out.
    const DIMS: [usize; 2] = [257, 1_663_370];

    /// A deterministic base vector with awkward values (including -0.0).
    fn base_vec(dim: usize) -> Vec<f32> {
        (0..dim).map(|i| if i == 7 { -0.0 } else { ((i * 31) % 97) as f32 * 0.013 - 0.6 }).collect()
    }

    fn sparse(id: usize, n: usize, seed: usize, dim: usize) -> SparseUpdate {
        let idx: Vec<u32> =
            (0..dim as u32).filter(|i| (i + seed as u32).is_multiple_of(9)).collect();
        let val: Vec<f32> = idx.iter().map(|&i| (i as f32 + seed as f32) * 1e-3).collect();
        SparseUpdate {
            client_id: id,
            num_samples: n,
            raw_len: dim,
            idx,
            val,
            decoder: None,
            class_coverage: None,
        }
    }

    fn dense_of(s: &SparseUpdate, base: &[f32]) -> ModelUpdate {
        ModelUpdate {
            client_id: s.client_id,
            params: sparse_to_dense(base, &s.idx, &s.val),
            num_samples: s.num_samples,
            decoder: None,
            class_coverage: None,
        }
    }

    fn bits(params: &[f32]) -> Vec<u32> {
        params.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sparse_fold_matches_dense_fold_bitwise() {
        for dim in DIMS {
            let base = base_vec(dim);
            let roster = vec![1, 4, 6, 9];
            // Mixed weights, including a leading zero-weight (fallback path).
            let updates: Vec<SparseUpdate> = [(1, 0), (4, 10), (6, 3), (9, 25)]
                .iter()
                .map(|&(id, n)| sparse(id, n, id, dim))
                .collect();

            let fold = |threads: usize| {
                with_threads(threads, || {
                    let mut s = StreamingFedAvg::new(dim, &roster);
                    let mut d = StreamingFedAvg::new(dim, &roster);
                    for u in &updates {
                        s.push_sparse(u, &base);
                        d.push(&dense_of(u, &base));
                    }
                    let s_out = Box::new(s).finalize().unwrap();
                    let d_out = Box::new(d).finalize().unwrap();
                    assert_eq!(bits(&s_out.params), bits(&d_out.params), "d={dim} t={threads}");
                    assert_eq!(s_out.selected, d_out.selected);
                    // -0.0 at an unselected coordinate survived as a copy.
                    assert!(s_out.params.iter().all(|x| x.is_finite()));
                    bits(&s_out.params)
                })
            };
            assert_eq!(fold(1), fold(4), "d={dim}: sparse fold diverged across thread counts");
        }
    }

    #[test]
    fn sparse_fold_is_arrival_order_invariant() {
        for dim in DIMS {
            let base = base_vec(dim);
            let roster = vec![0, 2, 5, 8];
            let updates: Vec<SparseUpdate> = [(0, 4), (2, 9), (5, 1), (8, 16)]
                .iter()
                .map(|&(id, n)| sparse(id, n, id, dim))
                .collect();

            let mut in_order = StreamingFedAvg::new(dim, &roster);
            for u in &updates {
                in_order.push_sparse(u, &base);
            }
            // Reversed arrivals park in the reorder buffer (as dense vectors)
            // and drain in slot order — same fold sequence.
            let mut reversed = StreamingFedAvg::new(dim, &roster);
            for u in updates.iter().rev() {
                reversed.push_sparse(u, &base);
            }
            let a = Box::new(in_order).finalize().unwrap();
            let b = Box::new(reversed).finalize().unwrap();
            assert_eq!(bits(&a.params), bits(&b.params), "d={dim}");
        }
    }
}
