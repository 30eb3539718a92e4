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

use fg_fl::{AggregationOutcome, ModelUpdate, StreamingAggregator};
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
