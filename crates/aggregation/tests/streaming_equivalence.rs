//! Streaming-vs-batch equivalence: the FedAvg fold must reproduce its
//! buffered reference (`FedAvgStrategy::aggregate` → `ops::fedavg`)
//! **bit-for-bit** — at every cohort size, every arrival order, and every
//! thread count.

use fg_agg::{FedAvgStrategy, StreamingFedAvg};
use fg_fl::{
    AggregationContext, AggregationOutcome, AggregationStrategy, ModelUpdate, StreamingAggregator,
};
use fg_tensor::rng::SeededRng;
use rayon::with_threads;

/// Big enough that the parallel kernels split (`PAR_LEN = 1<<16`) with a
/// ragged tail block.
const DIM: usize = (1 << 16) + 41;

fn cohort(m: usize, seed: u64) -> Vec<ModelUpdate> {
    let mut rng = SeededRng::new(seed);
    (0..m)
        .map(|i| ModelUpdate {
            // Non-contiguous, non-zero-based ids so roster slots != ids.
            client_id: 3 * i + 5,
            params: (0..DIM).map(|_| rng.next_f32() * 4.0 - 2.0).collect(),
            num_samples: 10 + (i * 7) % 23,
            decoder: None,
            class_coverage: None,
        })
        .collect()
}

fn ctx(global: &[f32]) -> AggregationContext<'_> {
    AggregationContext { round: 0, global, rng: SeededRng::new(0) }
}

/// Deterministic arrival-order shuffles: identity, reversed, and a few
/// seeded Fisher–Yates permutations.
fn permutations(m: usize) -> Vec<Vec<usize>> {
    let mut orders: Vec<Vec<usize>> = vec![(0..m).collect(), (0..m).rev().collect()];
    for seed in [7u64, 1312] {
        let mut rng = SeededRng::new(seed);
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            order.swap(i, rng.next_below(i + 1));
        }
        orders.push(order);
    }
    orders
}

/// Run FedAvg's streaming aggregator over `updates` delivered in `order`,
/// returning the finalized outcome.
fn stream(updates: &[ModelUpdate], order: &[usize]) -> Option<AggregationOutcome> {
    let roster: Vec<usize> = updates.iter().map(|u| u.client_id).collect();
    let mut agg = FedAvgStrategy.begin_streaming(DIM, &roster).expect("FedAvg folds");
    for &i in order {
        agg.push(&updates[i]);
    }
    agg.finalize()
}

fn assert_bitwise(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (j, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: coordinate {j} differs: {x} vs {y}");
    }
}

/// The full matrix: buffered reference at 1 thread vs the fold at 1 and 4
/// threads, across cohort sizes and arrival permutations.
#[test]
fn streaming_fedavg_matches_batch_bitwise() {
    for m in [1usize, 2, 5, 8] {
        let updates = cohort(m, 0xC0FFEE ^ m as u64);
        let global = vec![0.0f32; DIM];
        let batch = with_threads(1, || FedAvgStrategy.aggregate(&updates, &mut ctx(&global)));
        for order in permutations(m) {
            for threads in [1usize, 4] {
                let out = with_threads(threads, || stream(&updates, &order))
                    .unwrap_or_else(|| panic!("streaming returned None at m={m}"));
                assert_bitwise(
                    &batch.params,
                    &out.params,
                    &format!("m={m} threads={threads} order={order:?}"),
                );
                assert_eq!(batch.selected, out.selected, "selected roster differs");
            }
        }
    }
}

#[test]
fn fedavg_zero_weight_rounds_fall_back_like_the_batch_oracle() {
    // All-zero sample counts: ops::fedavg degrades to the unweighted mean;
    // the streaming fold must reproduce that bit-for-bit too.
    let mut updates = cohort(5, 99);
    for u in &mut updates {
        u.num_samples = 0;
    }
    let global = vec![0.0f32; DIM];
    let batch = FedAvgStrategy.aggregate(&updates, &mut ctx(&global));
    for order in permutations(updates.len()) {
        let out = stream(&updates, &order).expect("non-empty round finalizes");
        assert_bitwise(&batch.params, &out.params, &format!("zero-weight order={order:?}"));
    }
}

#[test]
fn empty_round_finalizes_to_none() {
    let agg: Box<dyn StreamingAggregator> = Box::new(StreamingFedAvg::new(DIM, &[]));
    assert!(agg.finalize().is_none());
}

#[test]
fn out_of_order_arrivals_park_and_peak_accounting_reflects_them() {
    let updates = cohort(4, 3);
    let roster: Vec<usize> = updates.iter().map(|u| u.client_id).collect();

    // In slot order: only the O(d) accumulator is ever live.
    let mut inorder = StreamingFedAvg::new(DIM, &roster);
    for u in &updates {
        inorder.push(u);
    }
    assert_eq!(inorder.peak_bytes(), (DIM * 4) as u64, "in-order fold must stay O(d)");

    // Fully reversed: every update but the last parks until slot 0 arrives.
    let mut reversed = StreamingFedAvg::new(DIM, &roster);
    for u in updates.iter().rev() {
        reversed.push(u);
    }
    assert_eq!(
        reversed.peak_bytes(),
        (3 * DIM * 4) as u64,
        "reversed arrivals park m-1 vectors before the first fold"
    );
    let a = Box::new(inorder).finalize().unwrap();
    let b = Box::new(reversed).finalize().unwrap();
    assert_bitwise(&a.params, &b.params, "parked drain");
}

#[test]
fn gapped_roster_drains_parked_successors_at_finalize() {
    // Slot 1 of 4 never arrives (e.g. its submission was rejected): the
    // later slots park, finalize drains them in slot order, and the result
    // matches the batch fold over the three arrivals.
    let updates = cohort(4, 11);
    let roster: Vec<usize> = updates.iter().map(|u| u.client_id).collect();
    let arrived: Vec<&ModelUpdate> = [0usize, 2, 3].iter().map(|&i| &updates[i]).collect();

    let refs: Vec<&[f32]> = arrived.iter().map(|u| u.params.as_slice()).collect();
    let counts: Vec<usize> = arrived.iter().map(|u| u.num_samples).collect();
    let batch = fg_agg::fedavg(&refs, &counts);

    let mut agg = StreamingFedAvg::new(DIM, &roster);
    for u in &arrived {
        agg.push(u);
    }
    let out = Box::new(agg).finalize().unwrap();
    assert_bitwise(&batch, &out.params, "gapped roster");
    assert_eq!(out.selected, vec![roster[0], roster[2], roster[3]]);
}
