//! Deterministic chaos suite: seeded fault schedules replayed against the
//! federation, invariants of graceful round degradation, and property tests
//! over arbitrary fault mixes.
//!
//! Everything here is driven by seeds — a replay with the same federation
//! seed and the same `FaultPlan` seed must reproduce the exact same round
//! records (modulo the clock readings, which `RoundTelemetry::normalized()`
//! zeroes) and the exact same fault-event stream.

use fedguard::agg::FedAvgStrategy;
use fedguard::data::partition::{dirichlet_partition, partition_datasets};
use fedguard::data::synth::generate_dataset;
use fedguard::fl::{
    AggregationContext, AggregationOutcome, AggregationStrategy, FaultConfig, FaultKind, FaultPlan,
    Federation, FederationConfig, LocalTrainConfig, MemoryCollector, ModelUpdate, ResiliencePolicy,
    RoundTelemetry,
};
use fedguard::nn::models::ClassifierSpec;
use fedguard::tensor::rng::SeededRng;
use proptest::prelude::*;
use std::collections::HashSet;

/// A 10-client FedAvg federation over synthetic digits with the given fault
/// plan and resilience policy, a `MemoryCollector` already attached.
fn chaos_federation(
    rounds: usize,
    seed: u64,
    plan: Option<FaultPlan>,
    policy: ResiliencePolicy,
    collector: MemoryCollector,
) -> Federation {
    chaos_federation_with(FedAvgStrategy, rounds, seed, plan, policy, collector)
}

/// FedAvg's buffered reference: forwards everything but `begin_streaming`,
/// so the round loop buffers the survivors into `aggregate` → `ops::fedavg`
/// instead of folding them.
struct BufferedFedAvg;

impl AggregationStrategy for BufferedFedAvg {
    fn name(&self) -> &'static str {
        FedAvgStrategy.name()
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        FedAvgStrategy.aggregate(updates, ctx)
    }

    fn uses_decoders(&self) -> bool {
        FedAvgStrategy.uses_decoders()
    }
}

/// [`chaos_federation`] under the given strategy.
fn chaos_federation_with(
    strategy: impl AggregationStrategy + 'static,
    rounds: usize,
    seed: u64,
    plan: Option<FaultPlan>,
    policy: ResiliencePolicy,
    collector: MemoryCollector,
) -> Federation {
    let data = generate_dataset(30, seed); // 300 samples
    let (test, train) = data.split_at(60);
    let mut rng = SeededRng::new(seed ^ 1);
    let parts = dirichlet_partition(&train, 10, 10.0, 10, &mut rng);
    let datasets = partition_datasets(&train, &parts);
    let config = FederationConfig {
        n_clients: 10,
        clients_per_round: 5,
        rounds,
        classifier: ClassifierSpec::Mlp { hidden: 24 },
        local: LocalTrainConfig { epochs: 2, batch_size: 16, lr: 0.1, momentum: 0.9 },
        server_lr: 1.0,
        eval_batch: 64,
        seed,
    };
    Federation::builder(config)
        .datasets(datasets)
        .test_set(test)
        .strategy(strategy)
        .faults(plan)
        .resilience(policy)
        .observer(collector)
        .build()
}

fn run_chaotic(seed: u64, plan_seed: u64) -> (Vec<RoundTelemetry>, Vec<RoundTelemetry>) {
    let collector = MemoryCollector::new();
    let plan = FaultPlan::new(FaultConfig::chaotic(), plan_seed);
    let mut fed =
        chaos_federation(6, seed, Some(plan), ResiliencePolicy::quorum(2), collector.clone());
    let history = fed.run();
    (history, collector.events())
}

#[test]
fn seeded_fault_schedule_replays_bit_identical() {
    let (h1, e1) = run_chaotic(101, 0xC4A05);
    let (h2, e2) = run_chaotic(101, 0xC4A05);

    // Bit-identical round records, wall-clock aside.
    let n1: Vec<RoundTelemetry> = h1.iter().map(|r| r.normalized()).collect();
    let n2: Vec<RoundTelemetry> = h2.iter().map(|r| r.normalized()).collect();
    assert_eq!(n1, n2, "replay diverged from the original run");

    // The telemetry stream agrees on every deterministic field.
    assert_eq!(e1.len(), e2.len());
    for (a, b) in e1.iter().zip(&e2) {
        assert_eq!(a.faults, b.faults, "round {}: fault events diverged", a.round);
        assert_eq!(a.survivors, b.survivors);
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.excluded, b.excluded);
        assert_eq!(a.quorum_met, b.quorum_met);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.comm, b.comm);
    }

    // A different plan seed gives a different schedule somewhere.
    let (_, e3) = run_chaotic(101, 0xC4A06);
    assert!(
        e1.iter().zip(&e3).any(|(a, b)| a.faults != b.faults),
        "distinct plan seeds produced identical fault streams"
    );
}

#[test]
fn streaming_fold_matches_batch_under_a_chaotic_plan() {
    // Fault plans and the O(d) fold compose: the same seeded chaotic run
    // must come out bit-identical whether survivors are folded on arrival
    // or buffered for the batch reference, at any thread count.
    fn run(
        strategy: impl AggregationStrategy + 'static,
        threads: usize,
    ) -> (Vec<u32>, Vec<RoundTelemetry>) {
        let collector = MemoryCollector::new();
        let plan = FaultPlan::new(FaultConfig::chaotic(), 0xC4A05);
        let mut fed = chaos_federation_with(
            strategy,
            6,
            101,
            Some(plan),
            ResiliencePolicy::quorum(2),
            collector.clone(),
        );
        rayon::with_threads(threads, || fed.run());
        let bits: Vec<u32> = fed.global_params().iter().map(|x| x.to_bits()).collect();
        (bits, collector.events())
    }
    let (oracle_global, oracle) = run(BufferedFedAvg, 1);
    assert!(
        oracle.iter().any(|e| e.faults.iter().any(|f| f.kind == FaultKind::DuplicateSubmission)),
        "the plan never scheduled a duplicate"
    );
    assert!(oracle.iter().any(|e| !e.quorum_met) && oracle.iter().any(|e| e.quorum_met));
    for (what, threads, (global, events)) in [
        ("buffered", 4, run(BufferedFedAvg, 4)),
        ("fold", 1, run(FedAvgStrategy, 1)),
        ("fold", 4, run(FedAvgStrategy, 4)),
    ] {
        assert_eq!(global, oracle_global, "{what} at {threads} threads: final global");
        assert_eq!(events.len(), oracle.len());
        for (e, o) in events.iter().zip(&oracle) {
            let at = format!("{what} at {threads} threads, round {}", e.round);
            assert_eq!(e.survivors, o.survivors, "{at}");
            assert_eq!(e.selected, o.selected, "{at}");
            assert_eq!(e.comm, o.comm, "{at}");
            assert_eq!(e.quorum_met, o.quorum_met, "{at}");
            assert_eq!(e.faults, o.faults, "{at}");
        }
    }
}

#[test]
fn fault_heavy_federation_survives_ten_rounds() {
    // The acceptance scenario: 30% dropout + 10% corruption over 10 rounds
    // must complete without panic and leave a finite global model.
    let cfg = FaultConfig { dropout_prob: 0.3, corrupt_prob: 0.1, ..FaultConfig::default() };
    let collector = MemoryCollector::new();
    let mut fed = chaos_federation(
        10,
        202,
        Some(FaultPlan::new(cfg, 7)),
        ResiliencePolicy::quorum(2),
        collector.clone(),
    );
    let history = fed.run();
    assert_eq!(history.len(), 10);
    assert!(fed.global_params().iter().all(|x| x.is_finite()));
    assert!(history.iter().all(|r| r.accuracy.is_finite()));
    // The schedule actually fired: some round lost someone.
    let lost: usize = collector.events().iter().map(|e| e.lost_count()).sum();
    assert!(lost > 0, "fault plan injected nothing across 10 rounds");
}

#[test]
fn rosters_and_fault_events_stay_consistent() {
    let (history, events) = run_chaotic(303, 11);
    for (e, r) in events.iter().zip(&history) {
        let sampled: HashSet<usize> = e.sampled.iter().copied().collect();
        let survivors: HashSet<usize> = e.survivors.iter().copied().collect();
        let selected: HashSet<usize> = e.selected.iter().copied().collect();

        // selected ⊆ survivors ⊆ sampled.
        assert!(survivors.is_subset(&sampled), "round {}", e.round);
        assert!(selected.is_subset(&survivors), "round {}", e.round);
        // The roster arithmetic agrees with itself.
        assert_eq!(e.lost_count(), e.sampled.len() - e.survivors.len());
        assert_eq!(e.selected_count() + e.excluded_count(), e.sampled.len());

        // No dropped-out client ever reaches the survivor roster (dropouts
        // never train, so not even a duplicate can resurrect them).
        for f in &e.faults {
            assert!(sampled.contains(&f.client_id), "fault for unsampled client");
            if f.kind == FaultKind::Dropout {
                assert!(!survivors.contains(&f.client_id), "round {}", e.round);
            }
        }

        // Quorum bookkeeping matches the policy (min_quorum = 2).
        assert_eq!(e.quorum_met, e.survivors.len() >= 2);
        if !e.quorum_met {
            assert!(e.selected.is_empty(), "skip round must select nobody");
        }

        // Stage-time accounting stays sane under injection.
        for (name, secs) in e.stages.named() {
            assert!(secs.is_finite() && secs >= 0.0, "{name}: {secs}");
        }
        assert!(e.wall_secs >= e.stages.total() * 0.9);
        assert_eq!(e.accuracy, r.accuracy);
    }
}

#[test]
fn skipped_rounds_carry_accuracy_forward() {
    // With every client dropping out and a quorum of 1, every round skips:
    // the model never moves, so the accuracy series is constant.
    let cfg = FaultConfig { dropout_prob: 1.0, ..FaultConfig::default() };
    let collector = MemoryCollector::new();
    let mut fed = chaos_federation(
        3,
        404,
        Some(FaultPlan::new(cfg, 3)),
        ResiliencePolicy::default(),
        collector.clone(),
    );
    let start = fed.global_params().to_vec();
    let history = fed.run();
    assert_eq!(fed.global_params(), &start[..]);
    for e in &collector.events() {
        assert!(!e.quorum_met);
        assert!(e.survivors.is_empty());
    }
    for w in history.windows(2) {
        assert_eq!(w[0].accuracy, w[1].accuracy, "skipped round changed accuracy");
    }
}

#[test]
fn quiet_fault_plan_is_a_no_op() {
    // A plan with all probabilities zero must reproduce the no-plan run
    // exactly — the honest-only fixed point of the fault layer.
    let collector_a = MemoryCollector::new();
    let mut with_plan = chaos_federation(
        4,
        505,
        Some(FaultPlan::new(FaultConfig::default(), 99)),
        ResiliencePolicy::default(),
        collector_a.clone(),
    );
    let ha = with_plan.run();

    let collector_b = MemoryCollector::new();
    let mut without =
        chaos_federation(4, 505, None, ResiliencePolicy::default(), collector_b.clone());
    let hb = without.run();

    let na: Vec<RoundTelemetry> = ha.iter().map(|r| r.normalized()).collect();
    let nb: Vec<RoundTelemetry> = hb.iter().map(|r| r.normalized()).collect();
    assert_eq!(na, nb, "a quiet fault plan perturbed the run");
    for (a, b) in collector_a.events().iter().zip(&collector_b.events()) {
        assert!(a.faults.is_empty());
        assert!(b.faults.is_empty());
        assert_eq!(a.survivors, b.survivors);
        assert_eq!(a.survivors, a.sampled, "no faults: everyone survives");
    }
}

proptest! {
    // Each case runs a real (tiny) federation; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn arbitrary_fault_mixes_never_break_the_global_model(
        dropout in 0.0f64..0.9,
        straggle in 0.0f64..0.9,
        corrupt in 0.0f64..0.9,
        trunc in 0.0f64..0.5,
        dup in 0.0f64..0.9,
        plan_seed in 0u64..1_000_000,
    ) {
        let cfg = FaultConfig {
            dropout_prob: dropout,
            straggler_prob: straggle,
            corrupt_prob: corrupt,
            truncate_prob: trunc,
            duplicate_prob: dup,
            ..FaultConfig::default()
        };
        let collector = MemoryCollector::new();
        let mut fed = chaos_federation(
            3,
            606,
            Some(FaultPlan::new(cfg, plan_seed)),
            ResiliencePolicy::quorum(2),
            collector.clone(),
        );
        let history = fed.run();
        prop_assert_eq!(history.len(), 3);
        // Whatever arrived, the sanitizer + quorum keep the model finite.
        prop_assert!(fed.global_params().iter().all(|x| x.is_finite()));
        prop_assert!(history.iter().all(|r| r.accuracy.is_finite()));
        for e in &collector.events() {
            let survivors: HashSet<usize> = e.survivors.iter().copied().collect();
            prop_assert!(e.selected.iter().all(|c| survivors.contains(c)));
            prop_assert!(e.survivors.iter().all(|c| e.sampled.contains(c)));
        }
    }
}
