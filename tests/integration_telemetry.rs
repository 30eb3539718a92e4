//! Cross-crate integration: the structured round-telemetry pipeline — one
//! event per round, stage-time accounting, score/threshold propagation from
//! the strategies, and the JSONL sink's serde round-trip.

use fedguard::attacks::{choose_malicious, ModelAttack, PoisoningInterceptor};
use fedguard::data::partition::{dirichlet_partition, partition_datasets};
use fedguard::data::synth::generate_dataset;
use fedguard::experiment::{AttackScenario, ExperimentConfig, Preset, StrategyKind};
use fedguard::fl::{
    read_jsonl, FaultConfig, FaultKind, FaultPlan, Federation, JsonlSink, MemoryCollector,
    ResiliencePolicy, RoundTelemetry, StderrProgress,
};
use fedguard::tensor::rng::SeededRng;
use fedguard::{FedGuardConfig, FedGuardStrategy};
use std::sync::Arc;

/// A smoke-scale FedGuard federation under a 40% same-value attack, with the
/// given observers already attached.
fn fedguard_federation(seed: u64, collector: MemoryCollector, sink: JsonlSink) -> Federation {
    let base = ExperimentConfig::preset(
        Preset::Smoke,
        StrategyKind::FedGuard,
        AttackScenario::SameValue { fraction: 0.4, value: 1.0 },
        seed,
    );
    let train = generate_dataset(base.per_class_train, seed ^ 1);
    let test = generate_dataset(base.per_class_test, seed ^ 2);
    let mut rng = SeededRng::new(seed ^ 3);
    let parts = dirichlet_partition(&train, base.fed.n_clients, base.dirichlet_alpha, 10, &mut rng);
    let datasets = partition_datasets(&train, &parts);
    let malicious = choose_malicious(base.fed.n_clients, 0.4, seed ^ 4);
    let interceptor = Arc::new(PoisoningInterceptor::new(
        malicious,
        ModelAttack::SameValue { value: 1.0 },
        seed ^ 5,
    ));
    let strategy = FedGuardStrategy::new(FedGuardConfig {
        classifier: base.fed.classifier,
        cvae: base.cvae.spec,
        budget: base.budget,
        class_probs: None,
        eval_batch: base.fed.eval_batch,
        inner: fedguard::InnerAggregator::FedAvg,
        coverage_aware: false,
        audit: Default::default(),
    });
    Federation::builder(base.fed)
        .datasets(datasets)
        .test_set(test)
        .strategy(strategy)
        .interceptor(interceptor)
        .cvae(base.cvae)
        .observer(collector)
        .observer(sink)
        .build()
}

#[test]
fn telemetry_pipeline_end_to_end() {
    let collector = MemoryCollector::new();
    let path = std::env::temp_dir().join("fg_integration_telemetry").join("fedguard.jsonl");
    let sink = JsonlSink::create(&path).expect("create sink");
    let mut fed = fedguard_federation(90, collector.clone(), sink);
    let history = fed.run();

    // Exactly one event per round, round indices strictly increasing.
    let events = collector.events();
    assert_eq!(events.len(), history.len());
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.round, i, "round indices must be monotonic from 0");
        assert_eq!(e.strategy, "FedGuard");
    }

    // Stage timings: all finite and non-negative; the stages that always do
    // work (training, audit, evaluation) strictly positive; the named stages
    // account for most of the round's wall time.
    for e in &events {
        for (name, secs) in e.stages.named() {
            assert!(secs.is_finite(), "{name} not finite");
            assert!(secs >= 0.0, "{name} negative: {secs}");
        }
        assert!(e.stages.local_training_secs > 0.0);
        assert!(e.stages.synthesis_secs > 0.0, "FedGuard synthesizes every round");
        assert!(e.stages.audit_secs > 0.0, "FedGuard audits every round");
        assert!(e.stages.evaluation_secs > 0.0);
        assert!(e.wall_secs >= e.stages.total() * 0.9, "stages exceed the wall clock");
    }

    // FedGuard reports a score for every sampled client and a threshold in
    // accuracy range; selected/excluded partition the sample.
    for (e, r) in events.iter().zip(&history) {
        assert_eq!(e.scores.len(), e.sampled.len());
        let threshold = e.threshold.expect("FedGuard applies a threshold");
        assert!((0.0..=1.0).contains(&threshold));
        assert_eq!(e.sampled, r.sampled);
        assert_eq!(e.selected, r.selected);
        assert_eq!(e.selected_count() + e.excluded_count(), e.sampled.len());
        for c in &e.excluded {
            assert!(e.sampled.contains(c));
            assert!(!e.selected.contains(c));
        }
        assert_eq!(e.accuracy, r.accuracy);
        assert_eq!(e.comm, r.comm);
        // FedGuard moves decoders on the update frames: client uploads
        // exceed the plain-classifier broadcast downloads.
        assert!(e.comm.upload_bytes > e.comm.download_bytes);
    }

    // The JSONL trail round-trips through serde into identical events.
    let replayed: Vec<RoundTelemetry> = read_jsonl(&path).expect("read trail back");
    assert_eq!(replayed, events);
    let _ = std::fs::remove_file(&path);
}

/// A fault-injected smoke FedAvg federation with the given observers.
fn faulty_federation(
    seed: u64,
    faults: FaultConfig,
    policy: ResiliencePolicy,
    collector: MemoryCollector,
    sink: Option<JsonlSink>,
) -> Federation {
    let cfg =
        ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, seed);
    let train = generate_dataset(cfg.per_class_train, seed ^ 1);
    let test = generate_dataset(cfg.per_class_test, seed ^ 2);
    let mut rng = SeededRng::new(seed ^ 3);
    let parts = dirichlet_partition(&train, cfg.fed.n_clients, cfg.dirichlet_alpha, 10, &mut rng);
    let mut builder = Federation::builder(cfg.fed)
        .datasets(partition_datasets(&train, &parts))
        .test_set(test)
        .strategy(fedguard::agg::FedAvgStrategy)
        .faults(FaultPlan::new(faults, seed ^ 4))
        .resilience(policy)
        .observer(collector);
    if let Some(sink) = sink {
        builder = builder.observer(sink);
    }
    builder.build()
}

#[test]
fn fault_events_round_trip_through_jsonl() {
    let collector = MemoryCollector::new();
    let path = std::env::temp_dir().join("fg_integration_telemetry").join("faults.jsonl");
    let sink = JsonlSink::create(&path).expect("create sink");
    let mut fed = faulty_federation(
        80,
        FaultConfig::chaotic(),
        ResiliencePolicy::quorum(2),
        collector.clone(),
        Some(sink),
    );
    fed.run();

    let events = collector.events();
    assert!(
        events.iter().any(|e| !e.faults.is_empty()),
        "chaotic plan produced no fault events to round-trip"
    );

    // The JSONL trail deserializes into the identical event stream — fault
    // events (externally tagged enum variants with payloads) included.
    let replayed: Vec<RoundTelemetry> = read_jsonl(&path).expect("read trail back");
    assert_eq!(replayed, events);
    for (e, r) in events.iter().zip(&replayed) {
        assert_eq!(e.faults, r.faults);
        assert_eq!(e.survivors, r.survivors);
        assert_eq!(e.quorum_met, r.quorum_met);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn skipped_rounds_still_emit_one_event_each() {
    // Total dropout: every round is below quorum and skips aggregation —
    // the telemetry stream must still carry exactly one event per round.
    let collector = MemoryCollector::new();
    let mut fed = faulty_federation(
        81,
        FaultConfig { dropout_prob: 1.0, ..FaultConfig::default() },
        ResiliencePolicy::default(),
        collector.clone(),
        None,
    );
    let history = fed.run();
    let events = collector.events();
    assert_eq!(events.len(), history.len());
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.round, i);
        assert!(!e.quorum_met);
        assert!(e.survivors.is_empty());
        assert!(e.selected.is_empty());
        assert_eq!(e.excluded, e.sampled, "skip round excludes the whole sample");
        assert_eq!(e.lost_count(), e.sampled.len());
        assert!(e.faults.iter().all(|f| f.kind == FaultKind::Dropout));
        assert_eq!(e.faults.len(), e.sampled.len());
    }
}

#[test]
fn multiple_observers_see_identical_streams() {
    let a = MemoryCollector::new();
    let b = MemoryCollector::new();
    let cfg =
        ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 7);
    let train = generate_dataset(cfg.per_class_train, 70);
    let test = generate_dataset(cfg.per_class_test, 71);
    let mut rng = SeededRng::new(72);
    let parts = dirichlet_partition(&train, cfg.fed.n_clients, cfg.dirichlet_alpha, 10, &mut rng);
    let mut fed = Federation::builder(cfg.fed)
        .datasets(partition_datasets(&train, &parts))
        .test_set(test)
        .strategy(fedguard::agg::FedAvgStrategy)
        .observer(a.clone())
        .observer(b.clone())
        .observer(StderrProgress::new())
        .build();
    fed.run();
    assert_eq!(a.events(), b.events());
    assert_eq!(a.events(), fed.history());
    // FedAvg keeps everyone and applies no threshold.
    for e in a.events() {
        assert!(e.excluded.is_empty());
        assert!(e.threshold.is_none());
        assert!(e.scores.is_empty());
    }
}
