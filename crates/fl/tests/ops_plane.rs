//! The `/metrics` scrape contract: after driving the real instrumented
//! paths — a federation round (aggregation peak gauge), the wire codecs
//! (encode/decode counters), and a span-ring overflow (`obs.spans.dropped`)
//! — every metric in the registry snapshot appears in the Prometheus
//! rendering exactly once, with exactly one sample line per counter/gauge.
//!
//! Kept in one test function: the span-overflow part briefly enables
//! tracing, which would race any parallel test in this process that
//! asserts tracing is off.

use fg_data::partition::{dirichlet_partition, partition_datasets};
use fg_data::synth::generate_dataset;
use fg_fl::{
    AggregationContext, AggregationOutcome, AggregationStrategy, Compression, Federation,
    FederationConfig, LocalTrainConfig, ModelUpdate,
};
use fg_nn::models::ClassifierSpec;
use fg_obs::prometheus::{render, sanitize_metric_name};
use fg_tensor::rng::SeededRng;
use fg_tensor::vecops;

struct MeanStrategy;

impl AggregationStrategy for MeanStrategy {
    fn name(&self) -> &'static str {
        "mean"
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        _ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
        AggregationOutcome::new(
            vecops::mean_vector(&refs),
            updates.iter().map(|u| u.client_id).collect(),
        )
    }
}

fn run_tiny_federation() {
    let data = generate_dataset(20, 42);
    let (test, train) = data.split_at(40);
    let mut rng = SeededRng::new(43);
    let parts = dirichlet_partition(&train, 4, 10.0, 10, &mut rng);
    let datasets = partition_datasets(&train, &parts);
    let config = FederationConfig {
        n_clients: 4,
        clients_per_round: 2,
        rounds: 1,
        classifier: ClassifierSpec::Mlp { hidden: 8 },
        local: LocalTrainConfig { epochs: 1, batch_size: 16, lr: 0.1, momentum: 0.9 },
        server_lr: 1.0,
        eval_batch: 64,
        seed: 42,
    };
    let mut fed = Federation::builder(config)
        .datasets(datasets)
        .test_set(test)
        .strategy(MeanStrategy)
        .build();
    fed.run();
}

/// Count non-comment sample lines belonging to `sanitized` (exact-name
/// match on the part before the first space or `{`).
fn sample_lines(scrape: &str, sanitized: &str) -> usize {
    scrape
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            let metric = l.split([' ', '{']).next().unwrap_or("");
            metric == sanitized
        })
        .count()
}

#[test]
fn every_registered_metric_appears_exactly_once_in_a_scrape() {
    // 1. Aggregation gauge: one real round sets `fl.agg.peak_bytes`.
    run_tiny_federation();

    // 2. Codec counters: one encode/decode pair bumps `fl.codec.*_ns`.
    let global: Vec<f32> = (0..512).map(|i| (i as f32).sin()).collect();
    let (blob, _) = fg_fl::compress::broadcast(Compression::Bf16, &global).expect("bf16 downlink");
    assert!(blob.encoded_bytes() < global.len() as u64 * 4);

    // 3. Span-ring overflow: completing more spans than the ring holds
    //    without draining increments `obs.spans.dropped`.
    fg_obs::set_enabled(true);
    let _ = fg_obs::span::take_spans();
    for _ in 0..(fg_obs::span::RING_CAP + 4) {
        let s = fg_obs::span::span("ops_plane.overflow_probe");
        drop(s);
    }
    fg_obs::set_enabled(false);
    let _ = fg_obs::span::take_spans();

    let snap = fg_obs::metrics::snapshot();
    let scrape = render(&snap);

    // The workloads above must have landed in the registry.
    for required in ["fl.agg.peak_bytes", "fl.codec.enc_ns", "fl.codec.dec_ns", "obs.spans.dropped"]
    {
        assert!(
            snap.counters.iter().any(|(n, _)| n == required)
                || snap.gauges.iter().any(|(n, _)| n == required),
            "{required} missing from the registry snapshot"
        );
    }
    assert!(
        snap.counters.iter().any(|(n, v)| n == "obs.spans.dropped" && *v >= 4),
        "ring overflow did not count dropped spans"
    );

    // Exactly one `# TYPE` line and one sample line per counter and gauge…
    for (name, kind) in snap
        .counters
        .iter()
        .map(|(n, _)| (n, "counter"))
        .chain(snap.gauges.iter().map(|(n, _)| (n, "gauge")))
    {
        let sanitized = sanitize_metric_name(name);
        let type_line = format!("# TYPE {sanitized} {kind}");
        assert_eq!(
            scrape.matches(&type_line).count(),
            1,
            "{name}: expected exactly one {type_line:?}"
        );
        assert_eq!(sample_lines(&scrape, &sanitized), 1, "{name}: expected one sample line");
    }
    // …and per histogram: one TYPE line, its buckets plus `+Inf`, one sum
    // and one count.
    for h in &snap.histograms {
        let sanitized = sanitize_metric_name(&h.name);
        assert_eq!(
            scrape.matches(&format!("# TYPE {sanitized} histogram")).count(),
            1,
            "{}",
            h.name
        );
        assert_eq!(
            sample_lines(&scrape, &format!("{sanitized}_bucket")),
            h.buckets.len() + 1,
            "{}: one line per non-empty bucket plus +Inf",
            h.name
        );
        assert_eq!(sample_lines(&scrape, &format!("{sanitized}_sum")), 1, "{}", h.name);
        assert_eq!(sample_lines(&scrape, &format!("{sanitized}_count")), 1, "{}", h.name);
    }
}
