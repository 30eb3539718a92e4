//! The federated round loop (Alg. 1, `Server` function).

use crate::client::{Client, NoAttack, UpdateInterceptor};
use crate::comm::CommStats;
use crate::compress::Compression;
use crate::config::{CvaeTrainConfig, FederationConfig, ResiliencePolicy};
use crate::fault::{sanitize_one, FaultEvent, FaultKind, FaultPlan};
use crate::strategy::{AggregationContext, AggregationStrategy, StrategyTimings};
use crate::telemetry::{RoundObserver, RoundTelemetry, StageTimings, SCHEMA_VERSION};
use crate::transport::{LocalTransport, RoundOffer, Transport};
use crate::update::ModelUpdate;
use fg_data::Dataset;
use fg_nn::models::{BatchedClassifier, Classifier};
use fg_obs::metrics::{Counter, Gauge};
use fg_obs::span::{record_interleaved, timed_span};
use fg_tensor::rng::SeededRng;
use fg_tensor::{vecops, Tensor};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Completed federated rounds, across all `Federation` instances.
static ROUNDS: Counter = Counter::new("fl.rounds");

/// Peak transient server residency of the last aggregation stage, in bytes.
/// A folding round reports the aggregator's own high-water mark; a
/// buffering round reports the materialized-survivors proxy `(m + 1)·d·4`
/// (the m survivor vectors plus the aggregate), so the two are directly
/// comparable on one gauge.
static AGG_PEAK_BYTES: Gauge = Gauge::new("fl.agg.peak_bytes");

/// A complete federated-learning simulation: `N` clients, a server-side test
/// set, an aggregation strategy, and an optional attack interceptor.
///
/// Assembled through [`Federation::builder`]:
///
/// ```ignore
/// let mut fed = Federation::builder(config)
///     .datasets(client_datasets)
///     .test_set(test)
///     .strategy(FedAvgStrategy)
///     .interceptor(attack)            // optional; defaults to NoAttack
///     .cvae(cvae_config)              // required iff the strategy audits decoders
///     .observer(JsonlSink::create("results/telemetry/run.jsonl")?)
///     .build();
/// ```
///
/// Each round (cf. Alg. 1 lines 16-20):
/// 1. uniformly sample `m` of the `N` clients,
/// 2. run the exchange through the [`Transport`]: deliver the global
///    parameters to the sampled clients and receive their trained (and
///    attack-intercepted) updates one arrival at a time. The default
///    [`LocalTransport`] trains in-process, in parallel across the
///    rayon-shim worker pool (`FG_THREADS` threads; each client trains from
///    its own forked RNG stream, so the round is bit-identical at any
///    thread count); [`crate::net::TcpTransport`] drives remote client
///    processes over the wire instead. Clients scheduled to drop out by the
///    [fault plan](FederationBuilder::faults) never train,
/// 3. per arrival, inject any scheduled transit faults
///    ([`FaultPlan::inject`]: straggler delay/timeout, NaN/Inf corruption,
///    truncation, a stale duplicate delivered after every original) and
///    account what crossed the wire,
/// 4. per arrival, sanitize ([`sanitize_one`]: reject non-finite /
///    wrong-length vectors, strip bad decoders, first valid arrival per
///    client wins) — this guard runs on every round, fault plan or not —
///    and push the survivor: into the strategy's
///    [`StreamingAggregator`](crate::strategy::StreamingAggregator) when
///    [`begin_streaming`](AggregationStrategy::begin_streaming) opened one,
///    into a survivor buffer otherwise (the strategy cannot fold),
/// 5. if the survivors meet the [`ResiliencePolicy`] quorum, finalize the
///    fold (or hand the buffer to
///    [`aggregate`](AggregationStrategy::aggregate)) and move the global
///    model by the server learning rate toward the aggregate; otherwise
///    skip aggregation and carry the global model forward, and
/// 6. evaluate on the held-out test set and record the round as one
///    [`RoundTelemetry`] — including the survivor roster and every
///    [`FaultEvent`] — which joins the history and goes to every
///    registered observer.
pub struct Federation {
    config: FederationConfig,
    transport: Box<dyn Transport>,
    /// The held-out test set as the scorer reads it, converted once at
    /// [`build`](FederationBuilder::build): `(n, 784)` images and labels.
    test_x: Tensor,
    test_y: Vec<usize>,
    strategy: Box<dyn AggregationStrategy>,
    interceptor: Arc<dyn UpdateInterceptor>,
    faults: Option<FaultPlan>,
    resilience: ResiliencePolicy,
    global: Vec<f32>,
    history: Vec<RoundTelemetry>,
    rng: SeededRng,
    observers: Vec<Box<dyn RoundObserver>>,
}

/// Step-by-step assembly of a [`Federation`]; validates at [`build`].
///
/// [`build`]: FederationBuilder::build
pub struct FederationBuilder {
    config: FederationConfig,
    datasets: Option<Vec<Dataset>>,
    test_set: Option<Dataset>,
    strategy: Option<Box<dyn AggregationStrategy>>,
    interceptor: Arc<dyn UpdateInterceptor>,
    faults: Option<FaultPlan>,
    resilience: ResiliencePolicy,
    cvae: Option<CvaeTrainConfig>,
    observers: Vec<Box<dyn RoundObserver>>,
    transport: Option<Box<dyn Transport>>,
    compression: Compression,
}

impl FederationBuilder {
    /// The per-client data partitions; must contain exactly
    /// `config.n_clients` datasets (checked at build).
    pub fn datasets(mut self, client_datasets: Vec<Dataset>) -> Self {
        self.datasets = Some(client_datasets);
        self
    }

    /// The server-side held-out test set.
    pub fn test_set(mut self, test_set: Dataset) -> Self {
        self.test_set = Some(test_set);
        self
    }

    /// The aggregation strategy. Accepts a plain strategy value or an
    /// already-boxed `Box<dyn AggregationStrategy>`.
    pub fn strategy(mut self, strategy: impl AggregationStrategy + 'static) -> Self {
        self.strategy = Some(Box::new(strategy));
        self
    }

    /// The attack interceptor. Defaults to [`NoAttack`] when omitted.
    pub fn interceptor(mut self, interceptor: Arc<dyn UpdateInterceptor>) -> Self {
        self.interceptor = interceptor;
        self
    }

    /// A seeded fault-injection schedule (see [`crate::fault`]). When set,
    /// each sampled submission may drop out, straggle, arrive corrupted or
    /// truncated, or be duplicated, per the plan's deterministic draws.
    /// Accepts a bare plan or an `Option`; defaults to no injection.
    pub fn faults(mut self, plan: impl Into<Option<FaultPlan>>) -> Self {
        self.faults = plan.into();
        self
    }

    /// How the round degrades when too few valid submissions survive
    /// sanitization. Defaults to [`ResiliencePolicy::default`] (quorum 1,
    /// carry-forward below it).
    pub fn resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// CVAE training configuration, installed on every client iff the
    /// strategy consumes decoders. Accepts a bare config or an `Option`.
    pub fn cvae(mut self, cvae: impl Into<Option<CvaeTrainConfig>>) -> Self {
        self.cvae = cvae.into();
        self
    }

    /// Register a telemetry observer; may be called multiple times.
    pub fn observer(mut self, observer: impl RoundObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Like [`Self::observer`] but accepts an already-boxed observer, so
    /// callers can assemble heterogeneous observer lists at runtime.
    pub fn observer_boxed(mut self, observer: Box<dyn RoundObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Install a custom [`Transport`] (e.g. [`crate::net::TcpTransport`])
    /// instead of the in-process default. With a custom transport the
    /// clients live elsewhere: `datasets(..)`/`cvae(..)` must not be set —
    /// each client process assembles its own partition from the shared
    /// experiment configuration.
    pub fn transport(mut self, transport: impl Transport + 'static) -> Self {
        self.transport = Some(Box::new(transport));
        self
    }

    /// Wire-compression mode for the in-process transport (see
    /// [`Compression`]). Applies only to the default [`LocalTransport`] —
    /// a custom transport carries its own mode (e.g.
    /// `TcpTransport::with_compression`).
    pub fn compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Validate the assembled configuration and construct the federation.
    ///
    /// Panics when a required component is missing, the partition count does
    /// not match `config.n_clients`, or a decoder-auditing strategy has no
    /// CVAE configuration.
    pub fn build(self) -> Federation {
        let config = self.config;
        config.validate();
        let test_set = self.test_set.expect("FederationBuilder: test_set(..) not set");
        let strategy = self.strategy.expect("FederationBuilder: strategy(..) not set");
        let needs_cvae = strategy.uses_decoders();
        let master = SeededRng::new(config.seed);

        let transport: Box<dyn Transport> = match self.transport {
            Some(transport) => {
                // Remote clients assemble themselves from the shared config;
                // server-side partitions/CVAE settings would be dead weight
                // and almost certainly a configuration mistake.
                assert!(
                    self.datasets.is_none(),
                    "datasets(..) belong to the in-process transport; a custom transport's \
                     clients hold their own partitions"
                );
                assert!(
                    self.cvae.is_none(),
                    "cvae(..) belongs to the in-process transport; a custom transport's \
                     clients configure their own CVAE"
                );
                transport
            }
            None => {
                let client_datasets =
                    self.datasets.expect("FederationBuilder: datasets(..) not set");
                assert_eq!(
                    client_datasets.len(),
                    config.n_clients,
                    "expected {} client partitions, got {}",
                    config.n_clients,
                    client_datasets.len()
                );
                if needs_cvae {
                    assert!(
                        self.cvae.is_some(),
                        "strategy {} needs a CVAE config",
                        strategy.name()
                    );
                }
                let clients: Vec<Client> = client_datasets
                    .into_iter()
                    .enumerate()
                    .map(|(id, data)| {
                        Client::for_federation(
                            &config,
                            id,
                            data,
                            if needs_cvae { self.cvae } else { None },
                        )
                    })
                    .collect();
                Box::new(
                    LocalTransport::new(clients, Arc::clone(&self.interceptor))
                        .with_compression(self.compression),
                )
            }
        };

        let mut init_rng = master.fork(u64::MAX);
        let global = Classifier::new(&config.classifier, &mut init_rng).get_params();

        Federation {
            config,
            transport,
            test_x: test_set.to_tensor(),
            test_y: test_set.labels_usize(),
            strategy,
            interceptor: self.interceptor,
            faults: self.faults,
            resilience: self.resilience,
            global,
            history: Vec::new(),
            rng: master.fork(u64::MAX - 1),
            observers: self.observers,
        }
    }
}

impl Federation {
    /// Start assembling a federation for `config`.
    pub fn builder(config: FederationConfig) -> FederationBuilder {
        FederationBuilder {
            config,
            datasets: None,
            test_set: None,
            strategy: None,
            interceptor: Arc::new(NoAttack),
            faults: None,
            resilience: ResiliencePolicy::default(),
            cvae: None,
            observers: Vec::new(),
            transport: None,
            compression: Compression::None,
        }
    }

    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// The current global parameter vector.
    pub fn global_params(&self) -> &[f32] {
        &self.global
    }

    /// Every round so far, one [`RoundTelemetry`] each.
    pub fn history(&self) -> &[RoundTelemetry] {
        &self.history
    }

    /// Register a telemetry observer after construction.
    pub fn add_observer(&mut self, observer: impl RoundObserver + 'static) {
        self.observers.push(Box::new(observer));
    }

    /// Accuracy of the current global model on the test set — through the
    /// scorer the audit uses ([`BatchedClassifier`], one model), so a
    /// non-finite `ψ₀` scores `0.0` exactly as a non-finite update audits.
    pub fn evaluate_global(&self) -> f32 {
        let psi = [self.global.as_slice()];
        BatchedClassifier::new(&self.config.classifier, &psi).evaluate(
            &self.test_x,
            &self.test_y,
            self.config.eval_batch,
        )[0]
    }

    /// Run one round; records it as one [`RoundTelemetry`], hands that
    /// record to every observer and returns it.
    ///
    /// Stage timing comes from `fg-obs` timed spans: each stage's seconds in
    /// [`StageTimings`] are derived from the same clock readings that land
    /// in the exported trace, so the round telemetry and a profile of the
    /// run can never disagree about where time went. Sanitization runs in
    /// slices between arrivals; its summed seconds are recorded as the one
    /// `round.sanitize` span and taken out of the exchange's.
    pub fn run_round(&mut self) -> &RoundTelemetry {
        let round = self.history.len();
        let round_span = timed_span("round");

        // (1) Sample m participants uniformly (Alg. 1 line 17).
        let stage = timed_span("round.sampling");
        let mut sampled =
            self.rng.sample_distinct(self.config.n_clients, self.config.clients_per_round);
        sampled.sort_unstable();
        let sampling_secs = stage.close();

        // (1b) Scheduled dropouts never train. Fault draws are pure
        // functions of (plan seed, round, client), so the schedule is
        // identical across replays regardless of execution order.
        let mut fault_events: Vec<FaultEvent> = Vec::new();
        let active: Vec<usize> = sampled
            .iter()
            .copied()
            .filter(|&id| {
                let dropout = self.faults.as_ref().is_some_and(|p| p.draw(round, id).dropout);
                if dropout {
                    fault_events.push(FaultEvent::new(id, FaultKind::Dropout));
                }
                !dropout
            })
            .collect();

        // (2)–(4) Exchange: every arrival is fault-injected, accounted,
        // sanitized and pushed as it leaves the transport. The push folds
        // into the strategy's O(d) aggregator when it opened one and
        // buffers otherwise.
        let dim = self.global.len();
        let mut fold = self.strategy.begin_streaming(dim, &active);
        let mut buffered: Vec<ModelUpdate> = Vec::new();
        // Upload accounting covers what actually crossed the wire this
        // round: corrupted/truncated/duplicate submissions included,
        // dropouts and timeouts not.
        let mut comm = CommStats::for_broadcast(dim, sampled.len());
        let mut survivor_ids: Vec<usize> = Vec::new();
        let mut injected: Vec<FaultEvent> = Vec::new();
        let mut observed: Vec<FaultEvent> = Vec::new();
        let mut stale: Vec<ModelUpdate> = Vec::new();
        let mut sanitize_ns = 0u64;

        let stage = timed_span("round.local_training");
        let offer = RoundOffer { round, global: &self.global, sampled: &sampled, active: &active };
        let mut admit = |arrival: ModelUpdate| {
            comm.push_update(&arrival);
            let started = Instant::now();
            let survivor = sanitize_one(arrival, dim, &mut survivor_ids, &mut observed);
            sanitize_ns += started.elapsed().as_nanos() as u64;
            match (survivor, &mut fold) {
                (None, _) => {}
                (Some(update), Some(agg)) => agg.push(&update),
                (Some(update), None) => buffered.push(update),
            }
        };
        let faults = self.faults.as_ref();
        let tail = self.transport.exchange_round_streamed(&offer, &mut |arrival| {
            let (original, duplicate) = match faults {
                Some(plan) => plan.inject(round, arrival, offer.global, &mut injected),
                None => (Some(arrival), None),
            };
            stale.extend(duplicate);
            if let Some(arrival) = original {
                admit(arrival);
            }
        });
        // Stale duplicates arrive after every original.
        for duplicate in stale {
            admit(duplicate);
        }
        record_interleaved("round.sanitize", sanitize_ns);
        let sanitize_secs = sanitize_ns as f64 / 1e9;
        let local_training_secs = (stage.close() - sanitize_secs).max(0.0);
        // Transport-observed losses (TCP disconnects, malformed frames)
        // degrade exactly like scheduled faults.
        fault_events.extend(tail.faults);
        fault_events.extend(injected);
        fault_events.extend(observed);
        // A duplicate that outlived its rejected original arrived last.
        survivor_ids.sort_unstable();
        buffered.sort_by_key(|u| u.client_id);

        // (5) Aggregate if the survivors meet quorum; otherwise carry the
        // global model forward. The strategy reports its own synthesis /
        // audit time; the remainder of the stage is inner aggregation.
        let quorum = self.resilience.effective_quorum();
        let quorum_met = survivor_ids.len() >= quorum;
        let stage = timed_span("round.aggregation");
        let (selected, scores, threshold, strategy_timings) = if quorum_met {
            let outcome = match fold {
                Some(agg) => {
                    AGG_PEAK_BYTES.set(agg.peak_bytes() as i64);
                    agg.finalize().expect("quorum met implies at least one folded update")
                }
                None => {
                    AGG_PEAK_BYTES.set(((buffered.len() + 1) * dim * 4) as i64);
                    let mut ctx = AggregationContext {
                        round,
                        global: &self.global,
                        rng: self.rng.fork(0xA66 ^ round as u64),
                    };
                    self.strategy.aggregate(&buffered, &mut ctx)
                }
            };
            assert_eq!(
                outcome.params.len(),
                dim,
                "strategy {} returned wrong-size parameters",
                self.strategy.name()
            );
            // Server learning rate (§V-A): ψ₀ ← (1-η)ψ₀ + η·aggregate.
            self.global = vecops::lerp(&self.global, &outcome.params, self.config.server_lr);
            (outcome.selected, outcome.scores, outcome.threshold, outcome.timings)
        } else {
            // Carry the global model forward unchanged (a fold in progress
            // is discarded).
            (Vec::new(), Vec::new(), None, StrategyTimings::default())
        };
        let aggregate_total_secs = stage.close();
        // Release the m·d survivor floats before evaluation allocates.
        drop(buffered);

        // (6) Evaluate, record the round, and hand it to the observers.
        let stage = timed_span("round.evaluation");
        let accuracy = self.evaluate_global();
        let evaluation_secs = stage.close();

        let malicious: HashSet<usize> = self.interceptor.malicious_clients().into_iter().collect();
        let malicious_sampled: Vec<usize> =
            sampled.iter().copied().filter(|c| malicious.contains(c)).collect();

        let selected_set: HashSet<usize> = selected.iter().copied().collect();
        let excluded: Vec<usize> =
            sampled.iter().copied().filter(|c| !selected_set.contains(c)).collect();

        let stages = StageTimings {
            sampling_secs,
            local_training_secs,
            sanitize_secs,
            synthesis_secs: strategy_timings.synthesis_secs,
            audit_secs: strategy_timings.audit_secs,
            aggregation_secs: (aggregate_total_secs
                - strategy_timings.synthesis_secs
                - strategy_timings.audit_secs)
                .max(0.0),
            evaluation_secs,
        };

        let wall_secs = round_span.close();
        ROUNDS.incr();

        self.history.push(RoundTelemetry {
            schema_version: SCHEMA_VERSION,
            round,
            strategy: self.strategy.name().to_string(),
            accuracy,
            stages,
            wall_secs,
            scores,
            threshold,
            sampled,
            survivors: survivor_ids,
            selected,
            excluded,
            faults: fault_events,
            quorum_met,
            malicious_sampled,
            comm,
            transport: self.transport.kind(),
            sessions: tail.sessions,
            // Cumulative process-wide metrics, folded in only while tracing
            // is on: profiled runs get the numbers, deterministic test runs
            // keep bit-comparable events.
            metrics: if fg_obs::enabled() {
                fg_obs::metrics::snapshot()
            } else {
                fg_obs::metrics::MetricsSnapshot::default()
            },
        });
        let event = &self.history[round];
        for obs in &mut self.observers {
            obs.on_round(event);
        }
        event
    }

    /// Run all configured rounds; returns the full history and notifies
    /// observers that the run is complete (sinks flush here).
    pub fn run(&mut self) -> Vec<RoundTelemetry> {
        for _ in 0..self.config.rounds {
            self.run_round();
        }
        // Release the clients (a TCP transport sends Shutdown and drains the
        // orderly Leaves) before the sinks flush.
        self.transport.finish();
        for obs in &mut self.observers {
            obs.on_run_complete();
        }
        self.history.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LocalTrainConfig;
    use crate::strategy::AggregationOutcome;
    use crate::telemetry::MemoryCollector;
    use fg_data::partition::{dirichlet_partition, partition_datasets};
    use fg_data::synth::generate_dataset;
    use fg_nn::models::ClassifierSpec;

    /// Plain unweighted mean — a stand-in FedAvg for framework tests.
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

    fn smoke_builder(rounds: usize, seed: u64) -> FederationBuilder {
        let data = generate_dataset(30, seed); // 300 samples
        let (test, train) = data.split_at(60);
        let mut rng = SeededRng::new(seed ^ 1);
        let parts = dirichlet_partition(&train, 8, 10.0, 10, &mut rng);
        let datasets = partition_datasets(&train, &parts);
        let config = FederationConfig {
            n_clients: 8,
            clients_per_round: 4,
            rounds,
            classifier: ClassifierSpec::Mlp { hidden: 24 },
            local: LocalTrainConfig { epochs: 2, batch_size: 16, lr: 0.1, momentum: 0.9 },
            server_lr: 1.0,
            eval_batch: 64,
            seed,
        };
        Federation::builder(config).datasets(datasets).test_set(test).strategy(MeanStrategy)
    }

    fn smoke_federation(rounds: usize, seed: u64) -> Federation {
        smoke_builder(rounds, seed).build()
    }

    #[test]
    fn honest_federation_learns() {
        let mut fed = smoke_federation(8, 42);
        let history = fed.run();
        assert_eq!(history.len(), 8);
        let last = history.last().unwrap().accuracy;
        assert!(last > 0.6, "federated training did not learn: {last}");
        // Accuracy should broadly improve over training.
        assert!(last > history[0].accuracy);
    }

    #[test]
    fn rounds_sample_correct_count_without_duplicates() {
        let mut fed = smoke_federation(3, 7);
        let history = fed.run();
        for r in &history {
            assert_eq!(r.sampled.len(), 4);
            let mut s = r.sampled.clone();
            s.dedup();
            assert_eq!(s.len(), 4);
            assert!(s.iter().all(|&c| c < 8));
        }
    }

    #[test]
    fn comm_accounting_matches_analytic_count() {
        let mut fed = smoke_federation(1, 9);
        let psi = fed.global_params().len() as u64;
        let history = fed.run();
        let comm = history[0].comm;
        assert_eq!(comm.upload_bytes, psi * 4 * 4); // m = 4 clients
        assert_eq!(comm.download_bytes, psi * 4 * 4); // no decoders
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let h1 = smoke_federation(3, 11).run();
        let h2 = smoke_federation(3, 11).run();
        let a1: Vec<f32> = h1.iter().map(|r| r.accuracy).collect();
        let a2: Vec<f32> = h2.iter().map(|r| r.accuracy).collect();
        assert_eq!(a1, a2);
        assert_ne!(
            a1,
            smoke_federation(3, 12).run().iter().map(|r| r.accuracy).collect::<Vec<_>>()
        );
    }

    #[test]
    fn evaluation_is_a_pure_reading_of_the_global_model() {
        let mut fed = smoke_federation(1, 5);
        fed.run();
        let before: Vec<u32> = fed.global_params().iter().map(|v| v.to_bits()).collect();
        let (first, second) = (fed.evaluate_global(), fed.evaluate_global());
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!(first.to_bits(), fed.history()[0].accuracy.to_bits());
        let after: Vec<u32> = fed.global_params().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after, "evaluation must not touch the global model");
    }

    #[test]
    fn non_finite_global_model_evaluates_to_zero() {
        // One scorer, one answer: a NaN/Inf ψ₀ reads 0.0 exactly as a
        // non-finite update audits (DESIGN §7.3). The sanitizer keeps every
        // committed configuration away from this state.
        let mut fed = smoke_federation(1, 5);
        for poison in [f32::NAN, f32::INFINITY] {
            fed.global[3] = poison;
            assert_eq!(fed.evaluate_global().to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn server_lr_damps_movement() {
        let data = generate_dataset(10, 5);
        let (test, train) = data.split_at(20);
        let mut rng = SeededRng::new(6);
        let parts = dirichlet_partition(&train, 4, 10.0, 10, &mut rng);
        let datasets = partition_datasets(&train, &parts);
        let mut config = FederationConfig {
            n_clients: 4,
            clients_per_round: 2,
            rounds: 1,
            classifier: ClassifierSpec::Mlp { hidden: 8 },
            local: LocalTrainConfig { epochs: 1, batch_size: 8, lr: 0.1, momentum: 0.0 },
            server_lr: 1.0,
            eval_batch: 32,
            seed: 3,
        };

        let mut full = Federation::builder(config)
            .datasets(datasets.clone())
            .test_set(test.clone())
            .strategy(MeanStrategy)
            .build();
        let start = full.global_params().to_vec();
        full.run();
        let full_move = fg_tensor::vecops::l2_distance(&start, full.global_params());

        config.server_lr = 0.3;
        let mut damped = Federation::builder(config)
            .datasets(datasets)
            .test_set(test)
            .strategy(MeanStrategy)
            .build();
        damped.run();
        let damped_move = fg_tensor::vecops::l2_distance(&start, damped.global_params());

        assert!((damped_move / full_move - 0.3).abs() < 0.02, "{damped_move} vs {full_move}");
    }

    #[test]
    #[should_panic]
    fn wrong_partition_count_rejected() {
        let data = generate_dataset(5, 0);
        let config = FederationConfig {
            n_clients: 4,
            clients_per_round: 2,
            rounds: 1,
            classifier: ClassifierSpec::Mlp { hidden: 8 },
            local: LocalTrainConfig::default(),
            server_lr: 1.0,
            eval_batch: 32,
            seed: 0,
        };
        Federation::builder(config)
            .datasets(vec![data.clone()])
            .test_set(data)
            .strategy(MeanStrategy)
            .build();
    }

    #[test]
    #[should_panic]
    fn missing_strategy_rejected() {
        let data = generate_dataset(5, 0);
        let config = FederationConfig {
            n_clients: 1,
            clients_per_round: 1,
            rounds: 1,
            classifier: ClassifierSpec::Mlp { hidden: 8 },
            local: LocalTrainConfig::default(),
            server_lr: 1.0,
            eval_batch: 32,
            seed: 0,
        };
        Federation::builder(config).datasets(vec![data.clone()]).test_set(data).build();
    }

    #[test]
    fn faulty_rounds_degrade_gracefully() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut fed =
            smoke_builder(6, 31).faults(FaultPlan::new(FaultConfig::chaotic(), 77)).build();
        let history = fed.run();
        assert_eq!(history.len(), 6);
        assert!(fed.global_params().iter().all(|x| x.is_finite()));

        let mut any_fault = false;
        for e in &history {
            any_fault |= !e.faults.is_empty();
            let sampled: HashSet<usize> = e.sampled.iter().copied().collect();
            let survivors: HashSet<usize> = e.survivors.iter().copied().collect();
            // selected ⊆ survivors ⊆ sampled.
            assert!(survivors.iter().all(|c| sampled.contains(c)));
            assert!(e.selected.iter().all(|c| survivors.contains(c)));
            // No dropped-out client ever reaches the survivor roster.
            for f in &e.faults {
                if f.kind == FaultKind::Dropout {
                    assert!(!survivors.contains(&f.client_id));
                }
            }
        }
        assert!(any_fault, "chaotic plan injected nothing over 6 rounds");
    }

    #[test]
    fn quorum_skip_carries_model_forward() {
        use crate::config::ResiliencePolicy;
        use crate::fault::{FaultConfig, FaultPlan};
        // Everyone drops out: no round can meet quorum.
        let plan = FaultPlan::new(FaultConfig { dropout_prob: 1.0, ..FaultConfig::default() }, 3);
        let mut fed =
            smoke_builder(2, 13).faults(plan).resilience(ResiliencePolicy::quorum(2)).build();
        let start = fed.global_params().to_vec();
        let baseline = fed.evaluate_global();
        let history = fed.run();
        assert_eq!(fed.global_params(), &start[..], "skip round must not move the model");
        for e in &history {
            assert!(e.selected.is_empty());
            assert!(!e.quorum_met);
            assert!(e.survivors.is_empty());
            assert_eq!(e.faults.len(), 4, "one Dropout event per sampled client");
            assert_eq!(e.comm.upload_bytes, 0, "nothing crossed the wire upstream");
            assert!((e.accuracy - baseline).abs() < 1e-6);
        }
    }

    #[test]
    fn duplicates_never_double_weight_a_client() {
        use crate::fault::{FaultConfig, FaultPlan};
        let plan = FaultPlan::new(FaultConfig { duplicate_prob: 1.0, ..FaultConfig::default() }, 5);
        for e in &smoke_builder(2, 19).faults(plan).build().run() {
            // Every client re-sent a stale duplicate; the sanitizer keeps
            // exactly one submission per id.
            assert_eq!(e.survivors, e.sampled);
            let dups = e.faults.iter().filter(|f| f.kind == FaultKind::DuplicateSubmission).count();
            let discarded =
                e.faults.iter().filter(|f| f.kind == FaultKind::DuplicateDiscarded).count();
            assert_eq!(dups, e.sampled.len());
            assert_eq!(discarded, e.sampled.len());
            assert!(e.quorum_met);
        }
    }

    #[test]
    fn stale_duplicates_never_displace_fresh_updates() {
        use crate::fault::{FaultConfig, FaultPlan};
        // Every client's update is followed by a retransmission frozen at
        // the round-start model. Under first-valid-wins they change nothing
        // but the upload bill and the duplicate events.
        let run = |plan: Option<FaultPlan>| {
            let mut fed = smoke_builder(3, 23).faults(plan).build();
            let start = fed.global_params().to_vec();
            let history = fed.run();
            let moved = fg_tensor::vecops::l2_distance(&start, fed.global_params());
            (fed.global_params().to_vec(), moved, history)
        };
        let dup = FaultConfig { duplicate_prob: 1.0, ..FaultConfig::default() };
        let (clean_global, clean_moved, clean) = run(None);
        let (dup_global, dup_moved, duplicated) = run(Some(FaultPlan::new(dup, 5)));
        assert!(clean_moved > 0.5, "clean run barely moved: {clean_moved}");
        assert_eq!(dup_moved, clean_moved);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&dup_global), bits(&clean_global));
        for (d, c) in duplicated.iter().zip(&clean) {
            assert_eq!(d.selected, c.selected);
            assert_eq!(d.survivors, c.survivors);
            assert_eq!(d.accuracy, c.accuracy);
            assert_eq!(d.comm.download_bytes, c.comm.download_bytes);
            assert_eq!(d.comm.upload_bytes, 2 * c.comm.upload_bytes);
            assert!(c.faults.is_empty());
            let count = |kind: FaultKind| d.faults.iter().filter(|f| f.kind == kind).count();
            assert_eq!(count(FaultKind::DuplicateSubmission), d.sampled.len());
            assert_eq!(count(FaultKind::DuplicateDiscarded), d.sampled.len());
            assert_eq!(d.faults.len(), 2 * d.sampled.len());
        }
    }

    #[test]
    fn observers_receive_one_event_per_round() {
        let collector = MemoryCollector::new();
        let mut fed = smoke_federation(3, 21);
        fed.add_observer(collector.clone());
        let history = fed.run();
        let events = collector.events();
        assert_eq!(events, history, "observers see the history, event for event");
        assert_eq!(events.len(), 3);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.round, i);
            assert_eq!(e.strategy, "mean");
            assert_eq!(e.sampled.len(), 4);
            // MeanStrategy keeps everyone: no exclusions, no threshold.
            assert!(e.excluded.is_empty());
            assert!(e.threshold.is_none());
            assert!(e.stages.local_training_secs > 0.0);
            assert!(e.stages.evaluation_secs > 0.0);
            assert!(e.wall_secs >= e.stages.total() * 0.5);
        }
    }
}
