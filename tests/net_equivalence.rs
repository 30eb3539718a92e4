//! The networked deployment's contract: a seeded FedGuard run over loopback
//! TCP — server and clients exchanging frames through the wire protocol —
//! is **bit-identical** to the in-process `LocalTransport` oracle. Same
//! accuracy series, same audit scores and threshold, same rosters, same
//! byte accounting, same final global model.
//!
//! Clients run on threads here (one `TcpClientChannel` each, driven by the
//! same `run_federated_client` loop the `fed_client` binary uses); the
//! separate-process version of this check is the `net` stage of
//! `run_suite.sh`.

mod common;

use common::{bind_for, net_cfg, serve_over_tcp};
use fedguard::agg::FedAvgStrategy;
use fedguard::experiment::{
    build_client, prepare_setup, run_experiment_full, run_served_experiment, AttackScenario,
    ExperimentConfig, Preset, RunArtifacts, StrategyKind,
};
use fedguard::synthesis::SynthesisBudget;
use fg_fl::{
    run_federated_client, AggregationContext, AggregationOutcome, AggregationStrategy,
    ClientChannel, Directive, Federation, ModelUpdate, TcpClientChannel, TransportKind,
};
use std::thread;

#[test]
fn tcp_fedguard_run_is_bit_identical_to_in_process_oracle() {
    let mut cfg = ExperimentConfig::preset(
        Preset::Smoke,
        StrategyKind::FedGuard,
        AttackScenario::SignFlip { fraction: 0.4 },
        42,
    );
    cfg.fed.rounds = 2;

    let oracle = run_experiment_full(&cfg);
    let (served, reports, wire) = serve_over_tcp(&cfg);

    // Bit-identical outcomes: f32 equality here is exact, not approximate.
    assert_eq!(oracle.result.accuracy_series(), served.result.accuracy_series());
    assert_eq!(oracle.final_global, served.final_global, "global model diverged");
    assert_eq!(oracle.result.malicious_clients, served.result.malicious_clients);
    assert_eq!(oracle.result.history.len(), served.result.history.len());
    for (a, b) in oracle.result.history.iter().zip(&served.result.history) {
        assert_eq!(a.scores, b.scores, "round {} audit scores diverged", a.round);
        assert_eq!(a.threshold, b.threshold, "round {} threshold diverged", a.round);
        assert_eq!(a.sampled, b.sampled);
        assert_eq!(a.survivors, b.survivors);
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.excluded, b.excluded);
        assert_eq!(a.comm, b.comm, "round {} comm accounting diverged", a.round);
        assert_eq!(a.transport, TransportKind::Local);
        assert_eq!(b.transport, TransportKind::Tcp);
    }
    // The served run logged the sessions the oracle never had.
    assert!(
        served.result.history[0].sessions.len() >= cfg.fed.n_clients,
        "expected at least one Join per client in round 0"
    );
    assert!(oracle.result.history.iter().all(|e| e.sessions.is_empty()));

    // Wire model-parameter bytes realize the simulation's byte accounting
    // exactly on these fault-free rounds.
    for event in &served.result.history {
        assert!(event.faults.is_empty(), "loopback run should be fault-free");
        let w = wire.iter().find(|w| w.round == event.round).expect("wire stats per round");
        assert_eq!(w.model_bytes_tx, event.comm.download_bytes, "round {}", event.round);
        assert_eq!(w.model_bytes_rx, event.comm.upload_bytes, "round {}", event.round);
    }

    // Every sampled slot trained: Σ participation = m × rounds.
    let trained: usize = reports.iter().map(|r| r.rounds_participated).sum();
    assert_eq!(trained, cfg.fed.clients_per_round * cfg.fed.rounds);
}

#[test]
fn tcp_batched_audit_matches_in_process_sequential_oracle() {
    // Cross the two axes at once: the served run audits with the batched
    // scorer while the in-process oracle audits sequentially. Scores,
    // threshold, rosters, and the final global model must all stay
    // bit-identical — transport and audit mode are both non-observable.
    let mut cfg = ExperimentConfig::preset(
        Preset::Smoke,
        StrategyKind::FedGuard,
        AttackScenario::SignFlip { fraction: 0.4 },
        44,
    );
    cfg.fed.rounds = 2;

    cfg.fedguard_audit = fedguard::AuditMode::Sequential;
    let oracle = run_experiment_full(&cfg);

    cfg.fedguard_audit = fedguard::AuditMode::Batched;
    let (served, _, _) = serve_over_tcp(&cfg);

    assert_eq!(oracle.result.accuracy_series(), served.result.accuracy_series());
    assert_eq!(oracle.final_global, served.final_global, "global model diverged");
    assert_eq!(oracle.result.malicious_clients, served.result.malicious_clients);
    for (a, b) in oracle.result.history.iter().zip(&served.result.history) {
        assert_eq!(a.scores, b.scores, "round {} audit scores diverged", a.round);
        assert_eq!(a.threshold, b.threshold, "round {} threshold diverged", a.round);
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.excluded, b.excluded);
        assert_eq!(a.survivors, b.survivors);
    }
}

#[test]
fn worker_vanishing_mid_round_degrades_to_a_dropout_not_a_crash() {
    // Every client is sampled every round, so the vanishing worker is
    // guaranteed to be in the active set when it dies.
    let mut cfg =
        ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 9);
    cfg.fed.n_clients = 5;
    cfg.fed.clients_per_round = 5;
    cfg.fed.rounds = 2;

    let (mut transport, addr) = bind_for(&cfg);
    let quitter = thread::spawn(move || {
        let mut channel = TcpClientChannel::connect(addr, 0, net_cfg()).expect("quitter joins");
        // Accept the round offer, then vanish without uploading.
        match channel.request_round().expect("first directive") {
            Directive::Round { .. } => drop(channel),
            Directive::Shutdown => panic!("expected a round before shutdown"),
        }
    });
    let workers: Vec<_> = (1..cfg.fed.n_clients)
        .map(|id| {
            let cfg = cfg.clone();
            thread::spawn(move || {
                let mut channel =
                    TcpClientChannel::connect(addr, id, net_cfg()).expect("worker joins");
                let (mut client, interceptor) = build_client(&cfg, id);
                run_federated_client(&mut channel, &mut client, interceptor.as_ref())
                    .expect("worker session completes")
            })
        })
        .collect();
    transport.wait_for_clients().expect("all five join");
    let served = run_served_experiment(&cfg, Box::new(transport));
    quitter.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }

    assert_eq!(served.result.history.len(), 2, "run completes despite the dead session");
    // Round 0: the quitter's EOF mid-round is a Dropout fault on client 0,
    // and its session records a Drop event.
    let r0 = &served.result.history[0];
    assert!(
        r0.faults.iter().any(|f| f.client_id == 0),
        "expected a fault for the vanished client, got {:?}",
        r0.faults
    );
    assert!(r0
        .sessions
        .iter()
        .any(|s| s.client_id == 0 && s.kind == fg_fl::SessionEventKind::Drop));
    // Round 1: the session is gone, so the still-sampled client 0 surfaces
    // as a dropout again; the other four keep training.
    let r1 = &served.result.history[1];
    assert!(r1.faults.iter().any(|f| f.client_id == 0));
    assert_eq!(r1.survivors, vec![1, 2, 3, 4]);
    assert!(served.result.history.iter().all(|r| r.accuracy.is_finite()));
}

#[test]
fn scheduled_dropouts_stay_bit_identical_over_tcp() {
    // A fault plan (scheduled dropouts) must reproduce identically across
    // transports: the schedule is drawn server-side, and remote workers are
    // told to sit the round out via `participate = false`.
    let mut cfg =
        ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 11);
    cfg.fed.rounds = 2;
    cfg.faults = Some(fg_fl::FaultConfig { dropout_prob: 0.4, ..fg_fl::FaultConfig::default() });

    let oracle = run_experiment_full(&cfg);
    let (served, reports, _) = serve_over_tcp(&cfg);

    assert_eq!(oracle.result.accuracy_series(), served.result.accuracy_series());
    assert_eq!(oracle.final_global, served.final_global);
    for (a, b) in oracle.result.history.iter().zip(&served.result.history) {
        assert_eq!(a.faults, b.faults, "round {} fault records diverged", a.round);
        assert_eq!(a.survivors, b.survivors);
        assert_eq!(a.comm, b.comm);
    }
    // Declines happened iff the plan scheduled dropouts.
    let declined: usize = reports.iter().map(|r| r.rounds_declined).sum();
    let scheduled: usize = served.result.history.iter().map(|e| e.faults.len()).sum();
    assert_eq!(declined, scheduled, "one Decline per scheduled dropout");
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
}

/// The folding aggregation path, driven end-to-end over loopback TCP: the
/// server folds each FedAvg upload into the O(d) accumulator as it leaves
/// the wire instead of materializing the round, and the run must stay
/// bit-identical to the buffered batch oracle — in-process *and* over TCP.
#[test]
fn tcp_streaming_aggregation_is_bit_identical_to_batch_oracle() {
    let mut cfg =
        ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 42);
    cfg.fed.rounds = 2;
    // The federation `run_experiment_full` assembles for `cfg`, with FedAvg's
    // buffered reference in place of the folding strategy.
    let setup = prepare_setup(&cfg);
    let mut batch_oracle = Federation::builder(cfg.fed)
        .datasets(setup.datasets)
        .test_set(setup.test)
        .strategy(BufferedFedAvg)
        .interceptor(setup.interceptor)
        .build();
    let batch_history = batch_oracle.run();
    let batch_series: Vec<f32> = batch_history.iter().map(|r| r.accuracy).collect();

    // In-process fold vs in-process batch.
    let local_folded = run_experiment_full(&cfg);
    assert_eq!(batch_oracle.global_params(), local_folded.final_global, "local fold diverged");
    assert_eq!(batch_series, local_folded.result.accuracy_series());

    // Over-the-wire fold vs in-process batch.
    let (served, _reports, wire) = serve_over_tcp(&cfg);
    assert_eq!(batch_oracle.global_params(), served.final_global, "TCP fold diverged");
    assert_eq!(batch_series, served.result.accuracy_series());
    for (a, b) in batch_history.iter().zip(&served.result.history) {
        assert_eq!(a.sampled, b.sampled);
        assert_eq!(a.survivors, b.survivors);
        assert_eq!(a.selected, b.selected);
        // Per-arrival accounting must equal the batch bookkeeping and the
        // wire's own tally.
        assert_eq!(a.comm, b.comm, "round {} comm accounting diverged", a.round);
        let w = wire.iter().find(|w| w.round == a.round).expect("wire stats per round");
        assert_eq!(w.model_bytes_rx, b.comm.upload_bytes, "round {}", a.round);
        assert_eq!(w.model_bytes_tx, b.comm.download_bytes, "round {}", a.round);
    }
}

/// Wire-compression gates (DESIGN.md §14). The uncompressed default is
/// covered by every other test in this file — `Compression::None` keeps the
/// dense frames and stays bit-identical to the pre-compression protocol.
/// Each lossy codec must:
/// * cost at most half a percentage point of **converged** accuracy against
///   the uncompressed oracle on a seeded FedGuard run under attack (drift is
///   measured on the mean of the final two rounds once the trajectory has
///   saturated — per-round equality is not a meaningful gate, because the
///   audit's survivor *selection* is a threshold cut: a sub-codec-error
///   score perturbation can legitimately swap one borderline client and
///   move a single early round by many points before both runs converge to
///   the same place),
/// * be bit-identical across worker-pool sizes (1 vs 4 threads), and
/// * be bit-identical between the in-process deployment and loopback TCP —
///   two code paths that share only `broadcast` and the codec pair: the
///   in-process oracle never builds a frame, the TCP run crosses real ones.
///
/// The smoke preset's 200-sample test split quantizes accuracy in 0.5pp
/// steps, so the gate run widens the eval split to 1 000 samples (0.1pp
/// granularity) and the audit budget to 600 draws to keep both measurements
/// finer than the bound being asserted.
#[test]
fn compressed_fedguard_runs_drift_at_most_half_a_point_and_match_across_deployments() {
    let mut cfg = ExperimentConfig::preset(
        Preset::Smoke,
        StrategyKind::FedGuard,
        AttackScenario::SignFlip { fraction: 0.4 },
        42,
    );
    cfg.fed.rounds = 8;
    cfg.per_class_test = 100;
    cfg.budget = SynthesisBudget::Total(600);
    let baseline = run_experiment_full(&cfg);
    let converged = |r: &RunArtifacts| {
        let acc = r.result.accuracy_series();
        (acc[acc.len() - 2] + acc[acc.len() - 1]) / 2.0
    };

    for mode in [
        fg_fl::Compression::Bf16,
        fg_fl::Compression::Int8 { block: fg_fl::compress::DEFAULT_INT8_BLOCK },
        fg_fl::Compression::TopK { frac: fg_fl::compress::DEFAULT_TOPK_FRAC },
    ] {
        let mut lossy_cfg = cfg.clone();
        lossy_cfg.compression = mode;
        let local = rayon::with_threads(4, || run_experiment_full(&lossy_cfg));

        // Lossy, but bounded: ≤ 0.5pp converged-accuracy drift.
        let drift = (converged(&baseline) - converged(&local)).abs();
        assert!(
            drift <= 0.005,
            "{}: converged accuracy drifted {:.4} (> 0.5pp) from the uncompressed \
             oracle ({:?} vs {:?})",
            mode.name(),
            drift,
            baseline.result.accuracy_series(),
            local.result.accuracy_series()
        );

        // Bit-identical at any worker-pool size.
        let single = rayon::with_threads(1, || run_experiment_full(&lossy_cfg));
        assert_eq!(single.final_global, local.final_global, "{}: thread count", mode.name());
        assert_eq!(single.result.accuracy_series(), local.result.accuracy_series());

        // Bit-identical across deployments.
        let (served, _, _) = serve_over_tcp(&lossy_cfg);
        assert_eq!(local.final_global, served.final_global, "{}: local vs TCP", mode.name());
        assert_eq!(local.result.accuracy_series(), served.result.accuracy_series());
        for (a, b) in local.result.history.iter().zip(&served.result.history) {
            assert_eq!(a.scores, b.scores, "{}: round {} scores", mode.name(), a.round);
            assert_eq!(a.survivors, b.survivors);
            assert_eq!(a.selected, b.selected);
            // The logical byte ledger is mode-invariant by design.
            assert_eq!(a.comm, b.comm, "{}: round {} comm", mode.name(), a.round);
        }
    }
}

/// Shared-state guard: two loopback runs in the same process must not
/// interfere (ephemeral ports, no global registries beyond metrics).
#[test]
fn consecutive_tcp_runs_are_independent() {
    let mut cfg =
        ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedAvg, AttackScenario::None, 3);
    cfg.fed.n_clients = 4;
    cfg.fed.clients_per_round = 3;
    cfg.fed.rounds = 1;
    let (a, _, _) = serve_over_tcp(&cfg);
    let (b, _, _) = serve_over_tcp(&cfg);
    assert_eq!(a.result.accuracy_series(), b.result.accuracy_series());
    assert_eq!(a.final_global, b.final_global);
}
