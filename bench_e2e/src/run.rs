//! Driving one workload: set-up, the closed round loop, and the end-to-end
//! metrics and correctness checks derived from what the rounds reported.
//!
//! The bench talks to the system only through its public API: the
//! experiment harness's `prepare_setup` / `build_client`, `Federation`'s
//! builder and `run_round`, the TCP transport pair, and `RoundTelemetry`.

use crate::spec::Workload;
use crate::stats::{mean, median};
use fedguard::experiment::{build_client, prepare_setup, ExperimentConfig, FederationSetup};
use fedguard::strategy::{FedGuardConfig, FedGuardStrategy};
use fg_fl::{
    run_federated_client, ClientRunReport, Compression, Federation, MemoryCollector, NetConfig,
    RoundTelemetry, TcpClientChannel, TcpTransport, WireStats,
};
use fg_obs::span::span;
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Set-ups measured per run; `setup_s` is their median, and the last one
/// carries the timed rounds.
pub const SETUP_REPS: usize = 3;

/// The FedGuard strategy exactly as the experiment harness assembles it
/// from a config (its `build_strategy` is private).
pub fn fedguard_strategy(cfg: &ExperimentConfig) -> FedGuardStrategy {
    FedGuardStrategy::new(FedGuardConfig {
        classifier: cfg.fed.classifier,
        cvae: cfg.cvae.spec,
        budget: cfg.budget,
        class_probs: None,
        eval_batch: cfg.fed.eval_batch,
        inner: cfg.fedguard_inner,
        coverage_aware: cfg.fedguard_coverage_aware,
        audit: cfg.fedguard_audit,
    })
}

fn clone_setup(setup: &FederationSetup) -> FederationSetup {
    FederationSetup {
        datasets: setup.datasets.clone(),
        test: setup.test.clone(),
        malicious: setup.malicious.clone(),
        interceptor: Arc::clone(&setup.interceptor),
    }
}

type ClientThread = JoinHandle<Result<ClientRunReport, String>>;

/// The client half of a loopback deployment: one thread per client, each
/// running the same connect → `build_client` → `run_federated_client`
/// sequence as the `fed_client` bin, inside the bench process.
struct TcpSide {
    wire_log: Arc<Mutex<Vec<WireStats>>>,
    clients: Vec<ClientThread>,
}

/// One federation ready to run rounds, in-process or over loopback TCP.
pub struct Session {
    federation: Federation,
    collector: MemoryCollector,
    tcp: Option<TcpSide>,
}

impl Session {
    /// Build the federation for `cfg` over `setup`'s data. With `tcp`, bind
    /// a loopback `TcpTransport`, start the client threads and wait until
    /// every one has joined.
    pub fn open(cfg: &ExperimentConfig, setup: FederationSetup, tcp: bool) -> Session {
        let collector = MemoryCollector::new();
        let builder = Federation::builder(cfg.fed)
            .test_set(setup.test)
            .strategy(fedguard_strategy(cfg))
            .interceptor(setup.interceptor)
            .observer(collector.clone());
        if !tcp {
            let federation = builder
                .datasets(setup.datasets)
                .cvae(cfg.cvae)
                .compression(cfg.compression)
                .build();
            return Session { federation, collector, tcp: None };
        }

        let blob = serde_json::to_string(cfg).expect("config serializes");
        let param_len = cfg.fed.classifier.num_params() as u64;
        let mut transport = TcpTransport::bind(
            "127.0.0.1:0",
            cfg.fed.n_clients,
            param_len,
            blob,
            NetConfig::default(),
        )
        .expect("bind loopback endpoint")
        .with_compression(cfg.compression);
        let addr = transport.local_addr().expect("bound address");
        let wire_log = transport.wire_log();
        let clients = (0..cfg.fed.n_clients)
            .map(|id| {
                std::thread::spawn(move || -> Result<ClientRunReport, String> {
                    let mut channel = TcpClientChannel::connect(addr, id, NetConfig::default())
                        .map_err(|e| format!("client {id}: join failed: {e:?}"))?;
                    let cfg: ExperimentConfig = serde_json::from_str(channel.welcome_blob())
                        .map_err(|e| format!("client {id}: bad welcome blob: {e}"))?;
                    let (mut client, interceptor) = build_client(&cfg, id);
                    run_federated_client(&mut channel, &mut client, interceptor.as_ref())
                        .map_err(|e| format!("client {id}: session failed: {e:?}"))
                })
            })
            .collect();
        transport.wait_for_clients().expect("every client joins");
        let federation = builder.transport(transport).build();
        Session { federation, collector, tcp: Some(TcpSide { wire_log, clients }) }
    }

    pub fn round(&mut self) {
        self.federation.run_round();
    }

    pub fn rounds_run(&self) -> usize {
        self.collector.len()
    }

    /// Every round run so far, oldest first.
    pub fn telemetry(&self) -> Vec<RoundTelemetry> {
        self.collector.events()
    }

    /// Per-round server-side wire traffic (empty in-process).
    pub fn wire_log(&self) -> Vec<WireStats> {
        self.tcp.as_ref().map_or_else(Vec::new, |t| {
            t.wire_log.lock().iter().filter(|w| w.round != usize::MAX).copied().collect()
        })
    }

    /// Release the clients and wait for their threads. A TCP session runs
    /// one untimed closing round through `Federation::run` — the public way
    /// to send `Shutdown` and drain the `Leave`s — then checks that every
    /// client trained exactly the rounds the server ran.
    pub fn close(mut self) -> Result<(), String> {
        let Some(tcp) = self.tcp.take() else { return Ok(()) };
        self.federation.run();
        let rounds = self.federation.history().len();
        for handle in tcp.clients {
            let report = handle.join().map_err(|_| "client thread panicked".to_string())??;
            if report.rounds_participated != rounds || report.rounds_declined != 0 {
                return Err(format!(
                    "client trained {} and declined {} of {rounds} rounds",
                    report.rounds_participated, report.rounds_declined
                ));
            }
        }
        Ok(())
    }
}

/// What set-up leaves behind: prepared data (`cold_fit`, whose timed rounds
/// each build their own federation) or a session whose round 0 — the CVAE
/// fits — has run.
pub enum Prepared {
    Data(FederationSetup),
    Warm(Box<Session>),
}

/// Set the workload up once and return what the timed rounds start from,
/// with the seconds it took: data generation, partition, roster, federation
/// build, bind/join/handshake, and round 0 wherever round 0 is set-up.
pub fn set_up(workload: Workload, cfg: &ExperimentConfig) -> (Prepared, f64) {
    let started = Instant::now();
    let setup = prepare_setup(cfg);
    let prepared = if workload.fresh_federation_per_round() {
        Prepared::Data(setup)
    } else {
        let mut session = Session::open(cfg, setup, workload.is_tcp());
        session.round();
        Prepared::Warm(Box::new(session))
    };
    (prepared, started.elapsed().as_secs_f64())
}

/// The rounds of one pass over a workload.
pub struct Pass {
    /// Every round in order; where round 0 is set-up it comes first.
    pub rounds: Vec<RoundTelemetry>,
    /// Index in `rounds` of the first timed round.
    pub timed_from: usize,
    /// Wall seconds from the first timed round's start to the last one's end,
    /// including whatever the bench does between rounds.
    pub run_s: f64,
    /// Server-side wire traffic of the timed rounds (TCP only).
    pub wire: Vec<WireStats>,
    /// Outcome of releasing the clients.
    pub closed: Result<(), String>,
}

impl Pass {
    pub fn timed(&self) -> &[RoundTelemetry] {
        &self.rounds[self.timed_from..]
    }

    pub fn accuracy_series(&self) -> Vec<f32> {
        self.rounds.iter().map(|r| r.accuracy).collect()
    }
}

/// Run timed rounds from `prepared` until `done(timed rounds so far, seconds
/// so far)` says stop (it is asked before every round, so at least the
/// rounds it insists on are run). Each timed round sits in a bench-owned
/// `bench.round` span, which records only while the traced pass has tracing
/// on.
pub fn run_pass(
    cfg: &ExperimentConfig,
    prepared: Prepared,
    mut done: impl FnMut(usize, f64) -> bool,
) -> Pass {
    let started = Instant::now();
    let mut timed = 0;
    match prepared {
        Prepared::Data(setup) => {
            let mut rounds = Vec::new();
            while !done(timed, started.elapsed().as_secs_f64()) {
                let _span = span("bench.round");
                let mut session = Session::open(cfg, clone_setup(&setup), false);
                session.round();
                rounds.extend(session.telemetry());
                timed += 1;
            }
            let run_s = started.elapsed().as_secs_f64();
            Pass { rounds, timed_from: 0, run_s, wire: Vec::new(), closed: Ok(()) }
        }
        Prepared::Warm(mut session) => {
            let timed_from = session.rounds_run();
            while !done(timed, started.elapsed().as_secs_f64()) {
                let _span = span("bench.round");
                session.round();
                timed += 1;
            }
            let run_s = started.elapsed().as_secs_f64();
            let rounds = session.telemetry();
            let wire = session.wire_log().into_iter().skip(timed_from).take(timed).collect();
            let closed = session.close();
            Pass { rounds, timed_from, run_s, wire, closed }
        }
    }
}

/// Share of sampled sign-flipping clients the audit must exclude over the
/// timed rounds of a warm federation (22 seeds: 0.96 to 1.00). Round 0
/// alone, from a random model, is exempt: it excludes anywhere from 0.58 up.
pub const MIN_MALICIOUS_EXCLUDED: f64 = 0.9;

/// One named pass/fail line of the correctness gate.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Client-rounds offered in the timed rounds, and how many of them did not
/// survive to aggregation (declined, faulted, sanitized away, or lost to a
/// quorum skip).
pub fn attempted_and_failed(pass: &Pass) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for r in pass.timed() {
        attempted += r.sampled.len() as u64;
        failed += if r.quorum_met { r.lost_count() as u64 } else { r.sampled.len() as u64 };
    }
    (attempted, failed)
}

/// Excluded ÷ sampled over the timed rounds, split by ground truth:
/// `(malicious rate, honest rate)`. A side nobody was sampled from reads 0.
pub fn exclusion_rates(pass: &Pass) -> (f64, f64) {
    let (mut mal, mut mal_out, mut honest, mut honest_out) = (0usize, 0usize, 0usize, 0usize);
    for r in pass.timed() {
        for id in &r.sampled {
            let excluded = r.excluded.contains(id);
            if r.malicious_sampled.contains(id) {
                mal += 1;
                mal_out += usize::from(excluded);
            } else {
                honest += 1;
                honest_out += usize::from(excluded);
            }
        }
    }
    let rate = |out: usize, of: usize| if of == 0 { 0.0 } else { out as f64 / of as f64 };
    (rate(mal_out, mal), rate(honest_out, honest))
}

/// Bytes that cross the server per timed round: real frame bytes in both
/// directions over TCP, the `CommStats` ledger in-process. Both are exact
/// counts fixed by the shapes, so the median is the per-round value.
pub fn wire_bytes_per_round(pass: &Pass) -> f64 {
    let per_round: Vec<f64> = if pass.wire.is_empty() {
        pass.timed().iter().map(|r| r.comm.total() as f64).collect()
    } else {
        pass.wire.iter().map(|w| (w.bytes_tx + w.bytes_rx) as f64).collect()
    };
    median(&per_round)
}

/// The end-to-end metric values of a pass, in `spec::END_TO_END` order.
pub fn end_to_end(setup_s: &[f64], pass: &Pass) -> Vec<f64> {
    let walls: Vec<f64> = pass.timed().iter().map(|r| r.wall_secs).collect();
    let client_rounds: usize = pass.timed().iter().map(|r| r.sampled.len()).sum();
    vec![
        median(setup_s),
        median(&walls),
        client_rounds as f64 / pass.run_s,
        crate::env::peak_rss_mb(),
        wire_bytes_per_round(pass),
    ]
}

/// Global test accuracy over the workload's quality rounds: `(after the last
/// of them, mean over all of them)`. A function of the seed alone.
pub fn quality(workload: Workload, quick: bool, pass: &Pass) -> (f64, f64) {
    let rounds = &pass.rounds[..workload.quality_rounds(quick)];
    let accuracies: Vec<f64> = rounds.iter().map(|r| f64::from(r.accuracy)).collect();
    (*accuracies.last().expect("at least one quality round"), mean(&accuracies))
}

/// The correctness gate over one pass: accuracy floor (or, on `cold_fit`,
/// bit-identical repeats), the audit's exclusion of sign-flippers, quorum,
/// no failed client-rounds, orderly client shutdown, and on TCP the wire
/// ledger.
pub fn checks(
    workload: Workload,
    cfg: &ExperimentConfig,
    floor: Option<f32>,
    quick: bool,
    pass: &Pass,
) -> Vec<Check> {
    let mut out = Vec::new();
    if let Some(floor) = floor {
        let k = workload.quality_rounds(quick);
        let (final_accuracy, mean_accuracy) = quality(workload, quick, pass);
        out.push(check(
            "accuracy_floor",
            final_accuracy >= f64::from(floor),
            format!("accuracy after round {} is {final_accuracy:.4} (mean {mean_accuracy:.4}), floor {floor:.2}", k - 1),
        ));
    }
    if workload.fresh_federation_per_round() {
        let first = &pass.rounds[0];
        let same = |r: &RoundTelemetry| {
            r.accuracy.to_bits() == first.accuracy.to_bits()
                && r.scores == first.scores
                && r.threshold == first.threshold
                && r.selected == first.selected
        };
        out.push(check(
            "timed_rounds_identical",
            pass.rounds.iter().all(same),
            format!(
                "{} fresh federations of one seed: accuracy, audit scores, threshold, selection",
                pass.rounds.len()
            ),
        ));
    } else if cfg.attack.fraction() > 0.0 && !quick {
        let (malicious_rate, honest_rate) = exclusion_rates(pass);
        out.push(check(
            "malicious_clients_excluded",
            malicious_rate >= MIN_MALICIOUS_EXCLUDED,
            format!(
                "{malicious_rate:.4} of sampled malicious clients excluded (honest: {honest_rate:.4}), \
                 floor {MIN_MALICIOUS_EXCLUDED}"
            ),
        ));
    }
    let skipped = pass.rounds.iter().filter(|r| !r.quorum_met).count();
    out.push(check("quorum_met", skipped == 0, format!("{skipped} rounds below quorum")));
    let (attempted, failed) = attempted_and_failed(pass);
    out.push(check(
        "no_failed_client_rounds",
        failed == 0,
        format!("{failed} of {attempted} client-rounds did not survive"),
    ));
    out.push(check(
        "clients_released",
        pass.closed.is_ok(),
        pass.closed.clone().err().unwrap_or_else(|| "orderly".to_string()),
    ));
    if workload.is_tcp() {
        let ledger_ok = pass.wire.len() == pass.timed().len()
            && pass.wire.iter().zip(pass.timed()).all(|(w, r)| {
                w.round == r.round
                    && w.model_bytes_tx == r.comm.download_bytes
                    && w.model_bytes_rx == r.comm.upload_bytes
            });
        out.push(check(
            "wire_model_bytes_equal_comm_stats",
            ledger_ok,
            format!("{} wire records for {} timed rounds", pass.wire.len(), pass.timed().len()),
        ));
        if cfg.compression != Compression::None {
            let smaller = pass.wire.iter().all(|w| w.payload_bytes_rx < w.model_bytes_rx);
            out.push(check(
                "compressed_payload_below_logical",
                smaller,
                "uplink payload bytes vs logical model bytes, every timed round".to_string(),
            ));
        }
    }
    out
}
