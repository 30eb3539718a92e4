//! `fed_server` — the server half of a networked FedGuard deployment.
//!
//! Binds a TCP endpoint, waits for every client process to join, then runs
//! the configured experiment cell with rounds exchanged over the wire
//! protocol instead of in-process clients. The experiment configuration is
//! shipped to every client inside the `Welcome` frame, so the worker
//! processes need nothing but `--connect` and `--id`.
//!
//! ```text
//! fed_server --bind 127.0.0.1:7878 --preset smoke --strategy fedguard \
//!            --attack none --seed 42 [--rounds N] [--check-oracle] \
//!            [--compress none|bf16|int8[:block]|topk[:frac]] \
//!            [--admin 127.0.0.1:9878] [--telemetry results/telemetry] \
//!            [--out results/bench_net.json]
//! ```
//!
//! With `--telemetry <dir>` the run writes its one trail to
//! `<dir>/<cell_stem>.jsonl`: strategy, attack, seed and the config digest
//! (`ExperimentConfig::cell_stem`), the name every trail carries.
//!
//! With `--check-oracle` the server additionally replays the identical
//! config through the in-process `LocalTransport` oracle and asserts the
//! two deployments are bit-identical (accuracy series, audit scores, the
//! final global model and the forensics ledgers of the two histories).
//!
//! With `--admin <addr>` the server binds a second socket serving
//! `GET /metrics` (Prometheus text), `GET /healthz` and `GET /forensics`,
//! drained from the transport's existing nonblocking poll loop (no extra
//! thread), arms the fg-obs flight recorder with dump-on-anomaly triggers
//! writing to `results/flightrec/`, and self-checks after the run that an
//! HTTP scrape of `/metrics` is byte-identical to rendering a registry
//! snapshot taken at the same instant.

use fedguard::experiment::{
    run_experiment_full, run_served_experiment_observed, AttackScenario, ExperimentConfig,
    StrategyKind,
};
use fg_bench::{flag_value, preset_from_args, seed_from_args};
use fg_fl::forensics::ledger;
use fg_fl::{
    AdminPlane, CommStats, Compression, FlightRecTrigger, NetConfig, OpsState, RoundObserver,
    RoundTelemetry, TcpTransport, WireStats,
};
use parking_lot::Mutex;
use serde::Serialize;
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;

fn strategy_from_args(args: &[String]) -> StrategyKind {
    match flag_value(args, "--strategy").as_deref().map(str::to_lowercase).as_deref() {
        Some("fedavg") => StrategyKind::FedAvg,
        Some("geomed") => StrategyKind::GeoMed,
        Some("krum") => StrategyKind::Krum,
        Some("median") => StrategyKind::Median,
        Some("trimmedmean") | Some("trimmed-mean") => StrategyKind::TrimmedMean,
        Some("spectral") => StrategyKind::Spectral,
        Some("fedguard") | None => StrategyKind::FedGuard,
        Some(other) => panic!("unknown strategy {other:?}"),
    }
}

fn attack_from_args(args: &[String]) -> AttackScenario {
    match flag_value(args, "--attack").as_deref().map(str::to_lowercase).as_deref() {
        Some("none") | None => AttackScenario::None,
        Some(name) => *AttackScenario::paper_set()
            .iter()
            .find(|a| a.name() == name)
            .unwrap_or_else(|| panic!("unknown attack {name:?} (paper-set names or 'none')")),
    }
}

/// What the `net` suite stage consumes: per-round latency and wire traffic,
/// the comm-accounting cross-check and (optionally) the oracle equivalence
/// verdict.
#[derive(Serialize)]
struct NetBenchReport {
    strategy: String,
    attack: String,
    seed: u64,
    rounds: usize,
    n_clients: usize,
    clients_per_round: usize,
    transport: String,
    /// Negotiated wire-compression mode (`Welcome` handshake).
    compression: String,
    accuracy: Vec<f32>,
    round_latency_secs: Vec<f64>,
    comm: CommStats,
    wire: Vec<WireStats>,
    /// Wire model-parameter bytes equal the simulation's `CommStats`
    /// accounting on every fault-free round — the logical 4 B/f32 ledger is
    /// mode-invariant, so this must hold under every compression mode.
    wire_matches_comm: bool,
    /// Under a lossy mode, actual uplink payload bytes must come in under
    /// the logical model accounting (the wire savings are real); `true`
    /// vacuously when uncompressed.
    wire_payload_smaller_than_logical: bool,
    oracle_checked: bool,
    /// `Some(true)` when `--check-oracle` confirmed bit-identity.
    equivalent: Option<bool>,
    /// Admin-plane address when `--admin` was given.
    admin: Option<String>,
    /// `Some(true)` when the post-run `/metrics` self-scrape was
    /// byte-identical to rendering a registry snapshot taken at the same
    /// instant (only with `--admin`).
    scrape_consistent: Option<bool>,
}

/// Minimal blocking HTTP/1.0 GET against the admin plane; returns the body.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: fed_server\r\n\r\n")?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp)?;
    resp.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bind = flag_value(&args, "--bind").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let out = flag_value(&args, "--out").unwrap_or_else(|| "results/bench_net.json".to_string());
    let check_oracle = args.iter().any(|a| a == "--check-oracle");

    let mut cfg = ExperimentConfig::preset(
        preset_from_args(&args),
        strategy_from_args(&args),
        attack_from_args(&args),
        seed_from_args(&args),
    );
    if let Some(rounds) = flag_value(&args, "--rounds") {
        cfg.fed.rounds = rounds.parse().expect("--rounds expects an integer");
    }
    if let Some(spec) = flag_value(&args, "--compress") {
        cfg.compression =
            Compression::parse(&spec).unwrap_or_else(|| panic!("unknown --compress mode {spec:?}"));
    }
    if let Some(dir) = flag_value(&args, "--telemetry") {
        cfg.telemetry_dir = Some(dir);
    }

    // The Welcome payload: the full config, so every worker reconstructs the
    // identical partition/roster/attack state from one source of truth.
    let blob = serde_json::to_string(&cfg).expect("config serializes");
    let param_len = cfg.fed.classifier.num_params() as u64;

    // The operational plane: a second socket drained from the transport's
    // poll loop, the observer folding the ledger it serves, and flight-recorder
    // triggers dumping to results/flightrec/ on anomalies.
    let admin = flag_value(&args, "--admin").map(|admin_addr| {
        let ops = OpsState::new(cfg.fed.rounds);
        let plane =
            Arc::new(Mutex::new(AdminPlane::bind(&admin_addr, ops.clone()).expect("bind admin")));
        (ops, plane)
    });

    let mut transport =
        TcpTransport::bind(&bind, cfg.fed.n_clients, param_len, blob, NetConfig::default())
            .expect("bind fed_server endpoint")
            .with_compression(cfg.compression);
    let addr = transport.local_addr().expect("bound address");
    let wire_log = transport.wire_log();

    let mut observers: Vec<Box<dyn RoundObserver>> = Vec::new();
    if let Some((ops, plane)) = &admin {
        fg_obs::flightrec::enable(fg_obs::flightrec::DEFAULT_CAPACITY);
        observers.push(Box::new(ops.observer()));
        observers.push(Box::new(FlightRecTrigger::new("results/flightrec")));
        transport = transport.with_admin(Arc::clone(plane));
    }
    let admin = admin.map(|(_, plane)| plane);

    eprintln!(
        "[fed_server] {} on {addr}, waiting for {} clients...",
        cfg.label(),
        cfg.fed.n_clients
    );
    if let Some(plane) = &admin {
        eprintln!("[fed_server] admin plane on {}", plane.lock().local_addr().unwrap());
    }
    transport.wait_for_clients().expect("all clients joined");
    eprintln!("[fed_server] all clients joined; running {} rounds", cfg.fed.rounds);

    let served = run_served_experiment_observed(&cfg, Box::new(transport), observers);

    // Self-scrape consistency: render a snapshot taken *now*, then fetch
    // /metrics over HTTP (the run is over, so nothing mutates the registry
    // in between) and require byte identity.
    let scrape_consistent = admin.as_ref().map(|plane| {
        let admin_addr = plane.lock().local_addr().expect("admin address");
        let expected = fg_obs::prometheus::render(&fg_obs::metrics::snapshot());
        let handle = std::thread::spawn(move || http_get(admin_addr, "/metrics"));
        while !handle.is_finished() {
            plane.lock().poll();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        match handle.join().expect("scrape thread") {
            Ok(body) => {
                let ok = body == expected;
                if !ok {
                    eprintln!(
                        "[fed_server] scrape mismatch: {} scraped bytes vs {} rendered",
                        body.len(),
                        expected.len()
                    );
                }
                ok
            }
            Err(e) => {
                eprintln!("[fed_server] self-scrape failed: {e}");
                false
            }
        }
    });

    // Cross-check the wire traffic against the simulation's byte accounting:
    // on fault-free rounds they must agree exactly (DESIGN.md §12).
    let wire: Vec<WireStats> =
        wire_log.lock().iter().filter(|w| w.round != usize::MAX).copied().collect();
    let wire_matches_comm = served.result.history.iter().all(|event| {
        if !event.faults.is_empty() {
            return true; // dropouts shift wire traffic; accounting is simulated
        }
        wire.iter().find(|w| w.round == event.round).is_some_and(|w| {
            w.model_bytes_tx == event.comm.download_bytes
                && w.model_bytes_rx == event.comm.upload_bytes
        })
    });
    // Under a lossy mode the *actual* uplink payloads must undercut the
    // logical ledger on every round — compression that doesn't shrink the
    // wire is a codec regression.
    let wire_payload_smaller_than_logical = cfg.compression == Compression::None
        || wire.iter().all(|w| w.model_bytes_rx == 0 || w.payload_bytes_rx < w.model_bytes_rx);

    let equivalent = check_oracle.then(|| {
        eprintln!("[fed_server] replaying in-process oracle for equivalence check...");
        // The replay must not clobber the served run's telemetry trail; the
        // sink path does not influence the computation.
        let mut oracle_cfg = cfg.clone();
        oracle_cfg.telemetry_dir = None;
        let oracle = run_experiment_full(&oracle_cfg);
        let acc_ok = oracle.result.accuracy_series() == served.result.accuracy_series();
        let global_ok = oracle.final_global == served.final_global;
        let scores_ok = oracle
            .result
            .history
            .iter()
            .zip(&served.result.history)
            .all(|(a, b)| a.scores == b.scores && a.threshold == b.threshold);
        // The forensics ledger derives purely from deterministic telemetry,
        // so it must be byte-identical across the two deployments too.
        let ledger_json = |history: &[RoundTelemetry]| {
            serde_json::to_string(&ledger(history)).expect("ledger serializes")
        };
        let forensics_ok =
            ledger_json(&oracle.result.history) == ledger_json(&served.result.history);
        eprintln!(
            "[fed_server] oracle check: accuracy {} | global {} | scores {} | forensics {}",
            acc_ok, global_ok, scores_ok, forensics_ok
        );
        acc_ok && global_ok && scores_ok && forensics_ok
    });

    let mut comm = CommStats::default();
    for r in &served.result.history {
        comm.add(&r.comm);
    }
    let report = NetBenchReport {
        strategy: served.result.strategy.clone(),
        attack: served.result.attack.clone(),
        seed: cfg.fed.seed,
        rounds: served.result.history.len(),
        n_clients: cfg.fed.n_clients,
        clients_per_round: cfg.fed.clients_per_round,
        transport: "tcp".to_string(),
        compression: cfg.compression.name().to_string(),
        accuracy: served.result.accuracy_series(),
        round_latency_secs: served.result.history.iter().map(|e| e.wall_secs).collect(),
        comm,
        wire,
        wire_matches_comm,
        wire_payload_smaller_than_logical,
        oracle_checked: check_oracle,
        equivalent,
        admin: admin
            .as_ref()
            .and_then(|plane| plane.lock().local_addr().ok())
            .map(|a| a.to_string()),
        scrape_consistent,
    };
    if let Some(dir) = Path::new(&out).parent() {
        fs::create_dir_all(dir).expect("create output dir");
    }
    fs::write(&out, serde_json::to_string_pretty(&report).expect("report serializes"))
        .expect("write bench_net.json");
    eprintln!(
        "[fed_server] done: final acc {:.4}, compression {}, wire/comm match {}, report at {out}",
        served.result.final_accuracy(),
        cfg.compression.name(),
        wire_matches_comm
    );

    if !wire_matches_comm
        || !wire_payload_smaller_than_logical
        || equivalent == Some(false)
        || scrape_consistent == Some(false)
    {
        std::process::exit(1);
    }
}
