//! The forensics ledger and the admin plane's bodies, written down.
//!
//! Two FNV-1a digests pin what the ledger serializes to, independent of
//! where it is computed:
//!
//! * the ledger of a seeded Smoke FedGuard sign-flip run (8 rounds, the
//!   `forensics_determinism` cell), folded round by round over the run's
//!   history with `ForensicsLedger::observe`;
//! * the `/healthz` and `/forensics` bodies the admin plane serves after a
//!   fixed three-round sequence: a clean round, a round with fault events
//!   (a non-finite rejection and a dropout) and a quorum failure.
//!
//! The run's digest holds the audit scores' bits, so like the golden
//! digests it skips at the scalar GEMM level and moves only with an
//! intended numeric change (an epoch bump there). The admin digests are
//! pure functions of the three hand-built rounds.

use fedguard::experiment::{
    run_experiment, AttackScenario, ExperimentConfig, Preset, StrategyKind,
};
use fg_fl::{
    AdminPlane, CommStats, CorruptionMode, FaultEvent, FaultKind, ForensicsLedger, OpsState,
    RoundObserver, RoundTelemetry, StageTimings,
};
use fg_tensor::simd::Level;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const RUN_LEDGER_DIGEST: &str = "b9f835ca7ded083d";
const HEALTHZ_DIGEST: &str = "d4d959421d5ee7e1";
const FORENSICS_DIGEST: &str = "02af049822c07a33";

fn fnv1a(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[test]
fn ledger_of_a_seeded_sign_flip_run_matches_its_pinned_digest() {
    if Level::detect() == Level::Scalar {
        eprintln!("ledger pin skipped: scalar level (the digest holds the vector levels' bits)");
        return;
    }
    let mut cfg = ExperimentConfig::preset(
        Preset::Smoke,
        StrategyKind::FedGuard,
        AttackScenario::SignFlip { fraction: 0.4 },
        42,
    );
    cfg.fed.rounds = 8;
    let history = run_experiment(&cfg).history;
    let mut ledger = ForensicsLedger::new();
    for event in &history {
        ledger.observe(event);
    }
    let json = serde_json::to_string(ledger.rounds()).expect("ledger serializes");
    assert_eq!(fnv1a(json.as_bytes()), RUN_LEDGER_DIGEST, "ledger bytes moved: {json}");
}

/// One round over `sampled`, where `sampled` minus `selected` is excluded,
/// as the federation records it.
fn round(
    round: usize,
    sampled: &[usize],
    survivors: &[usize],
    selected: &[usize],
    faults: Vec<FaultEvent>,
    accuracy: f32,
) -> RoundTelemetry {
    let quorum_met = !selected.is_empty();
    RoundTelemetry {
        schema_version: 2,
        round,
        strategy: "fedguard".to_string(),
        accuracy,
        stages: StageTimings::default(),
        wall_secs: 0.25,
        scores: if quorum_met {
            survivors.iter().map(|&c| (c, 0.3 + c as f32 * 0.1)).collect()
        } else {
            vec![]
        },
        threshold: quorum_met.then_some(0.55),
        sampled: sampled.to_vec(),
        survivors: survivors.to_vec(),
        selected: selected.to_vec(),
        excluded: sampled.iter().copied().filter(|c| !selected.contains(c)).collect(),
        faults,
        quorum_met,
        malicious_sampled: sampled.iter().copied().filter(|&c| c == 2 || c == 4).collect(),
        comm: CommStats::default(),
        transport: Default::default(),
        sessions: vec![],
        metrics: Default::default(),
    }
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    let (head, body) = resp.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{path}: {head}");
    body.to_string()
}

#[test]
fn admin_bodies_after_three_rounds_match_their_pinned_digests() {
    let ops = OpsState::new(5);
    let mut observer = ops.observer();
    observer.on_round(&round(0, &[0, 1, 2, 3], &[0, 1, 2, 3], &[0, 1, 3], vec![], 0.41));
    let faults = vec![
        FaultEvent::new(4, FaultKind::Corrupted { mode: CorruptionMode::Nan }),
        FaultEvent::new(4, FaultKind::RejectedNonFinite),
        FaultEvent::new(5, FaultKind::Dropout),
    ];
    observer.on_round(&round(1, &[1, 2, 4, 5], &[1, 2], &[1], faults, 0.45));
    let faults = vec![
        FaultEvent::new(3, FaultKind::FrameMalformed { detail: "bad magic".to_string() }),
        FaultEvent::new(6, FaultKind::Dropout),
    ];
    observer.on_round(&round(2, &[0, 3, 4, 6], &[0, 4], &[], faults, 0.45));
    ops.set_sessions(3);

    let mut admin = AdminPlane::bind("127.0.0.1:0", ops).unwrap();
    let addr = admin.local_addr().unwrap();
    let mut get = |path: &'static str| {
        let handle = std::thread::spawn(move || http_get(addr, path));
        while !handle.is_finished() {
            admin.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.join().unwrap()
    };
    let healthz = get("/healthz");
    let forensics = get("/forensics");
    assert_eq!(fnv1a(healthz.as_bytes()), HEALTHZ_DIGEST, "/healthz moved: {healthz}");
    assert_eq!(fnv1a(forensics.as_bytes()), FORENSICS_DIGEST, "/forensics moved: {forensics}");
}
