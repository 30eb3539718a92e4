//! Admin plane: a tiny HTTP endpoint served inline from the transport's
//! existing poll loop — no dedicated thread, no framework.
//!
//! A deployed `fed_server` binds a *second* listening socket next to the
//! federation endpoint. The nonblocking accept loop the TCP transport
//! already runs between rounds (`poll_joins`) also drains this socket, so
//! operational requests are answered at every round boundary and
//! continuously while the server waits for clients — without a thread that
//! could perturb the deterministic round loop.
//!
//! Endpoints:
//!
//! * `GET /metrics` — the fg-obs registry snapshot in Prometheus text
//!   exposition format (`fg_obs::prometheus`). Rendering is a pure function
//!   of the snapshot, so a scrape equals an offline rendering of a snapshot
//!   taken at the same instant.
//! * `GET /healthz` — JSON liveness: round progress, session count, quorum
//!   state, last accuracy.
//! * `GET /forensics` — the current [`crate::forensics`] ledger as a JSON
//!   array.
//!
//! Both JSON endpoints read one fold: the ledger of the rounds so far.
//! Round progress, quorum state and the last exclusions are read off its
//! records; only the last accuracy and the session count are kept beside
//! it.
//!
//! [`FlightRecTrigger`] rides the same observer bus and dumps the fg-obs
//! flight recorder on anomalies: a quorum failure, a malformed/oversized
//! wire frame, or a round slower than [`FlightRecTrigger::SLOW_MULTIPLE`]
//! times the trailing-median wall clock.

use crate::fault::FaultKind;
use crate::forensics::{ForensicsLedger, RoundForensics};
use crate::telemetry::{RoundObserver, RoundTelemetry};
use parking_lot::Mutex;
use serde::Serialize;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

#[derive(Default)]
struct Ops {
    ledger: ForensicsLedger,
    last_accuracy: Option<f32>,
    sessions: usize,
}

/// What `GET /healthz` returns.
#[derive(Serialize)]
struct HealthReport {
    status: &'static str,
    rounds_total: usize,
    rounds_done: usize,
    last_round: Option<usize>,
    last_accuracy: Option<f32>,
    quorum_failures: usize,
    last_quorum_met: Option<bool>,
    sessions: usize,
    last_excluded: Vec<usize>,
}

/// Shared operational state behind the admin endpoints: the forensics
/// ledger of the rounds so far, the last accuracy and the session count.
/// Clones share state; the transport holds one for session counts, the
/// round-observer another for progress.
#[derive(Clone)]
pub struct OpsState {
    rounds_total: usize,
    ops: Arc<Mutex<Ops>>,
}

impl OpsState {
    pub fn new(rounds_total: usize) -> Self {
        OpsState { rounds_total, ops: Arc::new(Mutex::new(Ops::default())) }
    }

    /// Stamp the current session count (the transport calls this from its
    /// poll loop).
    pub fn set_sessions(&self, n: usize) {
        self.ops.lock().sessions = n;
    }

    /// The observer to attach to the federation: folds each round into the
    /// ledger and keeps its accuracy.
    pub fn observer(&self) -> OpsObserver {
        OpsObserver { state: self.clone() }
    }

    pub fn healthz_json(&self) -> String {
        let ops = self.ops.lock();
        let rounds = ops.ledger.rounds();
        let last = rounds.last();
        let report = HealthReport {
            status: "ok",
            rounds_total: self.rounds_total,
            rounds_done: rounds.len(),
            last_round: last.map(|r| r.round),
            last_accuracy: ops.last_accuracy,
            quorum_failures: rounds.iter().filter(|r| !r.quorum_met).count(),
            last_quorum_met: last.map(|r| r.quorum_met),
            sessions: ops.sessions,
            last_excluded: last.map(RoundForensics::excluded_ids).unwrap_or_default(),
        };
        serde_json::to_string(&report).expect("health report serializes")
    }

    /// The ledger so far as a JSON array (what `/forensics` serves).
    fn forensics_json(&self) -> String {
        serde_json::to_string(self.ops.lock().ledger.rounds()).expect("ledger serializes")
    }
}

/// [`RoundObserver`] feeding an [`OpsState`].
pub struct OpsObserver {
    state: OpsState,
}

impl RoundObserver for OpsObserver {
    fn on_round(&mut self, event: &RoundTelemetry) {
        let mut ops = self.state.ops.lock();
        ops.ledger.observe(event);
        ops.last_accuracy = Some(event.accuracy);
    }
}

/// The admin listening socket. `poll` accepts and answers every pending
/// request inline; it never blocks beyond a short per-connection timeout,
/// so it is safe to call from the transport's nonblocking poll points.
pub struct AdminPlane {
    listener: TcpListener,
    state: OpsState,
}

impl AdminPlane {
    pub fn bind(addr: &str, state: OpsState) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(AdminPlane { listener, state })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn state(&self) -> &OpsState {
        &self.state
    }

    /// Accept and answer every connection currently pending. Requests are
    /// one-shot (`Connection: close`); a client that stalls past the read
    /// timeout is dropped.
    pub fn poll(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = self.serve(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn serve(&self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        stream.set_write_timeout(Some(Duration::from_secs(2)))?;

        let mut req = Vec::new();
        let mut buf = [0u8; 1024];
        while !req.windows(4).any(|w| w == b"\r\n\r\n") && req.len() < 8192 {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => req.extend_from_slice(&buf[..n]),
                Err(_) => break,
            }
        }
        let request_line =
            std::str::from_utf8(&req).unwrap_or("").lines().next().unwrap_or("").to_string();
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");

        let (status, content_type, body) = if method != "GET" {
            ("405 Method Not Allowed", "text/plain", "method not allowed\n".to_string())
        } else {
            match path {
                "/metrics" => (
                    "200 OK",
                    "text/plain; version=0.0.4",
                    fg_obs::prometheus::render(&fg_obs::metrics::snapshot()),
                ),
                "/healthz" => ("200 OK", "application/json", self.state.healthz_json()),
                "/forensics" => ("200 OK", "application/json", self.state.forensics_json()),
                _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
            }
        };
        let response = format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(response.as_bytes())?;
        stream.flush()
    }
}

/// Dump-on-anomaly triggers for the fg-obs flight recorder. Watches each
/// completed round and calls [`fg_obs::flightrec::dump`] when the round
/// failed quorum, carried a malformed/oversized wire frame, or took longer
/// than [`Self::SLOW_MULTIPLE`] times the trailing median wall clock (over
/// the last [`Self::WINDOW`] rounds, once at least [`Self::MIN_HISTORY`] are
/// known).
pub struct FlightRecTrigger {
    dir: PathBuf,
    walls: Vec<f64>,
}

impl FlightRecTrigger {
    /// Rounds of wall-clock history kept for the trailing median.
    pub const WINDOW: usize = 16;
    /// Rounds required before the slow-round trigger arms.
    pub const MIN_HISTORY: usize = 3;
    /// A round slower than this multiple of the trailing median dumps.
    pub const SLOW_MULTIPLE: f64 = 3.0;

    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FlightRecTrigger { dir: dir.into(), walls: Vec::new() }
    }

    fn trailing_median(&self) -> Option<f64> {
        if self.walls.len() < Self::MIN_HISTORY {
            return None;
        }
        let mut sorted = self.walls.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(sorted[sorted.len() / 2])
    }
}

impl RoundObserver for FlightRecTrigger {
    fn on_round(&mut self, event: &RoundTelemetry) {
        let mut reasons: Vec<String> = Vec::new();
        if !event.quorum_met {
            reasons.push(format!("r{}-quorum", event.round));
        }
        if event.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::FrameMalformed { .. } | FaultKind::FrameOversized { .. })
        }) {
            reasons.push(format!("r{}-wire-fault", event.round));
        }
        if let Some(median) = self.trailing_median() {
            if event.wall_secs > Self::SLOW_MULTIPLE * median {
                reasons.push(format!("r{}-slow-round", event.round));
            }
        }
        self.walls.push(event.wall_secs);
        if self.walls.len() > Self::WINDOW {
            self.walls.remove(0);
        }
        for reason in reasons {
            let _ = fg_obs::flightrec::dump(&self.dir, &reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommStats;
    use crate::telemetry::{StageTimings, SCHEMA_VERSION};

    fn event(round: usize, wall: f64, quorum: bool) -> RoundTelemetry {
        RoundTelemetry {
            schema_version: SCHEMA_VERSION,
            round,
            strategy: "fedguard".to_string(),
            accuracy: 0.4,
            stages: StageTimings::default(),
            wall_secs: wall,
            scores: vec![],
            threshold: None,
            sampled: vec![0, 1],
            survivors: vec![0, 1],
            selected: if quorum { vec![0, 1] } else { vec![] },
            excluded: if quorum { vec![] } else { vec![0, 1] },
            faults: vec![],
            quorum_met: quorum,
            malicious_sampled: vec![],
            comm: CommStats::default(),
            transport: Default::default(),
            sessions: vec![],
            metrics: Default::default(),
        }
    }

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn admin_plane_serves_all_three_endpoints() {
        // The registry only lists touched metrics; make sure the scrape has
        // at least one sample regardless of which other tests ran first.
        static PROBE: fg_obs::metrics::Counter = fg_obs::metrics::Counter::new("test.admin.probe");
        PROBE.incr();
        let ops = OpsState::new(4);
        let mut observer = ops.observer();
        let events = [event(0, 1.0, true), event(1, 1.0, false)];
        for e in &events {
            observer.on_round(e);
        }
        ops.set_sessions(2);
        let mut admin = AdminPlane::bind("127.0.0.1:0", ops).unwrap();
        let addr = admin.local_addr().unwrap();
        let mut get = |path: &'static str| {
            let handle = std::thread::spawn(move || http_get(addr, path));
            while !handle.is_finished() {
                admin.poll();
                std::thread::sleep(Duration::from_millis(1));
            }
            let (head, body) = handle.join().unwrap();
            assert!(head.starts_with("HTTP/1.0 200 OK"), "{path}: {head}");
            body
        };

        for (path, probe) in [("/healthz", "\"quorum_failures\":1"), ("/metrics", "# TYPE")] {
            let body = get(path);
            assert!(body.contains(probe), "{path} body missing {probe:?}: {body}");
        }
        // `/forensics` serves exactly the ledger of the rounds it was fed.
        let expected = serde_json::to_string(&crate::forensics::ledger(&events)).unwrap();
        assert_eq!(get("/forensics"), expected);

        // Unknown path → 404; the serve loop must not wedge.
        let handle = std::thread::spawn(move || http_get(addr, "/nope"));
        while !handle.is_finished() {
            admin.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        let (head, _) = handle.join().unwrap();
        assert!(head.starts_with("HTTP/1.0 404"));
    }

    #[test]
    fn healthz_tracks_round_progress() {
        let ops = OpsState::new(8);
        let mut observer = ops.observer();
        observer.on_round(&event(0, 1.0, true));
        let json = ops.healthz_json();
        assert!(json.contains("\"rounds_total\":8"));
        assert!(json.contains("\"rounds_done\":1"));
        assert!(json.contains("\"last_quorum_met\":true"));
    }

    #[test]
    fn flight_trigger_fires_on_quorum_and_slow_rounds() {
        let dir = std::env::temp_dir().join("fg_flighttrig_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut trig = FlightRecTrigger::new(&dir);
        for r in 0..3 {
            trig.on_round(&event(r, 1.0, true));
        }
        assert!(!dir.exists(), "steady rounds must not dump");
        trig.on_round(&event(3, 10.0, true)); // 10× the median
        trig.on_round(&event(4, 1.0, false)); // quorum failure
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().any(|n| n.contains("slow-round")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("quorum")), "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
