//! The TCP deployment: `TcpTransport` (server side) and `TcpClientChannel`
//! (client side), speaking the [`crate::wire`] protocol over `std::net`.
//!
//! ## Session lifecycle
//!
//! A client connects, sends `Join`, and receives `Welcome` (carrying the
//! serialized experiment configuration, so one config — the server's —
//! drives every process). Each round the server sends `RoundStart` to every
//! *sampled* session; active clients train and `Upload`, scheduled dropouts
//! receive `participate = false` and answer `Decline` without training
//! (preserving decoder-cache parity with the in-process oracle). While idle
//! between rounds a client emits `Heartbeat`s; the server records them as
//! [`SessionEvent`]s when it next reads that session. `Shutdown`/`Leave`
//! close the run.
//!
//! ## Fault mapping
//!
//! Wire trouble degrades exactly like the PR-2 chaos layer, so the round
//! loop's sanitize/quorum/carry-forward machinery carries over unchanged:
//! a disconnect or read timeout is a [`FaultKind::Dropout`], a frame that
//! fails to decode is a [`FaultKind::FrameMalformed`], and a frame whose
//! declared length exceeds the cap is a [`FaultKind::FrameOversized`] —
//! all reported through [`ExchangeTail::faults`]. An upload whose payload
//! is off the codec negotiated in `Welcome` is a `FrameMalformed` too, and
//! a client answers such a broadcast with [`WireError::Malformed`].
//!
//! Every mode, dense included, takes the same calls into
//! [`crate::compress`], which picks the payload family; this module never
//! branches on the codec.
//!
//! ## Determinism and byte accounting
//!
//! The transport adds no randomness: sessions are processed in client-id
//! order, dense parameters travel as raw f32 bits, and training and
//! interception run client-side from the same seeds the oracle uses — a
//! seeded loopback run is bit-identical to the in-process run. Per-round
//! [`WireStats`] report actual frames/bytes; their `model_bytes_*` fields
//! match [`CommStats`](crate::comm::CommStats) accounting exactly on
//! fault-free rounds (injected transit faults are simulated server-side
//! after receipt, so they never touch the wire).

use crate::client::Client;
use crate::compress::{
    accept_broadcast, write_upload, CompressedUpdate, Compression, RoundBroadcast,
};
use crate::fault::{FaultEvent, FaultKind};
use crate::transport::{
    ClientChannel, Directive, ExchangeTail, RoundOffer, SessionEvent, SessionEventKind, Transport,
    TransportKind,
};
use crate::update::ModelUpdate;
#[cfg(test)]
use crate::wire::encode;
use crate::wire::{
    read_frame, write_frame, Frame, Message, WireConfig, WireError, HEADER_BYTES, PROTOCOL_VERSION,
};
use fg_obs::metrics::Counter;
use fg_obs::span::span;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

static NET_FRAMES_TX: Counter = Counter::new("fl.net.frames_tx");
static NET_FRAMES_RX: Counter = Counter::new("fl.net.frames_rx");
static NET_BYTES_TX: Counter = Counter::new("fl.net.bytes_tx");
static NET_BYTES_RX: Counter = Counter::new("fl.net.bytes_rx");
static NET_MODEL_BYTES_TX: Counter = Counter::new("fl.net.model_bytes_tx");
static NET_MODEL_BYTES_RX: Counter = Counter::new("fl.net.model_bytes_rx");

/// Timeouts and codec limits for one endpoint.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Server: how long to wait for one client's round response (must cover
    /// a full local training pass — a busy client cannot heartbeat). Client:
    /// overall patience for the next directive before giving the server up.
    pub read_timeout: Duration,
    /// Per-frame write deadline on either side.
    pub write_timeout: Duration,
    /// Server: how long [`TcpTransport::wait_for_clients`] waits for the
    /// expected session count. Client: connect-retry window (the server may
    /// not be listening yet).
    pub join_timeout: Duration,
    /// Client: emit a `Heartbeat` after this much idle waiting.
    pub heartbeat_interval: Duration,
    /// Frame codec limits (the length cap).
    pub wire: WireConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            read_timeout: Duration::from_secs(120),
            write_timeout: Duration::from_secs(30),
            join_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::from_secs(2),
            wire: WireConfig::default(),
        }
    }
}

/// Actual wire traffic of one round (or of one client session, cumulatively):
/// every frame in both directions, split into model-parameter payload bytes —
/// the quantity [`CommStats`](crate::comm::CommStats) accounts — and total
/// frame bytes including protocol overhead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    pub round: usize,
    pub frames_tx: u64,
    pub frames_rx: u64,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    /// Model-parameter bytes sent (server: `RoundStart` globals; this is the
    /// networked realization of `CommStats::download_bytes`, the broadcast
    /// the clients download).
    pub model_bytes_tx: u64,
    /// Model-parameter bytes received (server: `Upload` payloads; the
    /// networked realization of `CommStats::upload_bytes`, the updates the
    /// clients upload).
    pub model_bytes_rx: u64,
    /// Heartbeat frames observed among the received frames.
    pub heartbeats: u64,
    /// Payload bytes sent: everything after each frame's fixed
    /// [`HEADER_BYTES`] header (model payloads, ids, lengths, blobs), so
    /// `bytes_tx == frames_tx × HEADER_BYTES + payload_bytes_tx` always
    /// holds. Under a lossy compression mode this is where the wire savings
    /// show up, while `model_bytes_tx` keeps reporting the logical 4 B/f32
    /// accounting.
    #[serde(default)]
    pub payload_bytes_tx: u64,
    /// Payload bytes received.
    #[serde(default)]
    pub payload_bytes_rx: u64,
}

impl WireStats {
    pub fn add(&mut self, other: &WireStats) {
        self.frames_tx += other.frames_tx;
        self.frames_rx += other.frames_rx;
        self.bytes_tx += other.bytes_tx;
        self.bytes_rx += other.bytes_rx;
        self.model_bytes_tx += other.model_bytes_tx;
        self.model_bytes_rx += other.model_bytes_rx;
        self.heartbeats += other.heartbeats;
        self.payload_bytes_tx += other.payload_bytes_tx;
        self.payload_bytes_rx += other.payload_bytes_rx;
    }
}

/// Stream one frame to the peer with `write`, which returns the frame bytes
/// it wrote, and book it.
fn tx_frame<S: Write>(
    stream: &mut S,
    model_bytes: u64,
    stats: &mut WireStats,
    write: impl FnOnce(&mut S) -> std::io::Result<u64>,
) -> Result<(), WireError> {
    let _span = span("net.frame.tx");
    let bytes = write(stream)?;
    stats.frames_tx += 1;
    stats.bytes_tx += bytes;
    stats.payload_bytes_tx += bytes - HEADER_BYTES as u64;
    stats.model_bytes_tx += model_bytes;
    NET_FRAMES_TX.incr();
    NET_BYTES_TX.add(bytes);
    NET_MODEL_BYTES_TX.add(model_bytes);
    Ok(())
}

/// [`tx_frame`] of a control message.
fn tx_msg<S: Write>(stream: &mut S, msg: &Message, stats: &mut WireStats) -> Result<(), WireError> {
    tx_frame(stream, 0, stats, |w| write_frame(w, Frame::Message(msg)))
}

fn rx_frame(
    stream: &mut TcpStream,
    wire: &WireConfig,
    stats: &mut WireStats,
) -> Result<Message, WireError> {
    let _span = span("net.frame.rx");
    let (msg, bytes) = read_frame(stream, wire)?;
    stats.frames_rx += 1;
    stats.bytes_rx += bytes;
    stats.payload_bytes_rx += bytes - HEADER_BYTES as u64;
    stats.model_bytes_rx += msg.model_bytes();
    NET_FRAMES_RX.incr();
    NET_BYTES_RX.add(bytes);
    NET_MODEL_BYTES_RX.add(msg.model_bytes());
    if matches!(msg, Message::Heartbeat { .. }) {
        stats.heartbeats += 1;
    }
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// The networked [`Transport`]: client processes connect over TCP, join, and
/// are driven through the rounds by the same offers the in-process oracle
/// sees. Accepts happen via non-blocking polls (at construction, inside
/// [`wait_for_clients`](TcpTransport::wait_for_clients), and at each round
/// start) — no background threads, so the worker pool stays free for the
/// server's own synthesis/audit work.
pub struct TcpTransport {
    listener: TcpListener,
    cfg: NetConfig,
    expected: usize,
    welcome_param_len: u64,
    welcome_blob: String,
    compression: Compression,
    sessions: BTreeMap<usize, TcpStream>,
    /// Session events observed outside a round (setup joins, finish leaves);
    /// drained into the next exchange / the finish result.
    pending_events: Vec<SessionEvent>,
    wire_log: Arc<Mutex<Vec<WireStats>>>,
    /// Optional admin plane drained from the same nonblocking poll points
    /// as the join socket — operational requests are answered at every
    /// round boundary without a dedicated thread.
    admin: Option<Arc<Mutex<crate::admin::AdminPlane>>>,
}

impl TcpTransport {
    /// Bind `addr` and start accepting sessions for `expected` clients.
    /// `param_len` and `blob` (typically the serialized `ExperimentConfig`)
    /// are shipped to every client in `Welcome`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        expected: usize,
        param_len: u64,
        blob: String,
        cfg: NetConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpTransport {
            listener,
            cfg,
            expected,
            welcome_param_len: param_len,
            welcome_blob: blob,
            compression: Compression::None,
            sessions: BTreeMap::new(),
            pending_events: Vec::new(),
            wire_log: Arc::new(Mutex::new(Vec::new())),
            admin: None,
        })
    }

    /// Set the wire-compression mode announced to every client in `Welcome`
    /// (the server's resolved mode is authoritative for the session). Must
    /// be called before any client joins.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        assert!(self.sessions.is_empty(), "set compression before clients join");
        self.compression = compression;
        self
    }

    /// Attach an [`crate::admin::AdminPlane`]: its socket is polled from the
    /// same accept loop as client joins (round boundaries and the
    /// wait-for-clients spin), and its session gauge tracks this transport.
    /// The caller keeps a clone of the `Arc` to poll during post-run checks.
    pub fn with_admin(mut self, admin: Arc<Mutex<crate::admin::AdminPlane>>) -> Self {
        self.admin = Some(admin);
        self
    }

    /// The bound address (use with port 0 to discover the ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Handle to the per-round wire statistics; clone it **before** handing
    /// the transport to a `Federation` (rounds push as they complete).
    pub fn wire_log(&self) -> Arc<Mutex<Vec<WireStats>>> {
        Arc::clone(&self.wire_log)
    }

    /// Currently joined client ids.
    pub fn joined(&self) -> Vec<usize> {
        self.sessions.keys().copied().collect()
    }

    /// Accept and handshake every connection currently pending. A connection
    /// that fails the handshake (bad first frame, wrong protocol version) is
    /// dropped silently — it never had a client id to attribute events to.
    pub fn poll_joins(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(id) = self.handshake(stream) {
                        self.pending_events.push(SessionEvent::new(id, SessionEventKind::Join));
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        if let Some(admin) = &self.admin {
            let mut admin = admin.lock();
            admin.state().set_sessions(self.sessions.len());
            admin.poll();
        }
    }

    fn handshake(&mut self, mut stream: TcpStream) -> Option<usize> {
        let _span = span("net.handshake");
        stream.set_read_timeout(Some(self.cfg.read_timeout)).ok()?;
        stream.set_write_timeout(Some(self.cfg.write_timeout)).ok()?;
        stream.set_nodelay(true).ok();
        let mut stats = WireStats::default();
        let msg = rx_frame(&mut stream, &self.cfg.wire, &mut stats).ok()?;
        let Message::Join { client_id, protocol } = msg else { return None };
        if protocol != PROTOCOL_VERSION {
            return None;
        }
        let welcome = Message::Welcome {
            param_len: self.welcome_param_len,
            compression: self.compression,
            blob: self.welcome_blob.clone(),
        };
        tx_msg(&mut stream, &welcome, &mut stats).ok()?;
        let id = client_id as usize;
        self.sessions.insert(id, stream);
        Some(id)
    }

    /// Poll for joins until the expected session count is reached or the
    /// join timeout expires (then errors with the ids still missing).
    pub fn wait_for_clients(&mut self) -> std::io::Result<()> {
        let deadline = Instant::now() + self.cfg.join_timeout;
        loop {
            self.poll_joins();
            if self.sessions.len() >= self.expected {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "only {}/{} clients joined within {:?}",
                        self.sessions.len(),
                        self.expected,
                        self.cfg.join_timeout
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// An upload is accepted only from the session's own client, only if
    /// it participates (a scheduled dropout that trained anyway would break
    /// oracle parity), and only under the session's codec. A refusal is
    /// recorded as a malformed frame.
    fn upload_admissible(
        update: &CompressedUpdate,
        id: usize,
        active: bool,
        mode: Compression,
        faults: &mut Vec<FaultEvent>,
    ) -> bool {
        let detail = if update.client_id != id {
            format!("upload claims client {} on session {id}", update.client_id)
        } else if !active {
            "upload from non-participating client".to_string()
        } else if !update.is_coded_by(mode) {
            format!("upload off the negotiated {} codec", mode.name())
        } else {
            return true;
        };
        faults.push(FaultEvent::new(id, FaultKind::FrameMalformed { detail }));
        false
    }

    /// Read one session's round response, skipping heartbeats. Returns the
    /// accepted update (if any); pushes faults/session events as they arise.
    /// `reference` is the round's reference model: a coded upload's delta
    /// payload is folded back onto it, reconstructing the dense update
    /// bit-identically to what the in-process oracle produces; a dense
    /// upload is moved into the sink as it is.
    #[allow(clippy::too_many_arguments)]
    fn collect_response(
        stream: &mut TcpStream,
        id: usize,
        round: usize,
        active: bool,
        mode: Compression,
        reference: &[f32],
        wire: &WireConfig,
        stats: &mut WireStats,
        faults: &mut Vec<FaultEvent>,
        sessions: &mut Vec<SessionEvent>,
    ) -> (Option<ModelUpdate>, bool) {
        // Returns (update, session_still_alive).
        loop {
            match rx_frame(stream, wire, stats) {
                Ok(Message::Heartbeat { .. }) => {
                    sessions.push(SessionEvent::new(id, SessionEventKind::Heartbeat));
                }
                Ok(Message::Upload { round: r, update }) if r as usize == round => {
                    let ok = Self::upload_admissible(&update, id, active, mode, faults);
                    return (ok.then(|| update.into_update(reference)), true);
                }
                Ok(Message::Decline { round: r }) if r as usize == round => {
                    if active {
                        // An active client refusing to train is, from the
                        // round's perspective, a dropout.
                        faults.push(FaultEvent::new(id, FaultKind::Dropout));
                    }
                    return (None, true);
                }
                Ok(Message::Leave { .. }) => {
                    sessions.push(SessionEvent::new(id, SessionEventKind::Leave));
                    if active {
                        faults.push(FaultEvent::new(id, FaultKind::Dropout));
                    }
                    return (None, false);
                }
                Ok(other) => {
                    faults.push(FaultEvent::new(
                        id,
                        FaultKind::FrameMalformed {
                            detail: format!("unexpected {} frame in round {round}", other.name()),
                        },
                    ));
                    return (None, true);
                }
                Err(e) => {
                    if active {
                        faults.push(FaultEvent::new(id, e.to_fault_kind()));
                    }
                    sessions.push(SessionEvent::new(id, SessionEventKind::Drop));
                    return (None, false);
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn exchange_round_streamed(
        &mut self,
        offer: &RoundOffer<'_>,
        sink: &mut dyn FnMut(ModelUpdate),
    ) -> ExchangeTail {
        let _span = span("net.exchange_round");
        self.poll_joins();
        let mut stats = WireStats { round: offer.round, ..WireStats::default() };
        let mut exchange = ExchangeTail::default();
        exchange.sessions.append(&mut self.pending_events);
        let active: HashSet<usize> = offer.active.iter().copied().collect();

        // Fan the work order out to every sampled session, each frame
        // streamed from the round's one payload (the borrowed global, or the
        // one coded blob); no frame is built whole. The broadcast's decoding
        // is the reference model (what every client will actually receive)
        // for the whole round.
        let start = RoundBroadcast::new(self.compression, offer.round as u64, offer.global);
        let model_bytes = offer.global.len() as u64 * 4;
        let mut notified: Vec<usize> = Vec::with_capacity(offer.sampled.len());
        for &id in offer.sampled {
            let participate = active.contains(&id);
            let Some(stream) = self.sessions.get_mut(&id) else {
                // Never joined (or already gone). The round loop has already
                // recorded scheduled dropouts; only an *active* client going
                // missing is transport-observed loss.
                if participate {
                    exchange.faults.push(FaultEvent::new(id, FaultKind::Dropout));
                }
                continue;
            };
            match tx_frame(stream, model_bytes, &mut stats, |w| {
                write_frame(w, start.frame(participate))
            }) {
                Ok(()) => notified.push(id),
                Err(_) => {
                    if participate {
                        exchange.faults.push(FaultEvent::new(id, FaultKind::Dropout));
                    }
                    exchange.sessions.push(SessionEvent::new(id, SessionEventKind::Drop));
                    self.sessions.remove(&id);
                }
            }
        }

        // Collect responses in client-id order — the canonical arrival order
        // the oracle produces — handing each upload to the sink as it is
        // read, so the server holds one update at a time. Uploads from other
        // sessions simply wait in their kernel buffers until their turn.
        for id in notified {
            let Some(stream) = self.sessions.get_mut(&id) else { continue };
            let (update, alive) = Self::collect_response(
                stream,
                id,
                offer.round,
                active.contains(&id),
                self.compression,
                start.reference(),
                &self.cfg.wire,
                &mut stats,
                &mut exchange.faults,
                &mut exchange.sessions,
            );
            if let Some(update) = update {
                sink(update);
            }
            if !alive {
                self.sessions.remove(&id);
            }
        }
        self.wire_log.lock().push(stats);
        exchange
    }

    fn finish(&mut self) -> Vec<SessionEvent> {
        let _span = span("net.finish");
        let mut events = std::mem::take(&mut self.pending_events);
        let mut stats = WireStats { round: usize::MAX, ..WireStats::default() };
        let sessions = std::mem::take(&mut self.sessions);
        for (id, mut stream) in sessions {
            if tx_msg(&mut stream, &Message::Shutdown, &mut stats).is_err() {
                events.push(SessionEvent::new(id, SessionEventKind::Drop));
                continue;
            }
            // Drain until the orderly Leave (skipping piled-up heartbeats).
            loop {
                match rx_frame(&mut stream, &self.cfg.wire, &mut stats) {
                    Ok(Message::Heartbeat { .. }) => {
                        events.push(SessionEvent::new(id, SessionEventKind::Heartbeat));
                    }
                    Ok(Message::Leave { .. }) => {
                        events.push(SessionEvent::new(id, SessionEventKind::Leave));
                        break;
                    }
                    Ok(_) | Err(_) => {
                        events.push(SessionEvent::new(id, SessionEventKind::Drop));
                        break;
                    }
                }
            }
        }
        if stats.frames_tx > 0 || stats.frames_rx > 0 {
            self.wire_log.lock().push(stats);
        }
        if let Some(admin) = &self.admin {
            let mut admin = admin.lock();
            admin.state().set_sessions(0);
            admin.poll();
        }
        events
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// A remote client's session with the server: the TCP [`ClientChannel`].
pub struct TcpClientChannel {
    stream: TcpStream,
    client_id: usize,
    cfg: NetConfig,
    welcome_param_len: u64,
    welcome_blob: String,
    /// Wire-compression mode negotiated in `Welcome`; the server's resolved
    /// mode is authoritative.
    compression: Compression,
    /// The exact global this client received in the last round directive —
    /// the reference its next upload's delta is encoded against. Kept only
    /// when a coded uplink needs it.
    reference: Vec<f32>,
    stats: WireStats,
}

impl TcpClientChannel {
    /// Connect to `addr` (retrying until the join timeout — the server may
    /// not be listening yet) and complete the `Join`/`Welcome` handshake.
    pub fn connect(
        addr: impl ToSocketAddrs + Clone,
        client_id: usize,
        cfg: NetConfig,
    ) -> Result<Self, WireError> {
        let deadline = Instant::now() + cfg.join_timeout;
        let mut stream = loop {
            match TcpStream::connect(addr.clone()) {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(WireError::Io(e.kind()));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        };
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        stream.set_write_timeout(Some(cfg.write_timeout))?;
        stream.set_nodelay(true).ok();
        let mut stats = WireStats::default();
        let join = Message::Join { client_id: client_id as u64, protocol: PROTOCOL_VERSION };
        tx_msg(&mut stream, &join, &mut stats)?;
        match rx_frame(&mut stream, &cfg.wire, &mut stats)? {
            Message::Welcome { param_len, compression, blob } => Ok(TcpClientChannel {
                stream,
                client_id,
                cfg,
                welcome_param_len: param_len,
                welcome_blob: blob,
                compression,
                reference: Vec::new(),
                stats,
            }),
            _ => Err(WireError::Malformed("expected Welcome after Join")),
        }
    }

    /// The wire-compression mode negotiated in `Welcome`.
    pub fn compression(&self) -> Compression {
        self.compression
    }

    /// The global parameter count announced by the server.
    pub fn param_len(&self) -> u64 {
        self.welcome_param_len
    }

    /// The server's opaque welcome payload (the serialized experiment
    /// configuration in the shipped bins).
    pub fn welcome_blob(&self) -> &str {
        &self.welcome_blob
    }

    /// Cumulative wire traffic of this session so far.
    pub fn stats(&self) -> WireStats {
        self.stats
    }

    fn send(&mut self, msg: &Message) -> Result<(), WireError> {
        tx_msg(&mut self.stream, msg, &mut self.stats)
    }
}

impl ClientChannel for TcpClientChannel {
    fn request_round(&mut self) -> Result<Directive, WireError> {
        // Idle loop: wait in heartbeat-sized slices so the server sees
        // liveness, up to the overall read deadline. (A timeout can only
        // fire between frames here — the server writes each directive as one
        // uninterrupted frame, so a mid-frame stall means a dead peer and
        // the resulting desync error is the right outcome.)
        self.stream.set_read_timeout(Some(self.cfg.heartbeat_interval))?;
        let deadline = Instant::now() + self.cfg.read_timeout;
        let result = loop {
            match rx_frame(&mut self.stream, &self.cfg.wire, &mut self.stats) {
                Ok(Message::RoundStart { round, participate, global }) => {
                    // The decoded broadcast is both the model to train on
                    // and the reference for this round's delta encoding —
                    // exactly what the server reconstructs on its side.
                    break accept_broadcast(self.compression, global, &mut self.reference).map(
                        |global| Directive::Round { round: round as usize, participate, global },
                    );
                }
                Ok(Message::Shutdown) => break Ok(Directive::Shutdown),
                Ok(_) => break Err(WireError::Malformed("unexpected frame while awaiting round")),
                Err(ref e) if e.is_timeout() => {
                    if Instant::now() >= deadline {
                        break Err(WireError::Io(std::io::ErrorKind::TimedOut));
                    }
                    let hb = Message::Heartbeat { client_id: self.client_id as u64 };
                    if let Err(e) = self.send(&hb) {
                        break Err(e);
                    }
                }
                Err(e) => break Err(e),
            }
        };
        self.stream.set_read_timeout(Some(self.cfg.read_timeout))?;
        result
    }

    fn upload_update(&mut self, round: usize, update: &ModelUpdate) -> Result<(), WireError> {
        // Streamed straight from the borrowed update (dense) or from its
        // coded form.
        let (mode, reference) = (self.compression, &self.reference);
        tx_frame(&mut self.stream, update.wire_bytes(), &mut self.stats, |w| {
            write_upload(w, mode, round as u64, update, reference)
        })
    }

    fn decline_round(&mut self, round: usize) -> Result<(), WireError> {
        self.send(&Message::Decline { round: round as u64 })
    }

    fn leave(&mut self) -> Result<(), WireError> {
        self.send(&Message::Leave { client_id: self.client_id as u64 })
    }
}

/// Outcome of one remote client's full run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientRunReport {
    /// Rounds this client trained and uploaded for.
    pub rounds_participated: usize,
    /// Rounds this client was told to sit out (scheduled dropout).
    pub rounds_declined: usize,
}

/// Drive one client through a full federated run: request directives, train
/// and upload (applying `interceptor` exactly where the oracle's
/// `LocalTransport` applies it), decline scheduled dropouts, leave on
/// shutdown. This is the loop `fed_client` runs.
pub fn run_federated_client(
    channel: &mut dyn ClientChannel,
    client: &mut Client,
    interceptor: &dyn crate::client::UpdateInterceptor,
) -> Result<ClientRunReport, WireError> {
    let mut report = ClientRunReport::default();
    loop {
        match channel.request_round()? {
            Directive::Round { round, participate: true, global } => {
                let mut update = {
                    let _span = span("client.train");
                    client.train_round(&global, round)
                };
                interceptor.intercept(&mut update, round);
                channel.upload_update(round, &update)?;
                report.rounds_participated += 1;
            }
            Directive::Round { round, participate: false, .. } => {
                channel.decline_round(round)?;
                report.rounds_declined += 1;
            }
            Directive::Shutdown => {
                channel.leave()?;
                return Ok(report);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NoAttack;
    use crate::compress::{compress_update, compress_vec};
    use crate::config::LocalTrainConfig;
    use crate::transport::RoundExchange;
    use crate::wire::{encode_round_start, encode_upload};
    use fg_data::synth::generate_dataset;
    use fg_nn::models::ClassifierSpec;
    use fg_tensor::rng::SeededRng;

    fn fast_cfg() -> NetConfig {
        NetConfig {
            read_timeout: Duration::from_secs(20),
            write_timeout: Duration::from_secs(10),
            join_timeout: Duration::from_secs(10),
            heartbeat_interval: Duration::from_secs(5),
            wire: WireConfig::default(),
        }
    }

    fn toy_client(id: usize) -> Client {
        Client::new(
            id,
            generate_dataset(3, 40 + id as u64),
            ClassifierSpec::Mlp { hidden: 8 },
            LocalTrainConfig { epochs: 1, batch_size: 8, lr: 0.05, momentum: 0.0 },
            None,
            SeededRng::new(7).fork(id as u64).seed(),
        )
    }

    fn bind_server(expected: usize) -> (TcpTransport, SocketAddr) {
        let t = TcpTransport::bind("127.0.0.1:0", expected, 13, "cfg-blob".to_string(), fast_cfg())
            .expect("bind loopback");
        let addr = t.local_addr().unwrap();
        (t, addr)
    }

    #[test]
    fn loopback_round_trip_with_two_clients() {
        let (mut server, addr) = bind_server(2);
        let workers: Vec<_> = (0..2)
            .map(|id| {
                std::thread::spawn(move || {
                    let mut ch = TcpClientChannel::connect(addr, id, fast_cfg()).expect("connect");
                    assert_eq!(ch.param_len(), 13);
                    assert_eq!(ch.welcome_blob(), "cfg-blob");
                    let mut client = toy_client(id);
                    run_federated_client(&mut ch, &mut client, &NoAttack).expect("client run")
                })
            })
            .collect();

        server.wait_for_clients().expect("both clients join");
        assert_eq!(server.joined(), vec![0, 1]);
        let wire_log = server.wire_log();

        let psi = fg_nn::models::Classifier::new(
            &ClassifierSpec::Mlp { hidden: 8 },
            &mut SeededRng::new(0),
        )
        .get_params()
        .len();
        let global = vec![0.25f32; psi];

        let sampled = vec![0usize, 1];
        let active = vec![0usize]; // client 1 is a scheduled dropout
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &active };
        let exchange = server.exchange_round(&offer);
        assert_eq!(exchange.updates.len(), 1);
        assert_eq!(exchange.updates[0].client_id, 0);
        assert_eq!(exchange.updates[0].params.len(), psi);
        assert!(exchange.faults.is_empty(), "{:?}", exchange.faults);
        // Both clients joined during setup.
        let joins = exchange.sessions.iter().filter(|e| e.kind == SessionEventKind::Join).count();
        assert_eq!(joins, 2);

        // Round 2: everyone trains.
        let active = vec![0usize, 1];
        let offer = RoundOffer { round: 1, global: &global, sampled: &sampled, active: &active };
        let exchange = server.exchange_round(&offer);
        let ids: Vec<usize> = exchange.updates.iter().map(|u| u.client_id).collect();
        assert_eq!(ids, vec![0, 1]);

        let finish_events = server.finish();
        let leaves = finish_events.iter().filter(|e| e.kind == SessionEventKind::Leave).count();
        assert_eq!(leaves, 2);

        let reports: Vec<ClientRunReport> =
            workers.into_iter().map(|w| w.join().expect("client thread")).collect();
        assert_eq!(reports[0], ClientRunReport { rounds_participated: 2, rounds_declined: 0 });
        assert_eq!(reports[1], ClientRunReport { rounds_participated: 1, rounds_declined: 1 });

        // Wire accounting: round 0 sent the global to both sampled clients
        // (dropout included — that is how the paper counts uploads) and
        // received exactly one model update.
        let log = wire_log.lock();
        let r0 = log.iter().find(|s| s.round == 0).expect("round 0 stats");
        assert_eq!(r0.model_bytes_tx, psi as u64 * 4 * 2);
        assert_eq!(r0.model_bytes_rx, psi as u64 * 4);
        let r1 = log.iter().find(|s| s.round == 1).expect("round 1 stats");
        assert_eq!(r1.model_bytes_rx, psi as u64 * 4 * 2);
    }

    #[test]
    fn uploads_reach_the_sink_one_at_a_time_in_id_order() {
        let (mut server, addr) = bind_server(2);
        // Client 2 holds its first upload back until the sink has seen
        // client 0's: a transport that read every upload before sinking any
        // would stall here until the read deadline.
        let (sink_saw_first, gate) = std::sync::mpsc::channel::<()>();
        let mut gate = Some(gate);
        let workers: Vec<_> = [0usize, 2]
            .into_iter()
            .map(|id| {
                let gate = if id == 2 { gate.take() } else { None };
                std::thread::spawn(move || {
                    let mut ch = TcpClientChannel::connect(addr, id, fast_cfg()).expect("connect");
                    loop {
                        match ch.request_round().expect("directive") {
                            Directive::Round { round, global, .. } => {
                                if let (0, Some(gate)) = (round, &gate) {
                                    gate.recv().expect("sink saw client 0");
                                }
                                let update = ModelUpdate {
                                    client_id: id,
                                    params: global,
                                    num_samples: 1 + id,
                                    decoder: None,
                                    class_coverage: None,
                                };
                                ch.upload_update(round, &update).expect("upload");
                            }
                            Directive::Shutdown => return ch.leave().expect("leave"),
                        }
                    }
                })
            })
            .collect();
        server.wait_for_clients().expect("both clients join");

        let global = vec![0.5f32; 6];
        let sampled = vec![0usize, 1, 2]; // 1 never joined: a transport-observed dropout
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &sampled };
        let mut seen = Vec::new();
        let tail = server.exchange_round_streamed(&offer, &mut |update| {
            assert_eq!(update.params, global);
            if update.client_id == 0 {
                sink_saw_first.send(()).expect("client 2 is waiting");
            }
            seen.push(update.client_id);
        });
        assert_eq!(seen, vec![0, 2]);
        assert_eq!(tail.faults, vec![FaultEvent::new(1, FaultKind::Dropout)]);
        let joins = tail.sessions.iter().filter(|e| e.kind == SessionEventKind::Join).count();
        assert_eq!((joins, tail.sessions.len()), (2, 2));

        // The provided collector reports the same round shape.
        let offer = RoundOffer { round: 1, ..offer };
        let exchange = server.exchange_round(&offer);
        let ids: Vec<usize> = exchange.updates.iter().map(|u| u.client_id).collect();
        assert_eq!(ids, seen);
        assert_eq!(exchange.faults, tail.faults);
        assert!(exchange.sessions.is_empty(), "{:?}", exchange.sessions);

        server.finish();
        workers.into_iter().for_each(|w| w.join().expect("client thread"));
    }

    #[test]
    fn malformed_frame_becomes_a_fault_not_a_panic() {
        let (mut server, addr) = bind_server(1);
        let evil = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let join = encode(&Message::Join { client_id: 0, protocol: PROTOCOL_VERSION });
            s.write_all(&join).unwrap();
            let wire_cfg = fast_cfg().wire;
            let _welcome = read_frame(&mut s, &wire_cfg).unwrap();
            // Await the round start, then answer with garbage bytes dressed
            // as a huge frame.
            let _round_start = read_frame(&mut s, &wire_cfg).unwrap();
            let mut bad = Vec::new();
            bad.extend_from_slice(&crate::wire::MAGIC.to_le_bytes());
            bad.push(4); // Upload kind
            bad.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
            s.write_all(&bad).unwrap();
            // Server should cut us off; swallow whatever happens next.
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let _ = read_frame(&mut s, &wire_cfg);
        });

        server.wait_for_clients().unwrap();
        let global = vec![0.0f32; 4];
        let sampled = vec![0usize];
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &sampled };
        let exchange = server.exchange_round(&offer);
        assert!(exchange.updates.is_empty());
        assert!(
            exchange
                .faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::FrameOversized { declared, .. } if declared == u32::MAX as u64)),
            "{:?}",
            exchange.faults
        );
        // The offending session was dropped.
        assert!(exchange.sessions.iter().any(|e| e.kind == SessionEventKind::Drop));
        assert!(server.joined().is_empty());
        server.finish();
        evil.join().unwrap();
    }

    #[test]
    fn disconnect_mid_round_maps_to_dropout() {
        let (mut server, addr) = bind_server(1);
        let quitter = std::thread::spawn(move || {
            let mut ch = TcpClientChannel::connect(addr, 3, fast_cfg()).unwrap();
            // Receive the round start, then vanish without a word.
            let d = ch.request_round().unwrap();
            assert!(matches!(d, Directive::Round { participate: true, .. }));
            drop(ch);
        });
        server.wait_for_clients().unwrap();
        let global = vec![1.0f32; 8];
        let sampled = vec![3usize];
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &sampled };
        let exchange = server.exchange_round(&offer);
        assert!(exchange.updates.is_empty());
        assert_eq!(
            exchange.faults,
            vec![FaultEvent::new(3, FaultKind::Dropout)],
            "disconnect should read as a dropout"
        );
        assert!(exchange.sessions.iter().any(|e| e.kind == SessionEventKind::Drop));
        quitter.join().unwrap();
        assert!(server.finish().is_empty());
    }

    #[test]
    fn never_joined_active_client_is_a_dropout() {
        let (mut server, _addr) = bind_server(0);
        let global = vec![0.0f32; 2];
        let sampled = vec![5usize, 6];
        let active = vec![5usize];
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &active };
        let exchange = server.exchange_round(&offer);
        // Active-but-absent 5 is a transport dropout; scheduled-dropout 6 is
        // already accounted by the round loop and must not double-report.
        assert_eq!(exchange.faults, vec![FaultEvent::new(5, FaultKind::Dropout)]);
    }

    fn submission(params: &[f32]) -> ModelUpdate {
        ModelUpdate {
            client_id: 0,
            params: params.to_vec(),
            num_samples: 1,
            decoder: None,
            class_coverage: None,
        }
    }

    /// Builds a raw client's upload frame from the params it submits.
    type UploadFrame = fn(&[f32]) -> Vec<u8>;

    /// Join a `mode` server as client 0 on a raw socket, answer the first
    /// round start with the frame `upload` builds from the submitted params,
    /// and return the server's side of that round.
    fn answer_round_with(mode: Compression, upload: UploadFrame) -> RoundExchange {
        let (server, addr) = bind_server(1);
        let mut server = server.with_compression(mode);
        let raw = std::thread::spawn(move || {
            let wire_cfg = fast_cfg().wire;
            let mut s = TcpStream::connect(addr).unwrap();
            let join = encode(&Message::Join { client_id: 0, protocol: PROTOCOL_VERSION });
            s.write_all(&join).unwrap();
            let _welcome = read_frame(&mut s, &wire_cfg).unwrap();
            let _round_start = read_frame(&mut s, &wire_cfg).unwrap();
            s.write_all(&upload(&[0.25; 4])).unwrap();
            // Hang up once the server shuts the run down.
            let _ = read_frame(&mut s, &wire_cfg);
        });
        server.wait_for_clients().unwrap();
        let global = vec![0.5f32; 4];
        let sampled = vec![0usize];
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &sampled };
        let exchange = server.exchange_round(&offer);
        server.finish();
        raw.join().unwrap();
        exchange
    }

    #[test]
    fn uploads_off_the_negotiated_codec_are_malformed() {
        let int8 = Compression::Int8 { block: 64 };
        let off_codec: [(Compression, UploadFrame); 3] = [
            // A coded upload in a dense session.
            (Compression::None, |p| {
                let update = compress_update(Compression::Bf16, &submission(p), p);
                encode(&Message::Upload { round: 0, update })
            }),
            // A dense upload in an int8 session.
            (int8, |p| encode_upload(0, &submission(p))),
            // An int8 upload with another block size than the negotiated one.
            (int8, |p| {
                let update = compress_update(Compression::Int8 { block: 2 }, &submission(p), p);
                encode(&Message::Upload { round: 0, update })
            }),
        ];
        for (mode, upload) in off_codec {
            let exchange = answer_round_with(mode, upload);
            assert!(exchange.updates.is_empty(), "{}: an off-codec upload was sunk", mode.name());
            assert!(
                matches!(
                    &exchange.faults[..],
                    [FaultEvent { client_id: 0, kind: FaultKind::FrameMalformed { detail } }]
                        if detail.contains("codec")
                ),
                "{}: {:?}",
                mode.name(),
                exchange.faults
            );
        }
        // The negotiated codec itself is accepted.
        let on_codec = answer_round_with(int8, |p| {
            let update = compress_update(Compression::Int8 { block: 64 }, &submission(p), p);
            encode(&Message::Upload { round: 0, update })
        });
        assert_eq!((on_codec.updates.len(), on_codec.faults.len()), (1, 0));
    }

    #[test]
    fn broadcasts_off_the_negotiated_codec_are_malformed() {
        let global = [0.5f32; 4];
        let bf16 = encode(&Message::RoundStart {
            round: 0,
            participate: true,
            global: compress_vec(Compression::Bf16, &global),
        });
        let off_codec = [
            // A dense broadcast in an int8 session (whose downlink is bf16).
            (Compression::Int8 { block: 64 }, encode_round_start(0, true, &global)),
            // A bf16 broadcast in a dense session.
            (Compression::None, bf16.clone()),
            // A bf16 broadcast in a top-k session (whose downlink is dense).
            (Compression::TopK { frac: 0.5 }, bf16),
        ];
        for (mode, frame) in off_codec {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                let _join = read_frame(&mut s, &fast_cfg().wire).unwrap();
                let welcome =
                    Message::Welcome { param_len: 4, compression: mode, blob: String::new() };
                s.write_all(&encode(&welcome)).unwrap();
                s.write_all(&frame).unwrap();
                s // held open until the client has judged the frame
            });
            let mut ch = TcpClientChannel::connect(addr, 0, fast_cfg()).expect("connect");
            assert_eq!(
                ch.request_round(),
                Err(WireError::Malformed("broadcast off the negotiated codec")),
                "{}",
                mode.name()
            );
            drop(server.join().unwrap());
        }
    }

    #[test]
    fn wire_stats_with_the_retired_header_byte_keys_still_parse() {
        let stats = WireStats {
            round: 3,
            frames_tx: 2,
            bytes_tx: 40,
            payload_bytes_tx: 22,
            ..WireStats::default()
        };
        // The two keys are spelled in pieces so a search for the retired
        // field names finds no live use.
        let retired = concat!("{\"header", "_bytes_tx\":18,\"header", "_bytes_rx\":0,");
        let older = serde_json::to_string(&stats).unwrap().replacen('{', retired, 1);
        assert_eq!(serde_json::from_str::<WireStats>(&older).unwrap(), stats);
    }

    #[test]
    fn a_client_cut_off_mid_upload_is_a_dropout_and_the_next_round_runs() {
        let (mut server, addr) = bind_server(2);
        let echo = |id: usize, params: Vec<f32>| ModelUpdate {
            client_id: id,
            params,
            num_samples: 1,
            decoder: None,
            class_coverage: None,
        };
        // Client 0 answers every round with the global it received.
        let steady = std::thread::spawn(move || {
            let mut ch = TcpClientChannel::connect(addr, 0, fast_cfg()).expect("connect");
            loop {
                match ch.request_round().expect("directive") {
                    Directive::Round { round, global, .. } => {
                        ch.upload_update(round, &echo(0, global)).expect("upload");
                    }
                    Directive::Shutdown => return ch.leave().expect("leave"),
                }
            }
        });
        // Client 1 sends its first upload's header and half its payload,
        // then hangs up.
        let quitter = std::thread::spawn(move || {
            let wire_cfg = fast_cfg().wire;
            let mut s = TcpStream::connect(addr).unwrap();
            let join = Message::Join { client_id: 1, protocol: PROTOCOL_VERSION };
            write_frame(&mut s, Frame::Message(&join)).unwrap();
            let _welcome = read_frame(&mut s, &wire_cfg).unwrap();
            let (start, _) = read_frame(&mut s, &wire_cfg).unwrap();
            let Message::RoundStart { global, .. } = start else { panic!("expected RoundStart") };
            let frame = encode_upload(0, &echo(1, global.into_vec()));
            s.write_all(&frame[..HEADER_BYTES + (frame.len() - HEADER_BYTES) / 2]).unwrap();
        });
        server.wait_for_clients().expect("both clients join");

        let global: Vec<f32> = (0..100_000).map(|i| i as f32).collect();
        let sampled = vec![0usize, 1];
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &sampled };
        let exchange = server.exchange_round(&offer);
        quitter.join().expect("quitter thread");
        let ids: Vec<usize> = exchange.updates.iter().map(|u| u.client_id).collect();
        assert_eq!(ids, vec![0]);
        assert_eq!(exchange.faults, vec![FaultEvent::new(1, FaultKind::Dropout)]);
        assert!(exchange.sessions.contains(&SessionEvent::new(1, SessionEventKind::Drop)));
        assert_eq!(server.joined(), vec![0]);

        // The next round runs with the session gone.
        let offer = RoundOffer { round: 1, ..offer };
        let exchange = server.exchange_round(&offer);
        assert_eq!(exchange.updates, vec![echo(0, global.clone())]);
        assert_eq!(exchange.faults, vec![FaultEvent::new(1, FaultKind::Dropout)]);
        server.finish();
        steady.join().expect("client thread");
    }
}
