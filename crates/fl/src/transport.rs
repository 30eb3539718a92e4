//! The server↔client exchange as a pluggable `Transport`.
//!
//! [`Federation::run_round`](crate::Federation::run_round) no longer touches
//! clients directly: it hands the round's work order (a [`RoundOffer`]) and
//! a sink to a [`Transport`], which pushes each trained submission (a
//! [`ModelUpdate`]) into the sink as it arrives.
//! Everything else — sampling, the seeded fault schedule, transit-fault
//! injection, sanitization, aggregation — stays on the server side of the
//! trait, identical across deployments. That split is what makes the
//! in-process path the *oracle*: [`LocalTransport`] and
//! [`TcpTransport`](crate::net::TcpTransport) receive the same offers and
//! must deliver the same updates, so a seeded loopback run is bit-identical
//! to the single-process run (asserted in `tests/net_equivalence.rs`).
//!
//! Two implementations ship:
//! * [`LocalTransport`] — the classic simulation: clients live in this
//!   process and train on the rayon-shim worker pool.
//! * [`TcpTransport`](crate::net::TcpTransport) — clients are separate
//!   processes speaking the [`crate::wire`] protocol over TCP.
//!
//! The client side of the wire is the [`ClientChannel`] trait: a remote
//! client's round loop (`request_round` → train → `upload_update`) against
//! whatever carries the frames.

use crate::client::{Client, NoAttack, UpdateInterceptor};
use crate::compress::{broadcast, compress_update, decompress_update, Compression};
use crate::fault::FaultEvent;
use crate::update::ModelUpdate;
use crate::wire::WireError;
use parking_lot::Mutex;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which deployment carried a round's exchange; recorded in
/// [`RoundTelemetry`](crate::telemetry::RoundTelemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportKind {
    /// In-process clients on the worker pool (the simulation oracle).
    #[default]
    Local,
    /// Separate client processes over TCP ([`crate::net`]).
    Tcp,
}

impl TransportKind {
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Local => "local",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// A client-session lifecycle incident observed by the transport during one
/// round (or during setup, attributed to the first round). The local
/// transport never emits any; the TCP transport records joins, idle-period
/// heartbeats, orderly leaves and mid-round connection drops.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionEvent {
    pub client_id: usize,
    pub kind: SessionEventKind,
}

impl SessionEvent {
    pub fn new(client_id: usize, kind: SessionEventKind) -> Self {
        SessionEvent { client_id, kind }
    }
}

/// What happened to the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionEventKind {
    /// The client connected and completed the join handshake.
    Join,
    /// A liveness heartbeat arrived while the server awaited a submission.
    Heartbeat,
    /// The connection died (EOF, reset, timeout); the session is gone.
    Drop,
    /// The client closed its session in an orderly fashion.
    Leave,
}

/// One round's work order, assembled by the server's round loop.
///
/// `sampled` is every client drawn into the round; `active` is the subset
/// the seeded fault plan did **not** schedule to drop out — only they train.
/// Both are sorted ascending. The distinction matters on the wire: a TCP
/// server still notifies scheduled dropouts (with `participate = false`) so
/// the paper's upload accounting (`m × ψ` including dropouts) holds, but the
/// client must not train, keeping its decoder cache bit-identical to the
/// in-process run.
pub struct RoundOffer<'a> {
    pub round: usize,
    pub global: &'a [f32],
    pub sampled: &'a [usize],
    pub active: &'a [usize],
}

/// A whole round's exchange collected into one value — what the provided
/// [`Transport::exchange_round`] returns.
///
/// `updates` holds one trained (and possibly attack-intercepted) submission
/// per active client that actually delivered, **sorted by client id** — the
/// order the sink saw them. `faults` and `sessions` are the
/// [`ExchangeTail`].
#[derive(Debug, Default)]
pub struct RoundExchange {
    pub updates: Vec<ModelUpdate>,
    pub faults: Vec<FaultEvent>,
    pub sessions: Vec<SessionEvent>,
}

/// What an exchange reports besides the updates themselves, returned by
/// [`Transport::exchange_round_streamed`] after the last submission has been
/// pushed into the sink. `faults` carries transport-observed losses (e.g. a
/// TCP disconnect mid-round → `Dropout`, a malformed frame →
/// `FrameMalformed`); the local transport never loses a submission.
/// `sessions` carries the round's session-lifecycle events.
#[derive(Debug, Default)]
pub struct ExchangeTail {
    pub faults: Vec<FaultEvent>,
    pub sessions: Vec<SessionEvent>,
}

/// Server-side transport: delivers the global model to the round's clients
/// and collects their submissions. Implementations must deliver updates in
/// ascending client id, each active client at most once, and must not
/// reorder, drop, or synthesize submissions beyond what they report as
/// faults.
pub trait Transport: Send {
    /// Which deployment this is (stamped into telemetry).
    fn kind(&self) -> TransportKind;

    /// Run one round's exchange, handing each submission to `sink` in
    /// ascending client id as it becomes available, so the server
    /// sanitizes and folds (or buffers) one arrival at a time.
    fn exchange_round_streamed(
        &mut self,
        offer: &RoundOffer<'_>,
        sink: &mut dyn FnMut(ModelUpdate),
    ) -> ExchangeTail;

    /// [`exchange_round_streamed`](Transport::exchange_round_streamed)
    /// collected into a [`RoundExchange`] — for callers that want the whole
    /// round in hand (tests, benches).
    fn exchange_round(&mut self, offer: &RoundOffer<'_>) -> RoundExchange {
        let mut updates = Vec::with_capacity(offer.active.len());
        let ExchangeTail { faults, sessions } =
            self.exchange_round_streamed(offer, &mut |u| updates.push(u));
        RoundExchange { updates, faults, sessions }
    }

    /// The run is over: release clients (a TCP transport sends `Shutdown`
    /// and drains `Leave`s). Returns the final session events.
    fn finish(&mut self) -> Vec<SessionEvent> {
        Vec::new()
    }
}

impl Transport for Box<dyn Transport> {
    fn kind(&self) -> TransportKind {
        (**self).kind()
    }

    fn exchange_round_streamed(
        &mut self,
        offer: &RoundOffer<'_>,
        sink: &mut dyn FnMut(ModelUpdate),
    ) -> ExchangeTail {
        (**self).exchange_round_streamed(offer, sink)
    }

    fn finish(&mut self) -> Vec<SessionEvent> {
        (**self).finish()
    }
}

/// The in-process deployment: clients live in this process, train in
/// parallel on the worker pool, and the attack interceptor runs right after
/// each client's training — exactly the classic simulation loop.
///
/// With a wire-compression mode set, clients train on the round's
/// [`broadcast`] reference and every submission makes the codec round trip
/// ([`compress_update`] → [`decompress_update`]) against it, exactly as over
/// TCP, where frames carry the blobs losslessly.
pub struct LocalTransport {
    clients: Vec<Mutex<Client>>,
    interceptor: Arc<dyn UpdateInterceptor>,
    compression: Compression,
}

impl LocalTransport {
    pub fn new(clients: Vec<Client>, interceptor: Arc<dyn UpdateInterceptor>) -> Self {
        LocalTransport {
            clients: clients.into_iter().map(Mutex::new).collect(),
            interceptor,
            compression: Compression::None,
        }
    }

    /// In-process clients with no attack.
    pub fn honest(clients: Vec<Client>) -> Self {
        Self::new(clients, Arc::new(NoAttack))
    }

    /// Set the wire-compression mode. Every round's broadcast and every
    /// submission then make the codec round trip.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }
}

impl Transport for LocalTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Local
    }

    fn exchange_round_streamed(
        &mut self,
        offer: &RoundOffer<'_>,
        sink: &mut dyn FnMut(ModelUpdate),
    ) -> ExchangeTail {
        // Parallel local training + attack interception. Each client trains
        // from its own forked RNG stream, so the result is bit-identical at
        // any thread count; the sort restores the canonical order the sink
        // is owed. When a compression mode is active, clients train on the
        // decoded broadcast and every submission makes the codec round trip
        // against it.
        let mode = self.compression;
        let reference = broadcast(mode, offer.global).map(|(_, reference)| reference);
        let reference = reference.as_deref().unwrap_or(offer.global);
        let clients = &self.clients;
        let interceptor = &self.interceptor;
        let mut arrivals: Vec<ModelUpdate> = offer
            .active
            .par_iter()
            .map(|&id| {
                let _span = fg_obs::span::span("client.train");
                let mut client = clients[id].lock();
                let mut update = client.train_round(reference, offer.round);
                interceptor.intercept(&mut update, offer.round);
                if mode == Compression::None {
                    update
                } else {
                    decompress_update(&compress_update(mode, &update, reference), reference)
                }
            })
            .collect();
        arrivals.sort_by_key(|u| u.client_id);
        arrivals.into_iter().for_each(sink);
        ExchangeTail::default()
    }
}

/// What the server told a connected client to do next.
#[derive(Clone, Debug, PartialEq)]
pub enum Directive {
    /// Train for `round` from `global` and upload — unless `participate` is
    /// false (the seeded fault plan scheduled this client to drop out), in
    /// which case decline without training.
    Round { round: usize, participate: bool, global: Vec<f32> },
    /// The run is over; send `Leave` and close.
    Shutdown,
}

/// Client-side handle on the server: the counterpart of [`Transport`], used
/// by a remote client's round loop (`crate::net::run_federated_client`).
pub trait ClientChannel {
    /// Block (with the channel's read deadline, sending heartbeats while
    /// idle) until the server issues the next [`Directive`].
    fn request_round(&mut self) -> Result<Directive, WireError>;

    /// Deliver the trained submission for `round`.
    fn upload_update(&mut self, round: usize, update: &ModelUpdate) -> Result<(), WireError>;

    /// Tell the server there will be no submission for `round`.
    fn decline_round(&mut self, round: usize) -> Result<(), WireError>;

    /// Close the session in an orderly fashion.
    fn leave(&mut self) -> Result<(), WireError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LocalTrainConfig;
    use fg_data::synth::generate_dataset;
    use fg_nn::models::{Classifier, ClassifierSpec};
    use fg_tensor::rng::SeededRng;

    fn toy_clients(n: usize) -> Vec<Client> {
        (0..n)
            .map(|id| {
                Client::new(
                    id,
                    generate_dataset(4, 10 + id as u64),
                    ClassifierSpec::Mlp { hidden: 12 },
                    LocalTrainConfig { epochs: 1, batch_size: 8, lr: 0.05, momentum: 0.0 },
                    None,
                    SeededRng::new(99).fork(id as u64).seed(),
                )
            })
            .collect()
    }

    fn toy_global() -> Vec<f32> {
        Classifier::new(&ClassifierSpec::Mlp { hidden: 12 }, &mut SeededRng::new(0)).get_params()
    }

    #[test]
    fn local_transport_trains_active_clients_in_id_order() {
        let mut t = LocalTransport::honest(toy_clients(5));
        assert_eq!(t.kind(), TransportKind::Local);
        let global = toy_global();
        let sampled = vec![0, 2, 3, 4];
        let active = vec![4, 0, 3]; // deliberately unsorted; 2 "dropped out"
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &active };
        let exchange = t.exchange_round(&offer);
        let ids: Vec<usize> = exchange.updates.iter().map(|u| u.client_id).collect();
        assert_eq!(ids, vec![0, 3, 4]);
        assert!(exchange.faults.is_empty());
        assert!(exchange.sessions.is_empty());
        assert!(t.finish().is_empty());
    }

    #[test]
    fn local_transport_is_deterministic() {
        let global = toy_global();
        let sampled = vec![0, 1, 2];
        let offer = RoundOffer { round: 1, global: &global, sampled: &sampled, active: &sampled };
        let a = LocalTransport::honest(toy_clients(3)).exchange_round(&offer);
        let b = LocalTransport::honest(toy_clients(3)).exchange_round(&offer);
        assert_eq!(a.updates, b.updates);
    }

    #[test]
    fn compressed_exchange_round_trips_the_codec() {
        let global = toy_global();
        let sampled = vec![0, 1, 2];
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &sampled };
        let plain = LocalTransport::honest(toy_clients(3)).exchange_round(&offer);
        for mode in
            [Compression::Bf16, Compression::Int8 { block: 64 }, Compression::TopK { frac: 0.25 }]
        {
            let mut t = LocalTransport::honest(toy_clients(3)).with_compression(mode);
            assert_eq!(t.compression, mode);
            let exchange = t.exchange_round(&offer);
            let ids: Vec<usize> = exchange.updates.iter().map(|u| u.client_id).collect();
            assert_eq!(ids, sampled, "{}: id order", mode.name());
            for (lossy, dense) in exchange.updates.iter().zip(&plain.updates) {
                assert_eq!(lossy.params.len(), dense.params.len());
                assert_eq!(lossy.num_samples, dense.num_samples);
                assert!(lossy.params.iter().all(|x| x.is_finite()), "{}: finite", mode.name());
                // Lossy, but close: the codec quantizes a one-round delta.
                let drift = lossy
                    .params
                    .iter()
                    .zip(&dense.params)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                assert!(drift < 0.05, "{}: max drift {drift} too large", mode.name());
            }
        }
    }

    #[test]
    fn topk_exchange_reconstructs_against_the_dense_downlink_bitwise() {
        // Top-k rides a dense downlink, so the plain and the top-k exchange
        // train on the same global: each top-k arrival is the codec round
        // trip of the plain update against it, bit for bit.
        let mode = Compression::TopK { frac: 0.2 };
        let global = toy_global();
        let sampled = vec![0, 1, 2];
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &sampled };
        let plain = LocalTransport::honest(toy_clients(3)).exchange_round(&offer);
        let topk =
            LocalTransport::honest(toy_clients(3)).with_compression(mode).exchange_round(&offer);
        assert_eq!(topk.updates.len(), plain.updates.len());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (got, dense) in topk.updates.iter().zip(&plain.updates) {
            let want = decompress_update(&compress_update(mode, dense, &global), &global);
            assert_eq!(*got, want);
            assert_eq!(bits(&got.params), bits(&want.params), "client {}", got.client_id);
        }
    }

    #[test]
    fn interceptor_runs_inside_the_exchange() {
        struct Mark;
        impl UpdateInterceptor for Mark {
            fn intercept(&self, update: &mut ModelUpdate, _round: usize) {
                if update.client_id == 1 {
                    update.params.iter_mut().for_each(|x| *x = 7.0);
                }
            }
            fn malicious_clients(&self) -> Vec<usize> {
                vec![1]
            }
        }
        let mut t = LocalTransport::new(toy_clients(2), Arc::new(Mark));
        let global = toy_global();
        let sampled = vec![0, 1];
        let offer = RoundOffer { round: 0, global: &global, sampled: &sampled, active: &sampled };
        let exchange = t.exchange_round(&offer);
        assert!(exchange.updates[1].params.iter().all(|&x| x == 7.0));
        assert!(exchange.updates[0].params.iter().any(|&x| x != 7.0));
    }

    #[test]
    fn session_events_serialize_under_the_v2_schema() {
        let events = vec![
            SessionEvent::new(0, SessionEventKind::Join),
            SessionEvent::new(1, SessionEventKind::Heartbeat),
            SessionEvent::new(2, SessionEventKind::Drop),
            SessionEvent::new(0, SessionEventKind::Leave),
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<SessionEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
        assert_eq!(TransportKind::default(), TransportKind::Local);
        let kind: TransportKind = serde_json::from_str("\"Tcp\"").unwrap();
        assert_eq!(kind, TransportKind::Tcp);
        assert_eq!(kind.name(), "tcp");
    }
}
