//! # fg-fl
//!
//! The federated-learning simulation framework of the FedGuard reproduction.
//! It plays the role the paper's Grid'5000 deployment plays: `N` clients
//! holding Dirichlet-partitioned data, a server that samples `m` of them per
//! round, local training (classifier always, CVAE when configured), pluggable
//! aggregation strategies, an update-interception hook for poisoning attacks,
//! byte-accurate communication accounting, one per-round record
//! ([`telemetry::RoundTelemetry`]) that is both the federation's history and
//! the event its composable observer sinks receive, a seeded
//! fault-injection layer ([`fault`]) with graceful round degradation
//! (sanitization, quorum, carry-forward) for chaos testing, and a pluggable
//! [`transport`] layer: the same round loop runs in-process
//! ([`transport::LocalTransport`], the deterministic oracle) or against
//! separate client processes over TCP ([`net`], speaking the length-prefixed
//! [`wire`] protocol).
//!
//! The crate knows nothing about specific defenses or attacks; those live in
//! `fg-agg`, `fg-defenses`, `fg-attacks` and `fedguard`, all plugging in via
//! [`strategy::AggregationStrategy`] and [`client::UpdateInterceptor`].

pub mod admin;
pub mod client;
pub mod comm;
pub mod compress;
pub mod config;
pub mod fault;
pub mod federation;
pub mod forensics;
pub mod net;
pub mod strategy;
pub mod telemetry;
pub mod transport;
pub mod update;
pub mod wire;

pub use admin::{AdminPlane, FlightRecTrigger, OpsObserver, OpsState};
pub use client::{Client, UpdateInterceptor};
pub use comm::CommStats;
pub use compress::{CompressedBlob, CompressedUpdate, Compression};
pub use config::{CvaeTrainConfig, FederationConfig, LocalTrainConfig, ResiliencePolicy};
pub use fault::{
    sanitize_one, sanitize_round, CorruptionMode, FaultConfig, FaultEvent, FaultKind, FaultPlan,
    SubmissionFaults,
};
pub use federation::{Federation, FederationBuilder};
pub use forensics::{
    ClientVerdict, DefenseConfusion, ExclusionCause, ForensicsLedger, RoundForensics,
};
pub use net::{
    run_federated_client, ClientRunReport, NetConfig, TcpClientChannel, TcpTransport, WireStats,
};
pub use strategy::{
    AggregationContext, AggregationOutcome, AggregationStrategy, StrategyTimings,
    StreamingAggregator,
};
pub use telemetry::{
    read_jsonl, JsonlSink, MemoryCollector, RoundObserver, RoundTelemetry, StageTimings,
    StderrProgress,
};
pub use transport::{
    ClientChannel, Directive, ExchangeTail, LocalTransport, RoundExchange, RoundOffer,
    SessionEvent, SessionEventKind, Transport, TransportKind,
};
pub use update::{ModelUpdate, UpdateRejection};
pub use wire::{Message, WireConfig, WireError};
