//! `bench_e2e` — the repo's benchmark.
//!
//! Five seeded FedGuard workloads ([`spec::Workload`]), each a closed loop of
//! synchronous federated rounds driven through the system's public API, with
//! end-to-end metrics from an untraced timed pass ([`bench::run_timed`]) and
//! per-layer metrics from a separate traced pass plus outside-in layer
//! probes ([`bench::run_traced`], [`probes`]). `BENCHMARK.json` at the repo
//! root names the command, the workloads and every metric; see `README.md`
//! next to this crate's manifest for the tables.

pub mod bench;
pub mod env;
pub mod probes;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
