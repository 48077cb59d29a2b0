//! # dmv-dst — deterministic fault-schedule explorer
//!
//! Simulation testing for the DMV cluster: seeded schedules interleave
//! workload operations with fault events (kill master/slave, crash
//! mid-broadcast, partition/heal, latency spikes, backend stalls) and
//! run against a real [`dmv_core::DmvCluster`] on the simulated network
//! with fault injection at the transport boundary. The same seed always
//! produces the same schedule, the same execution, and the same
//! byte-identical trace.
//!
//! * [`schedule`] — the event grammar and the seeded generator;
//! * [`harness`] — the single-threaded driver, trace recorder and the
//!   consistency oracles (exact-prefix reads, gapless commits,
//!   monotone per-client tags, heal+drain convergence, on-disk replay
//!   equality, stale readers abort rather than see the future);
//! * [`history`] — the [`dmv_core::TraceTap`] recorder;
//! * [`oracle`] — the exact bank model with per-version snapshots;
//! * [`mod@shrink`] — greedy delta-debugging by event deletion;
//! * [`repro`] — the text format for persisted failing schedules,
//!   loadable via `cargo xtask dst --repro <file>`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod harness;
pub mod history;
pub mod oracle;
pub mod repro;
pub mod schedule;
pub mod shrink;

pub use harness::{run_schedule, run_schedule_with_gc_mutation, RunReport};
pub use history::History;
pub use oracle::BankModel;
pub use repro::{from_repro, to_repro};
pub use schedule::{for_seed, Event, Schedule, ScheduleConfig, Workload};
pub use shrink::{shrink, shrink_with};
