//! # dmv-core — Dynamic Multiversioning
//!
//! The paper's primary contribution: a replicated in-memory database
//! middleware tier providing 1-copy serializability, read scaling and
//! split-second fail-over on top of commodity hardware.
//!
//! * [`messages`] — the replication protocol (write-sets carrying
//!   per-page diffs and the per-table `DBVersion` vector, migration page
//!   batches, warmup hints, failure-cleanup control messages);
//! * [`applier`] — per-page pending-update queues with **lazy version
//!   materialization** and the version-conflict abort rule (§2.2);
//! * [`replica`] — a replica node: master commit pipeline (Figure 2),
//!   tagged slave reads, promotion, checkpointing, migration endpoints;
//! * [`reuse`] — a slave's stored answers to tagged selects, keyed by
//!   the select and the versions of the tables it reads;
//! * [`scheduler`] — the version-aware scheduler: conflict-class routing
//!   of updates, version tagging and same-version read routing,
//!   asynchronous persistence feed (§4.6), takeover (§4.1);
//! * [`membership`] — the one topology (masters, slaves, spares) every
//!   scheduler routes by, and the only code that changes it: master
//!   fail-over, slave failure, spare activation, joining (§4.1–4.4);
//! * [`cluster`] — orchestration: build/monitor/reconfigure the tier,
//!   data migration for stale-node reintegration (§4.4), client
//!   sessions.
//!
//! ```no_run
//! use dmv_core::cluster::{ClusterSpec, DmvCluster};
//! use dmv_sql::{Schema, TableSchema, Column, ColType, IndexDef, Query};
//! use dmv_common::ids::TableId;
//!
//! # fn main() -> Result<(), dmv_common::DmvError> {
//! let schema = Schema::new(vec![TableSchema::new(
//!     TableId(0), "kv",
//!     vec![Column::new("k", ColType::Int), Column::new("v", ColType::Str)],
//!     vec![IndexDef::unique("pk", vec![0])],
//! )]);
//! let mut spec = ClusterSpec::fast_test(schema);
//! spec.n_slaves = 2;
//! let cluster = DmvCluster::start(spec);
//! cluster.finish_load();
//! let session = cluster.session();
//! session.update(&[Query::Insert { table: TableId(0), rows: vec![vec![1.into(), "x".into()]] }])?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod ack;
pub mod applier;
pub mod cluster;
pub mod contention;
pub mod membership;
pub mod messages;
pub mod replica;
pub mod reuse;
pub mod scheduler;
pub mod trace;

pub use ack::AckTracker;
pub use applier::PendingApplier;
pub use cluster::{ClusterSpec, DmvCluster, MigrationReport, Session};
pub use contention::ContentionManager;
pub use membership::{Membership, Topology};
pub use messages::{Msg, PageBatch, WriteSet, WriteSetBatch};
pub use replica::{ReplicaConfig, ReplicaNode};
pub use reuse::ResultStore;
pub use scheduler::{Scheduler, SchedulerConfig, WarmupStrategy};
pub use trace::{SharedTap, TraceEvent, TraceTap};
