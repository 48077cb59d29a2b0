//! # dmv — Dynamic Multiversioning for database server clusters
//!
//! Facade crate for the reproduction of *"Scaling and Continuous
//! Availability in Database Server Clusters through Multiversion
//! Replication"* (Manassiev & Amza, DSN 2007).
//!
//! The system interposes a replicated **in-memory** database tier between
//! the application and a traditional on-disk backend:
//!
//! * update transactions execute on a *master* replica under per-page
//!   two-phase locking and broadcast per-page diffs plus a per-table
//!   version vector at pre-commit;
//! * read-only transactions are tagged with the latest version vector by a
//!   *version-aware scheduler* and routed to slave replicas, which
//!   materialize the required page versions lazily;
//! * the scheduler feeds committed update queries asynchronously to an
//!   on-disk backend for durability.
//!
//! See the sub-crates re-exported below for details, and `DESIGN.md` /
//! `EXPERIMENTS.md` in the repository root for the experiment index.

pub use dmv_common as common;
pub use dmv_core as core;
pub use dmv_epoch as epoch;
pub use dmv_memdb as memdb;
pub use dmv_net as net;
pub use dmv_ondisk as ondisk;
pub use dmv_pagestore as pagestore;
pub use dmv_sql as sql;
pub use dmv_tpcw as tpcw;
