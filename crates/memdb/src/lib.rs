//! # dmv-memdb
//!
//! The in-memory, page-based database engine — this reproduction's
//! analogue of the paper's `REPLICATED_HEAP` storage manager (MySQL heap
//! tables made transactional at page granularity).
//!
//! * rows live in slotted **heap pages**; every index is a **page-based
//!   B+Tree**, so index maintenance is page modification and replicates
//!   exactly like row data ("replication is implemented at the level of
//!   physical memory modifications performed by the storage manager");
//! * update transactions write **private page copies** and install them
//!   at commit ([`mvcc`]); conflicts are found by **per-page two-phase
//!   locking** with timeout-based deadlock resolution
//!   ([`lock::LockManager`]) or by first-committer-wins validation;
//! * at pre-commit a transaction produces its **write-set**: one byte
//!   diff per written page ([`txn::Txn::precommit`]), which the
//!   replication layer versions and broadcasts;
//! * read-only transactions carry a **version tag** and read through a
//!   pluggable [`ReadGate`] that lazily materializes the tagged version
//!   of each page (implemented by `dmv-core`'s pending-update applier).
//!
//! ```
//! use dmv_memdb::{MemDb, MemDbOptions};
//! use dmv_sql::{Schema, TableSchema, Column, ColType, IndexDef, Query, execute};
//! use dmv_common::ids::TableId;
//!
//! # fn main() -> Result<(), dmv_common::DmvError> {
//! let schema = Schema::new(vec![TableSchema::new(
//!     TableId(0), "kv",
//!     vec![Column::new("k", ColType::Int), Column::new("v", ColType::Str)],
//!     vec![IndexDef::unique("pk", vec![0])],
//! )]);
//! let db = MemDb::new(schema, MemDbOptions::default());
//! let mut txn = db.begin_update();
//! execute(&mut txn, &Query::Insert { table: TableId(0), rows: vec![vec![1.into(), "x".into()]] })?;
//! let diffs = txn.precommit();
//! assert!(!diffs.is_empty());
//! txn.commit(None);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod engine;
pub mod heap;
pub mod index;
pub mod lock;
pub mod mvcc;
pub mod txn;

pub use engine::{MemDb, MemDbOptions, NoopGate, ReadGate};
pub use lock::{LockManager, LockMode};
pub use mvcc::MvccManager;
pub use txn::{StatementCost, Txn, TxnMode};
