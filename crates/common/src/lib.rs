//! # dmv-common
//!
//! Shared foundation for the Dynamic Multiversioning (DMV) reproduction:
//! node/table/page/transaction identifiers, the per-table database
//! **version vector** that drives the replication protocol, the global
//! **time scale** that maps paper-time latencies onto compressed wall-clock
//! time, error types, statistics (histograms, throughput time series) and
//! cluster configuration.
//!
//! Everything in this crate is deliberately free of any database or
//! networking logic so that every other crate in the workspace can depend
//! on it without cycles.
//!
//! ```
//! use dmv_common::version::VersionVector;
//! use dmv_common::ids::TableId;
//!
//! let mut v = VersionVector::new(3);
//! v.bump(TableId(0));
//! assert_eq!(v.get(TableId(0)), 1);
//! assert_eq!(v.get(TableId(2)), 0);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod clock;
pub mod config;
pub mod error;
pub mod fx;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod throttle;
pub mod version;
pub mod wire;

pub use clock::{SimClock, TimeScale};
pub use error::{DmvError, DmvResult};
pub use ids::{NodeId, PageId, PageSpace, TableId, TxnId};
pub use version::VersionVector;
