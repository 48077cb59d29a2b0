//! # dmv-pagestore
//!
//! Page-storage substrate shared by the in-memory engine (`dmv-memdb`),
//! the on-disk engine (`dmv-ondisk`) and the replication layer
//! (`dmv-core`).
//!
//! The **page** (4 KiB) is the paper's unit of both concurrency control
//! and replication. This crate provides:
//!
//! * [`page::Page`] — a fixed-size byte page carrying its last-applied
//!   table version;
//! * [`slotted`] — a slotted-page layout for variable-length records;
//! * [`diff::PageDiff`] — the byte-range diff encoding that masters ship
//!   to slaves in write-set messages;
//! * [`store::PageStore`] — a latched, concurrently accessible page map
//!   with a **residency model** (mmap page-fault simulation) driving the
//!   buffer-cache warmup behaviour of the fail-over experiments;
//! * [`checkpoint`] — the fuzzy checkpoint used for stale-node
//!   reintegration (paper §4.4);
//! * [`versions::VersionChain`] — the one representation of page
//!   history: stamped reverse diffs under a page's current image, walked
//!   by a slave's rewinding tagged reads (a master keeps none).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod checkpoint;
pub mod diff;
pub mod page;
pub mod slotted;
pub mod store;
pub mod versions;

pub use diff::PageDiff;
pub use page::{Image, Page, PAGE_SIZE};
pub use store::{PageCell, PageStore, Residency, ResidencyCounters};
pub use versions::VersionChain;
