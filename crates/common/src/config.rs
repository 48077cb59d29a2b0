//! Cost-model configuration shared by the storage engines and the network.
//!
//! All durations are **paper time**; they are scaled to wall time by the
//! experiment's [`crate::clock::TimeScale`] when actually charged. The
//! defaults model 2007-era commodity hardware (the paper's dual Athlon
//! cluster with local IDE disks and switched 100 Mb–1 Gb Ethernet).

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Latency model for the simulated disk backing the on-disk engine and the
/// page-in cost of the mmap-ed in-memory databases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskProfile {
    /// Random page read (seek + rotation + transfer).
    pub read_latency: Duration,
    /// Page write (typically absorbed by the write cache; cheaper).
    pub write_latency: Duration,
    /// Log force (fsync) at commit.
    pub fsync_latency: Duration,
    /// Sequential per-page transfer during log replay / bulk scans.
    pub seq_read_latency: Duration,
}

impl DiskProfile {
    /// 2007-era 7200 rpm commodity disk.
    pub fn commodity_2007() -> Self {
        DiskProfile {
            read_latency: Duration::from_micros(8000),
            write_latency: Duration::from_micros(2500),
            fsync_latency: Duration::from_micros(6000),
            seq_read_latency: Duration::from_micros(400),
        }
    }

    /// A very fast disk, for sensitivity/ablation experiments.
    pub fn fast_ssd() -> Self {
        DiskProfile {
            read_latency: Duration::from_micros(120),
            write_latency: Duration::from_micros(60),
            fsync_latency: Duration::from_micros(150),
            seq_read_latency: Duration::from_micros(20),
        }
    }
}

impl Default for DiskProfile {
    fn default() -> Self {
        Self::commodity_2007()
    }
}

/// Latency model for the simulated cluster interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetProfile {
    /// One-way propagation + protocol latency per message.
    pub latency: Duration,
    /// Serialization cost per KiB of payload.
    pub per_kib: Duration,
}

impl NetProfile {
    /// Switched LAN of the paper's testbed (~100 µs RTT/2, ~1 Gb/s).
    pub fn lan_2007() -> Self {
        NetProfile { latency: Duration::from_micros(120), per_kib: Duration::from_micros(9) }
    }

    /// Zero-cost network for pure-logic unit tests.
    pub fn zero() -> Self {
        NetProfile { latency: Duration::ZERO, per_kib: Duration::ZERO }
    }

    /// Total transfer time for a message of `bytes` payload.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        self.latency
            + Duration::from_nanos((self.per_kib.as_nanos() as u64) * (bytes as u64) / 1024)
    }
}

impl Default for NetProfile {
    fn default() -> Self {
        Self::lan_2007()
    }
}

/// Per-query CPU cost model for the engines.
///
/// Real CPU work in this reproduction is microseconds-scale, far below the
/// paper's millisecond-scale query costs; this model restores the paper's
/// relative CPU weights (complex read-only interactions such as BestSellers
/// are much heavier than point lookups) so that master saturation and
/// scaling curves keep their shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuProfile {
    /// Charged per row examined by a scan or join.
    pub per_row_scan: Duration,
    /// Charged per index traversal.
    pub per_index_probe: Duration,
    /// Charged per row written (insert/update/delete).
    pub per_row_write: Duration,
}

impl CpuProfile {
    /// Model of the paper's 1.9 GHz Athlon executing MySQL heap-table code.
    pub fn athlon_2007() -> Self {
        CpuProfile {
            per_row_scan: Duration::from_nanos(900),
            per_index_probe: Duration::from_micros(4),
            per_row_write: Duration::from_micros(9),
        }
    }

    /// Zero-cost CPU for pure-logic unit tests.
    pub fn zero() -> Self {
        CpuProfile {
            per_row_scan: Duration::ZERO,
            per_index_probe: Duration::ZERO,
            per_row_write: Duration::ZERO,
        }
    }
}

impl Default for CpuProfile {
    fn default() -> Self {
        Self::athlon_2007()
    }
}

/// Tuning knobs for the real TCP transport (`dmv-net`).
///
/// Unlike the profiles above, these are **wall-time** durations: the TCP
/// transport moves real bytes through the kernel, so its timeouts bound
/// actual I/O rather than modeled cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpConfig {
    /// First reconnect delay after a failed connect.
    pub connect_backoff_base: Duration,
    /// Cap on the exponential reconnect delay.
    pub connect_backoff_cap: Duration,
    /// Idle interval after which a writer emits a heartbeat frame.
    pub heartbeat_interval: Duration,
    /// Per-link bounded outbound queue depth (messages).
    pub queue_depth: usize,
    /// How long a sender blocks on a full outbound queue before the
    /// send fails with backpressure.
    pub enqueue_timeout: Duration,
    /// Seed for backoff jitter (drawn via `rng::derive`, one stream per
    /// link, so reconnect schedules are reproducible).
    pub seed: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_backoff_base: Duration::from_millis(10),
            connect_backoff_cap: Duration::from_secs(1),
            heartbeat_interval: Duration::from_millis(200),
            queue_depth: 1024,
            enqueue_timeout: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// How a master finds conflicts between its update transactions.
///
/// Both modes share one write path: an update writes private page copies
/// and installs them at commit. The paper's master runs per-page
/// two-phase locking, so each page is locked before it is touched and
/// the install's validation passes by construction; under `MvccCow` no
/// lock is taken and the install validates first-committer-wins over
/// overlapping page sets, so disjoint writers never wait on each other
/// and conflicts surface as retryable `VersionConflict` aborts instead
/// of lock waits. Both produce the same committed histories
/// (asserted by `tests/engine_differential.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ConcurrencyMode {
    /// Per-page two-phase locks taken before a page is touched, with
    /// deadlocks found when they form (the paper's protocol, and the
    /// default).
    #[default]
    TwoPhase,
    /// No locks: first-committer-wins validation at install, through a
    /// sharded sequencer.
    MvccCow,
}

/// Buffer budget for a replica's page store
/// (`ClusterSpec.buffer_budget`, plumbed into every node).
///
/// Models the paper's finite buffer cache: once the resident page set
/// exceeds [`max_resident_bytes`](Self::max_resident_bytes), a
/// clock/second-chance evictor marks cold clean pages non-resident, so
/// re-touching them charges the page-in latency through the node's
/// single-arm disk throttle. A budget of `0` (the [`unbounded`]
/// default) disables eviction entirely — the pre-epoch behavior, and
/// the right choice for pure-logic tests.
///
/// [`unbounded`]: Self::unbounded
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferBudget {
    /// Resident-byte ceiling per node; `0` means unlimited.
    pub max_resident_bytes: usize,
}

impl BufferBudget {
    /// No budget: every touched page stays resident (pre-epoch
    /// behavior).
    pub fn unbounded() -> Self {
        BufferBudget { max_resident_bytes: 0 }
    }

    /// A budget of exactly `pages` resident pages.
    pub fn pages(pages: usize, page_size: usize) -> Self {
        BufferBudget { max_resident_bytes: pages * page_size }
    }

    /// True if eviction is enabled.
    pub fn is_bounded(&self) -> bool {
        self.max_resident_bytes > 0
    }
}

impl Default for BufferBudget {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_budget_default_is_unbounded() {
        let b = BufferBudget::default();
        assert!(!b.is_bounded());
        assert!(BufferBudget::pages(64, 4096).is_bounded());
        assert_eq!(BufferBudget::pages(64, 4096).max_resident_bytes, 64 * 4096);
    }

    #[test]
    fn concurrency_mode_defaults_to_two_phase() {
        assert_eq!(ConcurrencyMode::default(), ConcurrencyMode::TwoPhase);
        assert_ne!(ConcurrencyMode::MvccCow, ConcurrencyMode::TwoPhase);
    }

    #[test]
    fn tcp_defaults_sane() {
        let t = TcpConfig::default();
        assert!(t.connect_backoff_base < t.connect_backoff_cap);
        assert!(t.queue_depth > 0);
    }

    #[test]
    fn defaults_are_commodity() {
        assert_eq!(DiskProfile::default(), DiskProfile::commodity_2007());
        assert_eq!(NetProfile::default(), NetProfile::lan_2007());
        assert_eq!(CpuProfile::default(), CpuProfile::athlon_2007());
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let n = NetProfile::lan_2007();
        let small = n.transfer_time(100);
        let big = n.transfer_time(100 * 1024);
        assert!(big > small);
        assert!(big - small >= Duration::from_micros(800));
    }

    #[test]
    fn zero_profiles_cost_nothing() {
        assert_eq!(NetProfile::zero().transfer_time(1 << 20), Duration::ZERO);
        assert_eq!(CpuProfile::zero().per_row_write, Duration::ZERO);
    }

    #[test]
    fn disk_ordering_sane() {
        let d = DiskProfile::commodity_2007();
        assert!(d.seq_read_latency < d.read_latency);
        assert!(d.write_latency < d.read_latency);
    }
}
