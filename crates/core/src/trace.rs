//! History tap points for deterministic simulation testing.
//!
//! The fault-schedule explorer (`dmv-dst`) needs to observe what the
//! cluster *did* — which version each commit produced, which slave a
//! tagged read was routed to, what was discarded during fail-over —
//! without the observation changing the behaviour under test. These
//! taps are that observation channel: a [`TraceTap`] installed via
//! [`crate::cluster::DmvCluster::set_trace_tap`] receives a
//! [`TraceEvent`] at each of the protocol's decision points.
//!
//! Emission sites and threading:
//!
//! * scheduler events ([`TraceEvent::UpdateCommitted`],
//!   [`TraceEvent::UpdateAborted`], [`TraceEvent::ReadRouted`],
//!   [`TraceEvent::ReadCommitted`], [`TraceEvent::ReadAborted`]) fire
//!   **synchronously on the calling client thread**, so a single-driver
//!   harness can attribute them to the operation it just issued;
//! * replica promotion ([`TraceEvent::Promoted`]) and queue cleanup
//!   ([`TraceEvent::DiscardedAbove`]) fire on whichever thread runs
//!   reconfiguration — the harness's own thread when it calls
//!   `detect_and_reconfigure` directly.
//!
//! When no tap is installed the cost is one shared-lock read per
//! operation; the replication stream (enqueue) emits nothing.

use dmv_common::ids::NodeId;
use dmv_common::version::VersionVector;
use std::sync::Arc;

/// One observed protocol event.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// An update transaction committed through a scheduler, producing
    /// `version` (the master's post-bump vector for its conflict class).
    UpdateCommitted {
        /// Scheduler that ran the update.
        scheduler: NodeId,
        /// Version vector returned by the master's commit.
        version: VersionVector,
    },
    /// An update transaction aborted.
    UpdateAborted {
        /// Scheduler that ran the update.
        scheduler: NodeId,
        /// Display form of the abort error.
        reason: String,
    },
    /// A read-only transaction was tagged and routed to a slave.
    ReadRouted {
        /// Scheduler that routed the read.
        scheduler: NodeId,
        /// Chosen slave.
        slave: NodeId,
        /// The version tag assigned to the read.
        tag: VersionVector,
    },
    /// A routed read completed successfully.
    ReadCommitted {
        /// Scheduler that routed the read.
        scheduler: NodeId,
        /// Slave that served it.
        slave: NodeId,
    },
    /// A routed read aborted (version conflict, timeout, node failure).
    ReadAborted {
        /// Scheduler that routed the read.
        scheduler: NodeId,
        /// Slave it was routed to.
        slave: NodeId,
        /// Display form of the abort error.
        reason: String,
    },
    /// A replica discarded queued records above `keep` (master-failure
    /// cleanup, §4.2).
    DiscardedAbove {
        /// Replica whose queues were trimmed.
        node: NodeId,
        /// Highest versions kept.
        keep: VersionVector,
    },
    /// A replica ran an epoch reclamation pass: queued diffs at or
    /// below `watermark` were eagerly applied, reverse steps it has
    /// passed were pruned, and `reaped` emptied page slots left the
    /// applier's slot map.
    Reclaimed {
        /// Replica that reclaimed.
        node: NodeId,
        /// The reclamation watermark applied up to.
        watermark: VersionVector,
        /// Page slots removed.
        reaped: usize,
    },
    /// A slave was promoted to master, continuing from `from`.
    Promoted {
        /// The promoted replica.
        node: NodeId,
        /// The scheduler-acknowledged vector it resumes from.
        from: VersionVector,
    },
}

/// Receiver of trace events. Implementations must be cheap and must not
/// call back into the cluster (they run inside commit/read paths).
pub trait TraceTap: Send + Sync {
    /// Records one event.
    fn record(&self, ev: TraceEvent);
}

/// The shared form taps are installed as.
pub type SharedTap = Arc<dyn TraceTap>;
