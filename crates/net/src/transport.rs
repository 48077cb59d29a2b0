//! The transport abstraction `dmv-core` is generic over.
//!
//! Semantics are those the cluster machinery was built against
//! (`SimnetTransport` defines them; `TcpTransport` reproduces them over
//! real sockets):
//!
//! * **Send to a partitioned destination** succeeds silently and drops
//!   the message — a sender on a real network cannot tell.
//! * **Send to a dead or unknown node** fails with
//!   [`DmvError::NoSuchNode`]; send *from* a killed endpoint fails with
//!   [`DmvError::NodeFailed`].
//! * **Kill** closes the node's receive side: pending receivers drain,
//!   then see [`DmvError::NodeFailed`].
//! * **Per-link FIFO**: messages between a fixed (from, to) pair are
//!   delivered in send order. No ordering holds across links.
//!
//! [`DmvError::NoSuchNode`]: dmv_common::DmvError::NoSuchNode
//! [`DmvError::NodeFailed`]: dmv_common::DmvError::NodeFailed

use dmv_common::error::DmvResult;
use dmv_common::ids::NodeId;
use std::sync::Arc;
use std::time::Duration;

/// A delivered message with its sender.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Payload.
    pub msg: M,
}

/// A node's attachment to a transport: its receive queue plus send
/// access bound to its identity.
pub trait Endpoint<M>: Send {
    /// This endpoint's node id.
    fn node(&self) -> NodeId;

    /// True until the node is killed.
    fn is_alive(&self) -> bool;

    /// Sends `msg` (of wire size `size` bytes) to `to`.
    fn send(&self, to: NodeId, msg: M, size: usize) -> DmvResult<()>;

    /// Receives the next message, waiting up to `timeout` (wall time).
    fn recv_timeout(&self, timeout: Duration) -> DmvResult<Envelope<M>>;

    /// Receives without waiting for new messages.
    fn try_recv(&self) -> Option<Envelope<M>>;
}

/// A cluster message fabric: node registry, fault injection and
/// out-of-band sends. Cheap to share (`Arc`); see [`DynTransport`].
pub trait Transport<M: Clone>: Send + Sync {
    /// Registers `node` and returns its endpoint. Re-registering a node
    /// (e.g. after recovery) replaces the previous endpoint.
    fn register(&self, node: NodeId) -> Box<dyn Endpoint<M>>;

    /// Kills a node: its endpoint stops receiving and sends to it fail.
    fn kill(&self, node: NodeId);

    /// True if the node is registered and alive.
    fn is_alive(&self, node: NodeId) -> bool;

    /// Blocks messages in both directions between `a` and `b` (silently
    /// dropped, like a real partition).
    fn partition(&self, a: NodeId, b: NodeId);

    /// Heals a partition.
    fn heal(&self, a: NodeId, b: NodeId);

    /// Sends on behalf of `from` without holding its endpoint (replica
    /// worker threads and the scheduler send this way).
    fn send_from(&self, from: NodeId, to: NodeId, msg: M, size: usize) -> DmvResult<()>;

    /// Fans `msg` out to every target, one wire copy each. Per-target
    /// failures (dead node mid-broadcast) are ignored — exactly how the
    /// master's write-set fan-out treated them when it looped over
    /// `send` itself; ack tracking catches the gap.
    fn broadcast(&self, from: NodeId, targets: &[NodeId], msg: &M, size: usize) {
        for t in targets {
            let _ = self.send_from(from, *t, msg.clone(), size);
        }
    }

    /// Messages sent so far (diagnostics).
    fn messages_sent(&self) -> u64;

    /// Payload bytes sent so far (diagnostics).
    fn bytes_sent(&self) -> u64;

    /// Tears down any background machinery (threads, sockets). Idempotent;
    /// a no-op for in-process transports.
    fn shutdown(&self) {}
}

/// The form `dmv-core` holds a transport in.
pub type DynTransport<M> = Arc<dyn Transport<M>>;
