//! [`FaultTransport`]: deterministic fault injection at the transport
//! boundary.
//!
//! Wraps any [`Transport`] and adds *armed crash triggers*: "kill node
//! `n` after its k-th outbound send". When the trigger fires, the k-th
//! message is dropped (it dies with the sender, exactly as a crash
//! mid-`write(2)` would lose it), the node is killed on the inner
//! transport, an optional callback notifies the harness (which marks
//! the replica dead so its own liveness checks observe the crash), and
//! every later send from that node vanishes silently — until the id
//! registers again, which starts a new incarnation (reintegration).
//!
//! The canonical use is the paper's hardest failure window: a master
//! crashing *mid-broadcast*, having delivered its write-set to some
//! replicas but not others (§4.2). Counting happens on
//! [`Transport::send_from`] — the path the scheduler and the masters'
//! fan-out use — so with `broadcast` to `t` targets, a trigger of
//! `k ≤ t` splits one commit's propagation exactly at target `k`.
//! Endpoint sends (acks) are not counted.
//!
//! Triggers fire on the thread that performs the send. In a harness
//! that serializes client operations this makes the crash instant a
//! deterministic function of the schedule.

use crate::transport::{Endpoint, Transport};
use dmv_check::sync::Mutex;
use dmv_common::error::DmvResult;
use dmv_common::ids::NodeId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Callback invoked (once) when an armed trigger kills a node.
pub type OnKill = Box<dyn Fn(NodeId) + Send + Sync>;

struct FaultState {
    /// Remaining `send_from` calls until the node crashes.
    armed: Mutex<HashMap<NodeId, u32>>,
    /// Nodes crashed by a trigger: their output is swallowed.
    crashed: Mutex<HashSet<NodeId>>,
    on_kill: Mutex<Option<OnKill>>,
}

/// A [`Transport`] decorator injecting crash faults at exact send
/// counts. Transparent (pure delegation) while no trigger is armed.
pub struct FaultTransport<M: Clone> {
    inner: Arc<dyn Transport<M>>,
    state: FaultState,
}

impl<M: Clone> FaultTransport<M> {
    /// Wraps `inner`; no triggers armed.
    pub fn new(inner: Arc<dyn Transport<M>>) -> Self {
        FaultTransport {
            inner,
            state: FaultState {
                armed: Mutex::new(HashMap::new()),
                crashed: Mutex::new(HashSet::new()),
                on_kill: Mutex::new(None),
            },
        }
    }

    /// Arms a trigger: `node` crashes on its `after`-th subsequent
    /// `send_from` (that send and all later ones are lost). `after` is
    /// clamped to ≥ 1.
    pub fn kill_after_sends(&self, node: NodeId, after: u32) {
        self.state.armed.lock().insert(node, after.max(1));
    }

    /// Registers the callback run when a trigger fires (e.g. marking
    /// the replica object dead). Runs on the sending thread, after the
    /// node is killed on the inner transport.
    pub fn set_on_kill(&self, f: OnKill) {
        *self.state.on_kill.lock() = Some(f);
    }

    /// Disarms all pending triggers (crashed senders stay crashed until
    /// they register again).
    pub fn clear_triggers(&self) {
        self.state.armed.lock().clear();
    }

    /// True if a trigger is currently armed for `node`.
    pub fn is_armed(&self, node: NodeId) -> bool {
        self.state.armed.lock().contains_key(&node)
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &Arc<dyn Transport<M>> {
        &self.inner
    }
}

impl<M: Clone + Send + 'static> Transport<M> for FaultTransport<M> {
    /// A new incarnation starts with a clean slate: the id's crash (and
    /// any trigger still armed for it) belonged to the endpoint this
    /// one replaces.
    fn register(&self, node: NodeId) -> Box<dyn Endpoint<M>> {
        self.state.crashed.lock().remove(&node);
        self.state.armed.lock().remove(&node);
        self.inner.register(node)
    }

    fn kill(&self, node: NodeId) {
        self.inner.kill(node);
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.inner.is_alive(node)
    }

    fn partition(&self, a: NodeId, b: NodeId) {
        self.inner.partition(a, b);
    }

    fn heal(&self, a: NodeId, b: NodeId) {
        self.inner.heal(a, b);
    }

    fn send_from(&self, from: NodeId, to: NodeId, msg: M, size: usize) -> DmvResult<()> {
        if self.state.crashed.lock().contains(&from) {
            // A crashed node's output goes nowhere; like a partition,
            // the (dead) sender cannot tell.
            return Ok(());
        }
        let fired = {
            let mut armed = self.state.armed.lock();
            match armed.get_mut(&from) {
                Some(left) => {
                    *left -= 1;
                    if *left == 0 {
                        armed.remove(&from);
                        true
                    } else {
                        false
                    }
                }
                None => false,
            }
        };
        if fired {
            self.state.crashed.lock().insert(from);
            self.inner.kill(from);
            if let Some(f) = self.state.on_kill.lock().as_ref() {
                f(from);
            }
            return Ok(()); // the fatal send is lost with the sender
        }
        self.inner.send_from(from, to, msg, size)
    }

    fn messages_sent(&self) -> u64 {
        self.inner.messages_sent()
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

impl<M: Clone> std::fmt::Debug for FaultTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultTransport")
            .field("armed", &self.state.armed.lock().len())
            .field("crashed", &self.state.crashed.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimnetTransport;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    fn fabric() -> FaultTransport<u32> {
        FaultTransport::new(Arc::new(SimnetTransport::zero()))
    }

    #[test]
    fn transparent_without_triggers() {
        let t = fabric();
        let _a = t.register(NodeId(1));
        let b = t.register(NodeId(2));
        t.send_from(NodeId(1), NodeId(2), 7, 4).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 7);
        assert_eq!(t.messages_sent(), 1);
    }

    #[test]
    fn trigger_splits_a_broadcast_at_the_exact_send() {
        let t = fabric();
        let _a = t.register(NodeId(1));
        let b = t.register(NodeId(2));
        let c = t.register(NodeId(3));
        let d = t.register(NodeId(4));
        let killed = Arc::new(AtomicU32::new(0));
        let k = Arc::clone(&killed);
        t.set_on_kill(Box::new(move |n| k.store(n.0 + 100, Ordering::SeqCst)));
        // Crash on the 2nd send: target order (2, 3, 4) means node 2
        // receives the write-set, nodes 3 and 4 never do.
        t.kill_after_sends(NodeId(1), 2);
        t.broadcast(NodeId(1), &[NodeId(2), NodeId(3), NodeId(4)], &9, 4);
        assert_eq!(b.recv_timeout(Duration::from_millis(50)).unwrap().msg, 9);
        assert!(c.recv_timeout(Duration::from_millis(50)).is_err());
        assert!(d.recv_timeout(Duration::from_millis(50)).is_err());
        assert!(!t.is_alive(NodeId(1)), "sender crashed on the fatal send");
        assert_eq!(killed.load(Ordering::SeqCst), 101, "on_kill callback ran");
        assert!(!t.is_armed(NodeId(1)));
        // Everything the crashed node tries to send afterwards vanishes.
        t.send_from(NodeId(1), NodeId(2), 10, 4).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn a_re_registered_node_is_heard_again() {
        let t = fabric();
        let _a = t.register(NodeId(1));
        let b = t.register(NodeId(2));
        t.kill_after_sends(NodeId(1), 1);
        t.send_from(NodeId(1), NodeId(2), 5, 4).unwrap();
        assert!(!t.is_alive(NodeId(1)), "the trigger crashed node 1");
        // Reintegration starts a new incarnation under the same id.
        let _a2 = t.register(NodeId(1));
        t.send_from(NodeId(1), NodeId(2), 6, 4).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 6);
    }

    #[test]
    fn clear_triggers_disarms() {
        let t = fabric();
        let _a = t.register(NodeId(1));
        let b = t.register(NodeId(2));
        t.kill_after_sends(NodeId(1), 1);
        t.clear_triggers();
        t.send_from(NodeId(1), NodeId(2), 5, 4).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 5);
        assert!(t.is_alive(NodeId(1)));
    }
}
