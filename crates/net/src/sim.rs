//! [`SimnetTransport`]: the in-process cluster network. The paper's
//! testbed is a 19-node switched LAN; here every node is a set of
//! threads inside one process, and links are typed channels with a
//! modeled latency:
//!
//! * the **sender** is charged the serialization cost (`per_kib × size`),
//!   which throttles a master broadcasting large write-sets exactly the
//!   way a saturated NIC would;
//! * the **receiver** observes messages only after the propagation
//!   latency has elapsed (messages carry a delivery deadline);
//! * nodes can be **killed** (their endpoint closes, sends to them fail —
//!   a "broken connection") and links can be **partitioned** (messages
//!   silently dropped, as on a real network);
//!
//! giving the failure-detection and fail-over machinery of `dmv-core`
//! realistic semantics to work against.

use crate::transport::{Endpoint, Envelope, Transport};
use dmv_common::clock::{wall_deadline, wall_now, SimClock, WallInstant};
use dmv_common::config::NetProfile;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::NodeId;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A message in flight: the envelope plus its delivery deadline.
type InFlight<M> = (Envelope<M>, WallInstant);

struct NodeHandle<M> {
    sender: crossbeam::channel::Sender<InFlight<M>>,
    alive: Arc<AtomicBool>,
}

struct Fabric<M> {
    nodes: RwLock<HashMap<NodeId, NodeHandle<M>>>,
    partitions: RwLock<HashSet<(NodeId, NodeId)>>,
    profile: NetProfile,
    /// Transient latency added on top of the profile (paper time) —
    /// fault injection for congestion/latency-spike scenarios.
    extra_delay: RwLock<Duration>,
    clock: SimClock,
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
}

impl<M> Fabric<M> {
    fn send(&self, from: NodeId, to: NodeId, msg: M, size: usize) -> DmvResult<()> {
        if self.partitions.read().contains(&(from, to)) {
            // Partitioned links drop silently — the sender cannot tell.
            return Ok(());
        }
        // Serialization cost charged to the sender.
        let ser = Duration::from_nanos(
            (self.profile.per_kib.as_nanos() as u64).saturating_mul(size as u64) / 1024,
        );
        if !ser.is_zero() {
            self.clock.sleep_paper(ser);
        }
        let extra = *self.extra_delay.read();
        let deliver_at = wall_deadline(self.clock.scale().to_wall(self.profile.latency + extra));
        let nodes = self.nodes.read();
        let handle = nodes.get(&to).ok_or(DmvError::NoSuchNode(to))?;
        if !handle.alive.load(Ordering::Acquire) {
            return Err(DmvError::NoSuchNode(to));
        }
        handle
            .sender
            .send((Envelope { from, msg }, deliver_at))
            .map_err(|_| DmvError::NoSuchNode(to))?;
        self.messages_sent.fetch_add(1, Ordering::Relaxed); // relaxed-ok: traffic diagnostics counter
        self.bytes_sent.fetch_add(size as u64, Ordering::Relaxed); // relaxed-ok: traffic diagnostics counter
        Ok(())
    }
}

/// The simulated network fabric. Cheap to clone (shared state).
pub struct SimnetTransport<M> {
    fabric: Arc<Fabric<M>>,
}

impl<M> Clone for SimnetTransport<M> {
    fn clone(&self) -> Self {
        SimnetTransport { fabric: Arc::clone(&self.fabric) }
    }
}

impl<M> SimnetTransport<M> {
    /// Creates a simulated network with the given latency profile and
    /// clock.
    pub fn new(profile: NetProfile, clock: SimClock) -> Self {
        SimnetTransport {
            fabric: Arc::new(Fabric {
                nodes: RwLock::new(HashMap::new()),
                partitions: RwLock::new(HashSet::new()),
                profile,
                extra_delay: RwLock::new(Duration::ZERO),
                clock,
                messages_sent: AtomicU64::new(0),
                bytes_sent: AtomicU64::new(0),
            }),
        }
    }

    /// A zero-latency simulated network for pure-logic tests.
    pub fn zero() -> Self {
        Self::new(NetProfile::zero(), SimClock::default())
    }

    /// Sets a transient extra propagation delay (paper time) added to
    /// every subsequent delivery — a network-wide latency spike.
    /// `Duration::ZERO` restores normal conditions.
    pub fn set_extra_delay(&self, extra: Duration) {
        *self.fabric.extra_delay.write() = extra;
    }
}

impl<M> std::fmt::Debug for SimnetTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimnetTransport")
            .field("nodes", &self.fabric.nodes.read().len())
            .field("messages_sent", &self.fabric.messages_sent.load(Ordering::Relaxed)) // relaxed-ok: traffic diagnostics counter
            .finish()
    }
}

/// A node's attachment to the fabric: receive queue plus send access.
struct SimEndpoint<M> {
    node: NodeId,
    receiver: crossbeam::channel::Receiver<InFlight<M>>,
    fabric: Arc<Fabric<M>>,
    alive: Arc<AtomicBool>,
}

/// Waits out what is left of a message's propagation latency — the
/// receiving thread *is* the node.
fn deliver<M>((env, deliver_at): InFlight<M>) -> Envelope<M> {
    let now = wall_now();
    if deliver_at > now {
        std::thread::sleep(deliver_at - now);
    }
    env
}

impl<M: Send + 'static> Endpoint<M> for SimEndpoint<M> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    fn send(&self, to: NodeId, msg: M, size: usize) -> DmvResult<()> {
        if !self.is_alive() {
            return Err(DmvError::NodeFailed(self.node));
        }
        self.fabric.send(self.node, to, msg, size)
    }

    fn recv_timeout(&self, timeout: Duration) -> DmvResult<Envelope<M>> {
        match self.receiver.recv_deadline(wall_deadline(timeout)) {
            Ok(in_flight) => Ok(deliver(in_flight)),
            Err(_) if self.is_alive() => Err(DmvError::Network("receive timeout".into())),
            Err(_) => Err(DmvError::NodeFailed(self.node)),
        }
    }

    fn try_recv(&self) -> Option<Envelope<M>> {
        self.receiver.try_recv().ok().map(deliver)
    }
}

impl<M: Clone + Send + 'static> Transport<M> for SimnetTransport<M> {
    fn register(&self, node: NodeId) -> Box<dyn Endpoint<M>> {
        let (sender, receiver) = crossbeam::channel::unbounded();
        let alive = Arc::new(AtomicBool::new(true));
        self.fabric.nodes.write().insert(node, NodeHandle { sender, alive: Arc::clone(&alive) });
        Box::new(SimEndpoint { node, receiver, fabric: Arc::clone(&self.fabric), alive })
    }

    fn kill(&self, node: NodeId) {
        // Dropping the handle's sender closes the channel.
        if let Some(h) = self.fabric.nodes.write().remove(&node) {
            h.alive.store(false, Ordering::Release);
        }
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.fabric.nodes.read().get(&node).is_some_and(|h| h.alive.load(Ordering::Acquire))
    }

    fn partition(&self, a: NodeId, b: NodeId) {
        let mut p = self.fabric.partitions.write();
        p.insert((a, b));
        p.insert((b, a));
    }

    fn heal(&self, a: NodeId, b: NodeId) {
        let mut p = self.fabric.partitions.write();
        p.remove(&(a, b));
        p.remove(&(b, a));
    }

    fn send_from(&self, from: NodeId, to: NodeId, msg: M, size: usize) -> DmvResult<()> {
        self.fabric.send(from, to, msg, size)
    }

    fn messages_sent(&self) -> u64 {
        self.fabric.messages_sent.load(Ordering::Relaxed) // relaxed-ok: traffic diagnostics counter
    }

    fn bytes_sent(&self) -> u64 {
        self.fabric.bytes_sent.load(Ordering::Relaxed) // relaxed-ok: traffic diagnostics counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::clock::TimeScale;
    use std::time::Instant;

    #[test]
    fn basic_send_recv() {
        let net: SimnetTransport<String> = SimnetTransport::zero();
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        a.send(NodeId(2), "hello".into(), 5).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, NodeId(1));
        assert_eq!(env.msg, "hello");
        assert_eq!(net.messages_sent(), 1);
        assert_eq!(net.bytes_sent(), 5);
    }

    #[test]
    fn send_to_unknown_fails() {
        let net: SimnetTransport<u32> = SimnetTransport::zero();
        let a = net.register(NodeId(1));
        assert!(matches!(a.send(NodeId(9), 1, 0), Err(DmvError::NoSuchNode(_))));
    }

    #[test]
    fn killed_node_unreachable_and_cannot_send() {
        let net: SimnetTransport<u32> = SimnetTransport::zero();
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        net.kill(NodeId(2));
        assert!(!net.is_alive(NodeId(2)));
        assert!(a.send(NodeId(2), 1, 0).is_err());
        assert!(!b.is_alive());
        assert!(matches!(b.recv_timeout(Duration::from_millis(10)), Err(DmvError::NodeFailed(_))));
    }

    #[test]
    fn partition_drops_silently_and_heals() {
        let net: SimnetTransport<u32> = SimnetTransport::zero();
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        net.partition(NodeId(1), NodeId(2));
        a.send(NodeId(2), 7, 0).unwrap(); // dropped
        assert!(b.recv_timeout(Duration::from_millis(20)).is_err());
        net.heal(NodeId(1), NodeId(2));
        a.send(NodeId(2), 8, 0).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 8);
    }

    #[test]
    fn latency_delays_delivery() {
        let profile = NetProfile { latency: Duration::from_secs(5), per_kib: Duration::ZERO };
        let clock = SimClock::new(TimeScale::new(0.002)); // 5 paper-s -> 10 wall-ms
        let net: SimnetTransport<u32> = SimnetTransport::new(profile, clock);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let t0 = Instant::now();
        a.send(NodeId(2), 1, 0).unwrap();
        let _ = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(10), "elapsed {:?}", t0.elapsed());
    }

    #[test]
    fn extra_delay_spikes_then_restores_latency() {
        let clock = SimClock::new(TimeScale::realtime());
        let net: SimnetTransport<u32> = SimnetTransport::new(NetProfile::zero(), clock);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        net.set_extra_delay(Duration::from_millis(15));
        let t0 = Instant::now();
        a.send(NodeId(2), 1, 0).unwrap();
        let _ = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(15), "spike not applied: {:?}", t0.elapsed());
        net.set_extra_delay(Duration::ZERO);
        let t1 = Instant::now();
        a.send(NodeId(2), 2, 0).unwrap();
        let _ = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(t1.elapsed() < Duration::from_millis(15), "spike not cleared: {:?}", t1.elapsed());
    }

    #[test]
    fn serialization_cost_charged_to_sender() {
        let profile = NetProfile { latency: Duration::ZERO, per_kib: Duration::from_secs(1) };
        let clock = SimClock::new(TimeScale::new(0.01)); // 1 paper-s/KiB -> 10 wall-ms/KiB
        let net: SimnetTransport<u32> = SimnetTransport::new(profile, clock);
        let a = net.register(NodeId(1));
        let _b = net.register(NodeId(2));
        let t0 = Instant::now();
        a.send(NodeId(2), 1, 2048).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(19), "elapsed {:?}", t0.elapsed());
    }

    #[test]
    fn reregistration_replaces_endpoint() {
        let net: SimnetTransport<u32> = SimnetTransport::zero();
        let a = net.register(NodeId(1));
        let b1 = net.register(NodeId(2));
        let b2 = net.register(NodeId(2));
        a.send(NodeId(2), 5, 0).unwrap();
        assert!(b1.recv_timeout(Duration::from_millis(20)).is_err());
        assert_eq!(b2.recv_timeout(Duration::from_secs(1)).unwrap().msg, 5);
    }

    #[test]
    fn try_recv_nonblocking() {
        let net: SimnetTransport<u32> = SimnetTransport::zero();
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        assert!(b.try_recv().is_none());
        a.send(NodeId(2), 3, 0).unwrap();
        assert_eq!(b.try_recv().unwrap().msg, 3);
    }

    #[test]
    fn external_send() {
        let net: SimnetTransport<u32> = SimnetTransport::zero();
        let b = net.register(NodeId(2));
        net.send_from(NodeId(99), NodeId(2), 11, 0).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, NodeId(99));
    }

    #[test]
    fn fifo_per_link() {
        let net: SimnetTransport<u32> = SimnetTransport::zero();
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        for i in 0..100 {
            a.send(NodeId(2), i, 0).unwrap();
        }
        for i in 0..100 {
            assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg, i);
        }
    }
}
