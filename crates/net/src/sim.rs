//! [`SimnetTransport`]: the in-process cluster network. The paper's
//! testbed is a 19-node switched LAN; here every node is a set of
//! threads inside one process, and links are typed channels whose
//! messages carry a modeled delivery deadline:
//!
//! * every **sender has one NIC**, shared by all its links and modeled
//!   as a timeline, not a stall: a message starts serializing when the
//!   NIC is free (`start = max(now, nic_free)`), occupies it for
//!   `per_kib × size` (`nic_free = start + ser`) and is due at the
//!   receiver at `nic_free + latency`. Back-to-back messages therefore
//!   queue behind each other and a sender's bytes/s are capped exactly
//!   as on a saturated NIC, but `send` itself only pushes onto a
//!   channel — a fan-out to N slaves is N pushes, never N OS sleeps;
//! * the **receiver** observes a message no earlier than its deadline
//!   (the receiving thread waits out what is left of it);
//! * nodes can be **killed** (their endpoint closes, sends to them fail —
//!   a "broken connection") and links can be **partitioned** (messages
//!   silently dropped, as on a real network);
//!
//! giving the failure-detection and fail-over machinery of `dmv-core`
//! realistic semantics to work against.
//!
//! The timeline needs no back-pressure: channels are unbounded, but
//! every bulk sender in the tree already waits for its receivers before
//! it sends more — a commit waits for every live target's cumulative
//! ack (`wait_for_acks`), a page migration for the joiner to have
//! received the batch marked `done` (`wait_migration_done`) — so what a
//! sender may have queued ahead of the modeled wire is bounded by its
//! own protocol.

use crate::transport::{Endpoint, Envelope, Transport};
use dmv_common::clock::{sleep_until, wall_deadline, wall_now, SimClock, WallInstant};
use dmv_common::config::NetProfile;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::NodeId;
use parking_lot::{Mutex, RwLock};
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
    /// Per sender, the instant its NIC has serialized everything sent
    /// so far (absent: idle). One entry per sender, not per link.
    nic_free: Mutex<HashMap<NodeId, WallInstant>>,
    profile: NetProfile,
    /// Transient latency added on top of the profile (paper time) —
    /// fault injection for congestion/latency-spike scenarios.
    extra_delay: RwLock<Duration>,
    clock: SimClock,
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
}

impl<M> Fabric<M> {
    /// Puts one `size`-byte message per target on `from`'s NIC, in
    /// target order, and never waits: each message is stamped with the
    /// instant the model delivers it. A dead or unknown target does not
    /// stop the fan-out; the first such failure is returned.
    fn transmit(
        &self,
        from: NodeId,
        targets: &[NodeId],
        msgs: impl Iterator<Item = M>,
        size: usize,
    ) -> DmvResult<()> {
        let scale = self.clock.scale();
        let ser = scale.to_wall(Duration::from_nanos(
            (self.profile.per_kib.as_nanos() as u64).saturating_mul(size as u64) / 1024,
        ));
        let hop = scale.to_wall(self.profile.latency + *self.extra_delay.read());
        let partitions = self.partitions.read();
        let nodes = self.nodes.read();
        let mut nics = self.nic_free.lock();
        let now = wall_now();
        let nic_free = nics.entry(from).or_insert(now);
        let mut result = Ok(());
        for (&to, msg) in targets.iter().zip(msgs) {
            if partitions.contains(&(from, to)) {
                // Partitioned links drop silently — the sender cannot tell.
                continue;
            }
            let live = nodes.get(&to).filter(|h| h.alive.load(Ordering::Acquire));
            let queued = live.is_some_and(|handle| {
                *nic_free = (*nic_free).max(now) + ser;
                handle.sender.send((Envelope { from, msg }, *nic_free + hop)).is_ok()
            });
            if !queued {
                result = result.and(Err(DmvError::NoSuchNode(to)));
                continue;
            }
            self.messages_sent.fetch_add(1, Ordering::Relaxed); // relaxed-ok: traffic diagnostics counter
            self.bytes_sent.fetch_add(size as u64, Ordering::Relaxed); // relaxed-ok: traffic diagnostics counter
        }
        result
    }

    fn send(&self, from: NodeId, to: NodeId, msg: M, size: usize) -> DmvResult<()> {
        self.transmit(from, &[to], std::iter::once(msg), size)
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
                nic_free: Mutex::new(HashMap::new()),
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
    // wait-ok: the rest of the message's modeled time on the wire
    sleep_until(deliver_at);
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
        // A new incarnation starts with an idle NIC.
        self.fabric.nic_free.lock().remove(&node);
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

    fn broadcast(&self, from: NodeId, targets: &[NodeId], msg: &M, size: usize) {
        let _ = self.fabric.transmit(from, targets, std::iter::repeat_with(|| msg.clone()), size);
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

    /// 1 paper-s/KiB at 0.01 → 10 wall-ms per KiB on the sender's NIC.
    fn slow_nic(latency: Duration) -> SimnetTransport<u32> {
        let profile = NetProfile { latency, per_kib: Duration::from_secs(1) };
        SimnetTransport::new(profile, SimClock::new(TimeScale::new(0.01)))
    }

    #[test]
    fn serialization_delays_the_receiver_not_the_sender() {
        let net = slow_nic(Duration::ZERO);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let t0 = Instant::now();
        a.send(NodeId(2), 1, 2048).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(5), "sender stalled {:?}", t0.elapsed());
        let _ = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20), "arrived early: {:?}", t0.elapsed());
    }

    #[test]
    fn one_nic_per_sender_queues_messages_across_links() {
        // 1 KiB = 10 ms of NIC time, plus 10 ms of latency.
        let net = slow_nic(Duration::from_secs(1));
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let c = net.register(NodeId(3));
        let t0 = Instant::now();
        for i in 0..10u32 {
            a.send(NodeId(2 + i % 2), i, 1024).unwrap();
        }
        assert!(t0.elapsed() < Duration::from_millis(10), "sender stalled {:?}", t0.elapsed());
        // Message i leaves a's one NIC after i + 1 serializations,
        // whichever link it takes; each link stays FIFO.
        for i in 0..10u32 {
            let rx = if i % 2 == 0 { &b } else { &c };
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap().msg, i);
            let due = Duration::from_millis(10 * (u64::from(i) + 1) + 10);
            assert!(t0.elapsed() >= due, "message {i} arrived at {:?} < {due:?}", t0.elapsed());
        }
    }

    #[test]
    fn broadcast_is_a_push_per_target() {
        let net: SimnetTransport<u32> =
            SimnetTransport::new(NetProfile::lan_2007(), SimClock::default());
        let targets: Vec<NodeId> = (2..34).map(NodeId).collect();
        let endpoints: Vec<_> = targets.iter().map(|t| net.register(*t)).collect();
        // The fastest of three: a preempted test thread is not a stall.
        let fastest = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                net.broadcast(NodeId(1), &targets, &7, 840);
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(fastest < Duration::from_millis(1), "fan-out took {fastest:?}");
        assert_eq!(net.messages_sent(), 3 * 32);
        for e in &endpoints {
            assert_eq!(e.recv_timeout(Duration::from_secs(1)).unwrap().msg, 7);
        }
    }

    #[test]
    fn broadcast_skips_dead_and_partitioned_targets() {
        let net: SimnetTransport<u32> = SimnetTransport::zero();
        let b = net.register(NodeId(2));
        let c = net.register(NodeId(3));
        let d = net.register(NodeId(4));
        net.kill(NodeId(2));
        net.partition(NodeId(1), NodeId(3));
        net.broadcast(NodeId(1), &[NodeId(2), NodeId(3), NodeId(9), NodeId(4)], &5, 4);
        assert!(b.recv_timeout(Duration::from_millis(10)).is_err());
        assert!(c.recv_timeout(Duration::from_millis(10)).is_err());
        assert_eq!(d.recv_timeout(Duration::from_secs(1)).unwrap().msg, 5);
        assert_eq!(net.messages_sent(), 1);
    }

    #[test]
    fn reregistered_sender_starts_with_an_idle_nic() {
        let net = slow_nic(Duration::ZERO);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let _c = net.register(NodeId(3));
        a.send(NodeId(3), 1, 100 * 1024).unwrap(); // a's NIC is busy for the next second
        net.kill(NodeId(1));
        let a = net.register(NodeId(1));
        let t0 = Instant::now();
        a.send(NodeId(2), 2, 0).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(2)).unwrap().msg, 2);
        assert!(t0.elapsed() < Duration::from_millis(500), "stale NIC time: {:?}", t0.elapsed());
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
        // An unregistered sender (the scheduler) has a NIC like any other.
        let net: SimnetTransport<u32> =
            SimnetTransport::new(NetProfile::lan_2007(), SimClock::default());
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
