//! [`TcpTransport`]: the cluster fabric over real `std::net` sockets.
//!
//! Topology: every registered node binds a loopback listener and an
//! accept thread. A link `from → to` materializes lazily on first send
//! as a bounded outbound queue plus a **writer thread** that dials the
//! destination, performs the [`frame::Hello`] handshake, and pumps
//! frames; the destination's accept thread hands the connection to a
//! **reader thread** that validates the handshake and delivers decoded
//! messages into the target node's inbox. One connection per directed
//! link keeps delivery FIFO per link, like the simulated network.
//!
//! Fault semantics mirror `SimnetTransport` (see [`crate::transport`]):
//! partitioned links drop silently at the sender (and, defensively, at
//! the receiver — for cross-process use where only one side injected
//! the fault), sends to dead or unknown nodes fail with `NoSuchNode`,
//! and killing a node closes its inbox so receivers drain and then see
//! `NodeFailed`.
//!
//! Liveness machinery:
//!
//! * **Backpressure** — the per-link queue holds at most
//!   `TcpConfig::queue_depth` frames; a sender that outruns the link
//!   blocks up to `enqueue_timeout` and then gets a `Network` error,
//!   the same throttle a full kernel socket buffer applies.
//! * **Reconnect** — a writer whose connect or write fails retries with
//!   capped exponential backoff and deterministic jitter (streams
//!   derived from `TcpConfig::seed` via `dmv_common::rng::derive`, one
//!   per link, so schedules are reproducible).
//! * **Heartbeats** — an idle writer emits a heartbeat frame every
//!   `heartbeat_interval`, keeping NAT/timeout middleware and the
//!   reader's liveness checks fed without inventing traffic.
//! * **Teardown** — [`Transport::shutdown`] closes every queue, stops
//!   every thread (all blocking waits are short polls) and joins them.
//!
//! All timing goes through `clock.rs` (`wall_now`/`wall_deadline`) and
//! all randomness through `rng.rs`, per the repo's lint rules; the
//! outbound queue is built on the `dmv_check::sync` shims so the
//! backoff/backpressure path stays model-checkable.

use crate::frame::{self, FrameKind, Hello};
use crate::queue::{BoundedQueue, Pop, PushError};
use crate::transport::{Endpoint, Envelope, Transport};
use dmv_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use dmv_check::sync::{Mutex, RwLock};
use dmv_common::clock::{sleep_wall, wall_deadline, wall_now, WallInstant};
use dmv_common::config::TcpConfig;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::NodeId;
use dmv_common::rng;
use dmv_common::wire::{decode_exact, Wire};
use rand::rngs::SmallRng;
use rand::Rng as _;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Poll granularity of blocking socket reads and accept loops; bounds
/// how long teardown waits on an idle thread.
const POLL: Duration = Duration::from_millis(25);

/// How long a single frame write may stall before the writer declares
/// the connection dead and reconnects.
const WRITE_STALL: Duration = Duration::from_secs(2);

struct LocalNode<M> {
    inbox: crossbeam::channel::Sender<Envelope<M>>,
    alive: Arc<AtomicBool>,
    /// Stops this registration's accept/reader threads (set on kill,
    /// re-register and shutdown).
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

/// Outbound frame queue of one directed link; frames are Arc-shared so
/// a broadcast encodes once.
type LinkQueue = Arc<BoundedQueue<Arc<Vec<u8>>>>;

struct Inner<M> {
    cfg: TcpConfig,
    nodes: RwLock<HashMap<NodeId, LocalNode<M>>>,
    /// Dialable address per node — local registrations plus remote
    /// peers added via [`TcpTransport::add_peer`].
    peers: RwLock<HashMap<NodeId, SocketAddr>>,
    links: Mutex<HashMap<(NodeId, NodeId), LinkQueue>>,
    partitions: RwLock<HashSet<(NodeId, NodeId)>>,
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    shutdown: AtomicBool,
    threads: Mutex<Vec<dmv_check::thread::JoinHandle<()>>>,
    next_stream: AtomicU64,
}

/// The real-socket transport. Cheap to clone (shared state).
pub struct TcpTransport<M> {
    inner: Arc<Inner<M>>,
}

impl<M> Clone for TcpTransport<M> {
    fn clone(&self) -> Self {
        TcpTransport { inner: Arc::clone(&self.inner) }
    }
}

impl<M: Wire + Clone + Send + 'static> TcpTransport<M> {
    /// Creates an empty transport with the given tuning.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpTransport {
            inner: Arc::new(Inner {
                cfg,
                nodes: RwLock::new(HashMap::new()),
                peers: RwLock::new(HashMap::new()),
                links: Mutex::new(HashMap::new()),
                partitions: RwLock::new(HashSet::new()),
                messages_sent: AtomicU64::new(0),
                bytes_sent: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                threads: Mutex::new(Vec::new()),
                next_stream: AtomicU64::new(0),
            }),
        }
    }

    /// The loopback address `node`'s listener is bound to, if `node`
    /// is registered locally (hand it to the other process of a
    /// multi-process cluster).
    pub fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.inner.nodes.read().get(&node).map(|n| n.addr)
    }

    /// Makes a node living in another process reachable: sends to
    /// `node` will dial `addr`.
    pub fn add_peer(&self, node: NodeId, addr: SocketAddr) {
        self.inner.peers.write().insert(node, addr);
    }
}

impl<M: Wire + Clone + Send + 'static> Default for TcpTransport<M> {
    fn default() -> Self {
        Self::new(TcpConfig::default())
    }
}

impl<M: Wire + Clone + Send + 'static> Transport<M> for TcpTransport<M> {
    fn register(&self, node: NodeId) -> Box<dyn Endpoint<M>> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener"); // unwrap-ok: loopback ephemeral bind only fails when the OS is out of ports
        listener.set_nonblocking(true).expect("set_nonblocking"); // unwrap-ok: supported on every target platform
        let addr = listener.local_addr().expect("listener local addr"); // unwrap-ok: freshly bound listener has an address

        let (tx, rx) = crossbeam::channel::unbounded();
        let alive = Arc::new(AtomicBool::new(true));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let mut nodes = self.inner.nodes.write();
            if let Some(old) = nodes.insert(
                node,
                LocalNode { inbox: tx, alive: Arc::clone(&alive), stop: Arc::clone(&stop), addr },
            ) {
                // Re-registration replaces the endpoint; the previous
                // generation's threads wind down.
                old.stop.store(true, Ordering::Release);
            }
        }
        self.inner.peers.write().insert(node, addr);

        let inner = Arc::clone(&self.inner);
        let accept_stop = Arc::clone(&stop);
        let handle = dmv_check::thread::Builder::new()
            .name(format!("tcp-accept-{node}"))
            .spawn(move || accept_loop(inner, node, listener, accept_stop))
            .expect("spawn accept loop"); // unwrap-ok: thread spawn fails only on OS resource exhaustion at startup
        self.inner.threads.lock().push(handle);

        Box::new(TcpEndpoint { node, alive, receiver: rx, inner: Arc::clone(&self.inner) })
    }

    fn kill(&self, node: NodeId) {
        if let Some(n) = self.inner.nodes.write().remove(&node) {
            n.alive.store(false, Ordering::Release);
            n.stop.store(true, Ordering::Release);
            // Dropping the inbox sender closes the endpoint's channel.
        }
        self.inner.peers.write().remove(&node);
        // Stop this node's outgoing writers; frames still queued are
        // lost, like bytes in a dead host's socket buffers.
        for (key, q) in self.inner.links.lock().iter() {
            if key.0 == node {
                q.close();
            }
        }
    }

    fn is_alive(&self, node: NodeId) -> bool {
        if let Some(n) = self.inner.nodes.read().get(&node) {
            return n.alive.load(Ordering::Acquire);
        }
        // A remote peer is presumed alive; failure detection is the
        // cluster's job (ack timeouts), not the transport's.
        self.inner.peers.read().contains_key(&node)
    }

    fn partition(&self, a: NodeId, b: NodeId) {
        let mut p = self.inner.partitions.write();
        p.insert((a, b));
        p.insert((b, a));
    }

    fn heal(&self, a: NodeId, b: NodeId) {
        let mut p = self.inner.partitions.write();
        p.remove(&(a, b));
        p.remove(&(b, a));
    }

    fn send_from(&self, from: NodeId, to: NodeId, msg: M, size: usize) -> DmvResult<()> {
        let _ = size; // the frame's real length is charged instead
        let payload = msg.encode();
        let bytes = Arc::new(frame::encode_frame(FrameKind::Data, &payload));
        self.enqueue(from, to, &bytes)
    }

    fn broadcast(&self, from: NodeId, targets: &[NodeId], msg: &M, size: usize) {
        let _ = size;
        // One encode for the whole fan-out; every link queue shares the
        // same frame allocation.
        let payload = msg.encode();
        let bytes = Arc::new(frame::encode_frame(FrameKind::Data, &payload));
        for t in targets {
            let _ = self.enqueue(from, *t, &bytes);
        }
    }

    fn messages_sent(&self) -> u64 {
        self.inner.messages_sent.load(Ordering::Relaxed) // relaxed-ok: traffic diagnostics counter
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent.load(Ordering::Relaxed) // relaxed-ok: traffic diagnostics counter
    }

    fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for n in self.inner.nodes.read().values() {
            n.stop.store(true, Ordering::Release);
        }
        for q in self.inner.links.lock().values() {
            q.close();
        }
        // Join until the vec stays empty: accept threads (registered
        // first, popped last) may still push reader handles while we
        // drain, but once they are joined nothing can push anymore.
        loop {
            let handle = self.inner.threads.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

impl<M: Wire + Clone + Send + 'static> TcpTransport<M> {
    /// Common send path: fault checks, then the link queue (spawning
    /// the link's writer on first use).
    fn enqueue(&self, from: NodeId, to: NodeId, bytes: &Arc<Vec<u8>>) -> DmvResult<()> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(DmvError::Network("transport shut down".into()));
        }
        if inner.partitions.read().contains(&(from, to)) {
            // Partitioned links drop silently — the sender cannot tell.
            return Ok(());
        }
        {
            let nodes = inner.nodes.read();
            match nodes.get(&to) {
                Some(n) if !n.alive.load(Ordering::Acquire) => {
                    return Err(DmvError::NoSuchNode(to))
                }
                Some(_) => {}
                None => {
                    if !inner.peers.read().contains_key(&to) {
                        return Err(DmvError::NoSuchNode(to));
                    }
                }
            }
        }
        let queue = {
            let mut links = inner.links.lock();
            match links.get(&(from, to)) {
                Some(q) => Arc::clone(q),
                None => {
                    let q = Arc::new(BoundedQueue::new(inner.cfg.queue_depth));
                    links.insert((from, to), Arc::clone(&q));
                    let stream_id = inner.next_stream.fetch_add(1, Ordering::Relaxed); // relaxed-ok: unique-id allocator, no ordering needed
                    let writer_q = Arc::clone(&q);
                    let writer_inner = Arc::clone(inner);
                    let handle = dmv_check::thread::Builder::new()
                        .name(format!("tcp-writer-{from}-{to}"))
                        .spawn(move || {
                            writer_loop(writer_inner, from, to, writer_q, stream_id);
                        })
                        .expect("spawn writer loop"); // unwrap-ok: thread spawn fails only on OS resource exhaustion at startup
                    inner.threads.lock().push(handle);
                    q
                }
            }
        };
        match queue.push_deadline(Arc::clone(bytes), wall_deadline(inner.cfg.enqueue_timeout)) {
            Ok(()) => {
                inner.messages_sent.fetch_add(1, Ordering::Relaxed); // relaxed-ok: traffic diagnostics counter
                inner.bytes_sent.fetch_add(bytes.len() as u64, Ordering::Relaxed); // relaxed-ok: traffic diagnostics counter
                Ok(())
            }
            Err(PushError::Full) => {
                Err(DmvError::Network(format!("outbound queue {from}->{to} full (backpressure)")))
            }
            Err(PushError::Closed) => Err(DmvError::NoSuchNode(to)),
        }
    }
}

// ---------------------------------------------------------------- endpoint

struct TcpEndpoint<M> {
    node: NodeId,
    alive: Arc<AtomicBool>,
    receiver: crossbeam::channel::Receiver<Envelope<M>>,
    inner: Arc<Inner<M>>,
}

impl<M: Wire + Clone + Send + 'static> Endpoint<M> for TcpEndpoint<M> {
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
        TcpTransport { inner: Arc::clone(&self.inner) }.send_from(self.node, to, msg, size)
    }

    fn recv_timeout(&self, timeout: Duration) -> DmvResult<Envelope<M>> {
        match self.receiver.recv_deadline(wall_deadline(timeout)) {
            Ok(env) => Ok(env),
            Err(_) => {
                if self.is_alive() {
                    Err(DmvError::Network("receive timeout".into()))
                } else {
                    Err(DmvError::NodeFailed(self.node))
                }
            }
        }
    }

    fn try_recv(&self) -> Option<Envelope<M>> {
        self.receiver.try_recv().ok()
    }
}

// ------------------------------------------------------------ accept/read

fn accept_loop<M: Wire + Clone + Send + 'static>(
    inner: Arc<Inner<M>>,
    node: NodeId,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) {
    loop {
        if stop.load(Ordering::Acquire) || inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(POLL));
                let _ = stream.set_write_timeout(Some(WRITE_STALL));
                let reader_inner = Arc::clone(&inner);
                let reader_stop = Arc::clone(&stop);
                let handle = dmv_check::thread::Builder::new()
                    .name(format!("tcp-reader-{node}"))
                    .spawn(move || {
                        reader_loop(reader_inner, node, stream, reader_stop);
                    })
                    .expect("spawn reader loop"); // unwrap-ok: thread spawn fails only on OS resource exhaustion at startup
                inner.threads.lock().push(handle);
            }
            Err(_) => {
                // Nonblocking accept: nothing pending (or a transient
                // error) — poll again shortly.
                // wait-ok: accept-poll period of a listener thread, no message waits on it
                sleep_wall(Duration::from_millis(5));
            }
        }
    }
}

/// Serves one inbound connection: handshake, then decode-and-deliver.
fn reader_loop<M: Wire + Clone + Send + 'static>(
    inner: Arc<Inner<M>>,
    node: NodeId,
    mut stream: TcpStream,
    stop: Arc<AtomicBool>,
) {
    let done = |i: &Inner<M>| stop.load(Ordering::Acquire) || i.shutdown.load(Ordering::Acquire);

    // Handshake: the dialer speaks first; we validate and answer.
    let hello = match read_frame(&mut stream, || done(&inner)) {
        Some((FrameKind::Hello, payload)) => match Hello::decode(&payload) {
            Ok(h) if h.to == node => h,
            // Wrong magic, unsupported version or misrouted connection:
            // refuse by closing (the dialer backs off and retries).
            _ => return,
        },
        _ => return,
    };
    if write_all(
        &mut stream,
        &frame::encode_frame(FrameKind::Hello, &Hello::new(node, hello.from).encode()),
    )
    .is_err()
    {
        return;
    }

    while let Some((kind, payload)) = read_frame(&mut stream, || done(&inner)) {
        match kind {
            FrameKind::Data => {
                let Ok(msg) = decode_exact::<M>(&payload) else {
                    // A frame that passed its checksum but does not
                    // decode means the peer speaks another dialect;
                    // drop the connection rather than guess.
                    return;
                };
                // Defensive receiver-side partition check (the sender
                // already drops; this side covers cross-process use).
                if inner.partitions.read().contains(&(hello.from, node)) {
                    continue;
                }
                let Some(tx) = inner.nodes.read().get(&node).map(|n| n.inbox.clone()) else {
                    return; // node killed or replaced
                };
                if tx.send(Envelope { from: hello.from, msg }).is_err() {
                    return;
                }
            }
            FrameKind::Heartbeat | FrameKind::Hello => {}
            FrameKind::Bye => return,
        }
    }
}

/// Reads one frame, polling so `done` can interrupt. `None` on EOF,
/// teardown, I/O error or malformed frame (the connection is dropped
/// either way; a corrupt TCP stream has no resynchronization point).
fn read_frame(stream: &mut TcpStream, done: impl Fn() -> bool) -> Option<(FrameKind, Vec<u8>)> {
    let mut prefix = [0u8; frame::LEN_PREFIX];
    if !read_exact_poll(stream, &mut prefix, &done)? {
        return None;
    }
    let body = frame::body_len(u32::from_le_bytes(prefix)).ok()?;
    let mut buf = vec![0u8; body];
    if !read_exact_poll(stream, &mut buf, &done)? {
        return None;
    }
    let (kind, payload) = frame::parse_body(&buf).ok()?;
    Some((kind, payload.to_vec()))
}

/// `read_exact` that survives read timeouts without losing bytes (std's
/// `read_exact` may discard a partial read on error). `Some(true)` when
/// `buf` is filled, `Some(false)` on EOF or `done`, `None` on error.
fn read_exact_poll(
    stream: &mut TcpStream,
    buf: &mut [u8],
    done: &impl Fn() -> bool,
) -> Option<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if done() {
            return Some(false);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Some(false),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return None,
        }
    }
    Some(true)
}

fn write_all(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    stream.write_all(bytes)?;
    stream.flush()
}

// ------------------------------------------------------------------ write

/// Capped exponential backoff with equal jitter: half the exponential
/// delay fixed, half drawn uniformly. Deterministic per rng stream.
fn backoff_delay(cfg: &TcpConfig, rng: &mut SmallRng, attempt: u32) -> Duration {
    let base = cfg.connect_backoff_base.as_nanos() as u64;
    let cap = cfg.connect_backoff_cap.as_nanos() as u64;
    let exp = base.saturating_mul(1u64 << attempt.min(20)).min(cap).max(1);
    let half = exp / 2;
    Duration::from_nanos(half + rng.gen_range(0..=exp - half))
}

/// Sleeps `total` in short slices so teardown is never stuck behind a
/// backoff wait.
fn sleep_interruptible(total: Duration, done: &impl Fn() -> bool) {
    let deadline = wall_deadline(total);
    loop {
        if done() {
            return;
        }
        let now: WallInstant = wall_now();
        if now >= deadline {
            return;
        }
        // wait-ok: reconnect backoff of a writer thread whose link is down
        sleep_wall((deadline - now).min(Duration::from_millis(10)));
    }
}

/// Owns one directed link: dials, handshakes, pumps the queue, emits
/// heartbeats when idle, reconnects with backoff on any failure.
fn writer_loop<M: Wire + Clone + Send + 'static>(
    inner: Arc<Inner<M>>,
    from: NodeId,
    to: NodeId,
    queue: LinkQueue,
    stream_id: u64,
) {
    let done = |i: &Inner<M>| i.shutdown.load(Ordering::Acquire);
    let mut rng = rng::derive(inner.cfg.seed, stream_id);
    let mut attempt: u32 = 0;
    // A frame popped but not confirmed written; re-sent on the next
    // connection so a mid-write failure does not lose it.
    let mut pending: Option<Arc<Vec<u8>>> = None;

    'reconnect: loop {
        if done(&inner) {
            return;
        }
        let Some(addr) = inner.peers.read().get(&to).copied() else {
            // Destination gone (killed): drain closure, then exit.
            match queue.pop_deadline(wall_deadline(POLL)) {
                Pop::Closed => return,
                _ => continue 'reconnect,
            }
        };
        let mut stream = match TcpStream::connect_timeout(&addr, WRITE_STALL) {
            Ok(s) => s,
            Err(_) => {
                sleep_interruptible(backoff_delay(&inner.cfg, &mut rng, attempt), &|| done(&inner));
                attempt = attempt.saturating_add(1);
                continue 'reconnect;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL));
        let _ = stream.set_write_timeout(Some(WRITE_STALL));

        // Handshake: send ours, require a valid answer.
        let ok = write_all(
            &mut stream,
            &frame::encode_frame(FrameKind::Hello, &Hello::new(from, to).encode()),
        )
        .is_ok()
            && matches!(
                read_frame(&mut stream, || done(&inner)),
                Some((FrameKind::Hello, payload))
                    if Hello::decode(&payload).map(|h| h.from == to).unwrap_or(false)
            );
        if !ok {
            sleep_interruptible(backoff_delay(&inner.cfg, &mut rng, attempt), &|| done(&inner));
            attempt = attempt.saturating_add(1);
            continue 'reconnect;
        }
        attempt = 0;

        loop {
            let next = match pending.take() {
                Some(f) => Pop::Item(f),
                None => queue.pop_deadline(wall_deadline(inner.cfg.heartbeat_interval)),
            };
            match next {
                Pop::Item(frame_bytes) => {
                    if write_all(&mut stream, &frame_bytes).is_err() {
                        pending = Some(frame_bytes);
                        continue 'reconnect;
                    }
                }
                Pop::Timeout => {
                    if write_all(&mut stream, &frame::encode_frame(FrameKind::Heartbeat, &[]))
                        .is_err()
                    {
                        continue 'reconnect;
                    }
                }
                Pop::Closed => {
                    let _ = write_all(&mut stream, &frame::encode_frame(FrameKind::Bye, &[]));
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_stream() {
        let cfg = TcpConfig { seed: 42, ..TcpConfig::default() };
        let delays = |stream: u64| -> Vec<Duration> {
            let mut r = rng::derive(cfg.seed, stream);
            (0..12).map(|a| backoff_delay(&cfg, &mut r, a)).collect()
        };
        assert_eq!(delays(3), delays(3), "same stream must replay identically");
        assert_ne!(delays(3), delays(4), "streams must be independent");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = TcpConfig { seed: 1, ..TcpConfig::default() };
        let mut r = rng::derive(cfg.seed, 0);
        for attempt in 0..32 {
            let d = backoff_delay(&cfg, &mut r, attempt);
            assert!(d <= cfg.connect_backoff_cap, "attempt {attempt}: {d:?} over cap");
            // Equal jitter keeps at least half the exponential floor.
            if attempt == 0 {
                assert!(d >= cfg.connect_backoff_base / 2);
            }
        }
        // Late attempts concentrate near the cap (>= cap/2 by equal jitter).
        let late = backoff_delay(&cfg, &mut r, 30);
        assert!(late >= cfg.connect_backoff_cap / 2);
    }
}
