//! Outside-in tracing: spans recorded from the benchmark's own files
//! around calls into each layer, kept in per-thread vectors and written
//! out after the run.
//!
//! Three wrappers produce them: the client loop (interaction, plan and
//! session-call spans), [`TimedRunner`] around the statement runner a
//! session hands the interaction closure, and [`TracedTransport`]
//! around the simnet fabric. Only client threads record spans — they
//! run the whole read path and the master commit pipeline on their own
//! stack — so a span's parent is always the enclosing call on the same
//! thread. Other threads (the GC sweeper) reach the transport wrapper
//! too; for them it keeps counts only.

use dmv::common::error::DmvResult;
use dmv::common::ids::NodeId;
use dmv::core::{Msg, WriteSet};
use dmv::net::{DynTransport, Endpoint, Transport};
use dmv::sql::{Query, ResultSet, StatementRunner};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process — one time base
/// for latencies, spans and sampler timestamps.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed call. `id` is unique within the run (thread index in the
/// high half); `parent` is the enclosing span on the same thread or 0;
/// spans of one interaction share `txn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub txn: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread's span buffer: spans in start order plus the stack of open
/// ones.
struct Recorder {
    thread: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    txn: u64,
    /// Whether the current interaction records spans (the traced run
    /// alternates traced and untraced slices to price the tracing).
    on: bool,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Gives the calling thread a span buffer with room for `capacity`
/// spans (pre-allocated so recording does not allocate mid-run).
pub fn install_recorder(thread: u64, capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            thread,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            txn: 0,
            on: false,
        });
    });
}

/// Removes the calling thread's buffer and returns its spans.
pub fn take_spans() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// Starts the next interaction on this thread: spans opened from now on
/// carry `txn` and are recorded only if `on`.
pub fn begin_txn(txn: u64, on: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.txn = txn;
            rec.on = on;
        }
    });
}

/// An open span; closes when dropped. Inert on threads without a
/// recorder and during untraced interactions.
pub struct Open(bool);

/// Opens a span under the innermost open span of this thread.
pub fn span(name: &'static str) -> Open {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut().filter(|rec| rec.on) else { return Open(false) };
        let idx = rec.spans.len();
        let id = (rec.thread << 32) | (idx as u64 + 1);
        let parent = rec.open.last().map_or(0, |&p| rec.spans[p].id);
        rec.open.push(idx);
        rec.spans.push(Span { id, parent, txn: rec.txn, name, start_ns: now_ns(), end_ns: 0 });
        Open(true)
    })
}

impl Open {
    /// Closes the span under another name — for a span whose meaning is
    /// known only by what followed it.
    pub fn close_as(mut self, name: &'static str) {
        self.close(Some(name));
    }

    fn close(&mut self, rename: Option<&'static str>) {
        if !std::mem::take(&mut self.0) {
            return;
        }
        let end = now_ns();
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                if let Some(idx) = rec.open.pop() {
                    rec.spans[idx].end_ns = end;
                    if let Some(name) = rename {
                        rec.spans[idx].name = name;
                    }
                }
            }
        });
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        self.close(None);
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent run one after another on one
/// thread, so their durations add without overlap.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut own: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.duration_ns())).collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(t) = own.get_mut(&s.parent) {
            *t = t.saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Writes spans as JSON lines: `{id, parent, txn, name, start_ns, end_ns}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"txn\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.txn, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Times every statement the interaction closure runs.
pub struct TimedRunner<'a> {
    pub inner: &'a mut dyn StatementRunner,
}

impl StatementRunner for TimedRunner<'_> {
    fn run(&mut self, q: &Query) -> DmvResult<ResultSet> {
        let _s = span(if q.is_write() { "sql.statement.update" } else { "sql.statement.read" });
        self.inner.run(q)
    }
}

/// Write-sets kept for the wire and diff probes.
pub const WRITESET_SAMPLE: usize = 1000;

/// Counts taken at the transport boundary while tracing is on.
#[derive(Debug, Default)]
pub struct NetCounts {
    /// Frames carrying write-sets.
    pub writeset_frames: AtomicU64,
    /// Write-sets carried by those frames.
    pub writesets: AtomicU64,
}

/// [`Transport`] decorator over the fabric the cluster runs on: spans
/// around `send_from`/`broadcast` on client threads, write-sets per
/// frame, and a sample of the real write-sets that crossed it. Message
/// and byte totals are the wrapped fabric's own counters.
pub struct TracedTransport {
    inner: DynTransport<Msg>,
    on: Arc<AtomicBool>,
    pub counts: NetCounts,
    sample: Mutex<Vec<Arc<WriteSet>>>,
}

impl TracedTransport {
    /// Wraps `inner`; counting and sampling follow the shared `on` flag.
    pub fn new(inner: DynTransport<Msg>, on: Arc<AtomicBool>) -> Self {
        TracedTransport {
            inner,
            on,
            counts: NetCounts::default(),
            sample: Mutex::new(Vec::with_capacity(WRITESET_SAMPLE)),
        }
    }

    /// The write-sets sampled so far (at most [`WRITESET_SAMPLE`]).
    pub fn sampled_writesets(&self) -> Vec<Arc<WriteSet>> {
        self.sample.lock().expect("sample lock: pushes cannot panic").clone()
    }

    fn is_on(&self) -> bool {
        // relaxed-ok: sampling switch; a late observation mislabels one call, nothing is ordered on it
        self.on.load(Ordering::Relaxed)
    }

    fn note_frame(&self, msg: &Msg) {
        let sets: &[Arc<WriteSet>] = match msg {
            Msg::WriteSet(ws) => std::slice::from_ref(ws),
            Msg::WriteSetBatch(b) => &b.sets,
            _ => return,
        };
        // relaxed-ok: statistics counters, read after the run
        self.counts.writeset_frames.fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: statistics counters, read after the run
        self.counts.writesets.fetch_add(sets.len() as u64, Ordering::Relaxed);
        let mut sample = self.sample.lock().expect("sample lock: pushes cannot panic");
        let room = WRITESET_SAMPLE - sample.len();
        sample.extend(sets.iter().take(room).cloned());
    }
}

impl Transport<Msg> for TracedTransport {
    fn register(&self, node: NodeId) -> Box<dyn Endpoint<Msg>> {
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

    fn send_from(&self, from: NodeId, to: NodeId, msg: Msg, size: usize) -> DmvResult<()> {
        if !self.is_on() {
            return self.inner.send_from(from, to, msg, size);
        }
        let _s = span("net.send_from");
        self.note_frame(&msg);
        self.inner.send_from(from, to, msg, size)
    }

    fn broadcast(&self, from: NodeId, targets: &[NodeId], msg: &Msg, size: usize) {
        if !self.is_on() {
            return self.inner.broadcast(from, targets, msg, size);
        }
        let _s = span("net.broadcast");
        self.note_frame(msg);
        self.inner.broadcast(from, targets, msg, size);
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

#[cfg(test)]
mod tests {
    use super::*;
    use dmv::common::error::DmvError;
    use dmv::net::SimnetTransport;
    use std::time::Duration;

    fn s(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span { id, parent, txn: 1, name: "t", start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 ─ a 10..40 ─ a1 15..25
        //              └ b 50..90
        let spans = [s(1, 0, 0, 100), s(2, 1, 10, 40), s(3, 2, 15, 25), s(4, 1, 50, 90)];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 30 - 40);
        assert_eq!(own[&2], 30 - 10);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 40);
        // Self times of a tree add up to the root's duration.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_spans_and_respects_the_switch() {
        install_recorder(3, 16);
        begin_txn(7, true);
        {
            let _root = span("root");
            {
                let _child = span("child");
            }
            let _sibling = span("sibling");
        }
        begin_txn(8, false);
        {
            let _unrecorded = span("off");
        }
        let spans = take_spans();
        assert_eq!(spans.len(), 3);
        let (root, child, sibling) = (spans[0], spans[1], spans[2]);
        assert_eq!(root.id >> 32, 3);
        assert_eq!((root.parent, child.parent, sibling.parent), (0, root.id, root.id));
        assert!(spans.iter().all(|s| s.txn == 7 && s.end_ns >= s.start_ns));
        assert!(root.end_ns >= sibling.end_ns && child.end_ns <= sibling.start_ns);
        // No recorder installed any more: spans are inert.
        let _none = span("nothing");
        assert!(take_spans().is_empty());
    }

    fn traced() -> (Arc<TracedTransport>, Arc<AtomicBool>) {
        let on = Arc::new(AtomicBool::new(true));
        let inner: DynTransport<Msg> = Arc::new(SimnetTransport::zero());
        (Arc::new(TracedTransport::new(inner, Arc::clone(&on))), on)
    }

    fn ack(seq: u64) -> Msg {
        Msg::CumAck { seq }
    }

    fn recv_seq(ep: &dyn Endpoint<Msg>) -> Option<(NodeId, u64)> {
        match ep.recv_timeout(Duration::from_millis(200)) {
            Ok(env) => match env.msg {
                Msg::CumAck { seq } => Some((env.from, seq)),
                _ => None,
            },
            Err(_) => None,
        }
    }

    // The four tests below are the transport semantics of
    // `crates/net/src/transport.rs` (exercised cluster-wide by
    // tests/transport_conformance.rs) that the decorator must not bend.

    #[test]
    fn per_link_fifo_through_send_from_broadcast_and_endpoint_sends() {
        let (t, _) = traced();
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        let ep_a = t.register(a);
        let ep_b = t.register(b);
        let _ep_c = t.register(c);
        for seq in 0..50 {
            match seq % 3 {
                0 => t.send_from(a, b, ack(seq), 8).unwrap(),
                1 => t.broadcast(a, &[b, c], &ack(seq), 8),
                _ => ep_a.send(b, ack(seq), 8).unwrap(),
            }
        }
        for seq in 0..50 {
            assert_eq!(recv_seq(&*ep_b), Some((a, seq)));
        }
        assert!(ep_b.try_recv().is_none());
        // Two targets per broadcast: the inner fabric saw every copy.
        assert_eq!(t.messages_sent(), 17 + 17 * 2 + 16);
    }

    #[test]
    fn send_to_dead_or_unknown_node_fails_and_broadcast_skips_it() {
        let (t, _) = traced();
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        let _ep_a = t.register(a);
        let ep_b = t.register(b);
        let _ep_c = t.register(c);
        assert_eq!(t.send_from(a, NodeId(9), ack(0), 8), Err(DmvError::NoSuchNode(NodeId(9))));
        t.kill(c);
        assert!(!t.is_alive(c) && t.is_alive(b));
        assert_eq!(t.send_from(a, c, ack(1), 8), Err(DmvError::NoSuchNode(c)));
        // A dead target mid-fan-out is skipped; the live one still gets it.
        t.broadcast(a, &[c, b], &ack(2), 8);
        assert_eq!(recv_seq(&*ep_b), Some((a, 2)));
    }

    #[test]
    fn killed_endpoint_drains_then_reports_node_failed() {
        let (t, _) = traced();
        let (a, b) = (NodeId(1), NodeId(2));
        let ep_a = t.register(a);
        let ep_b = t.register(b);
        t.send_from(a, b, ack(5), 8).unwrap();
        t.kill(b);
        assert!(!ep_b.is_alive());
        assert_eq!(recv_seq(&*ep_b), Some((a, 5)));
        assert!(matches!(
            ep_b.recv_timeout(Duration::from_millis(20)),
            Err(DmvError::NodeFailed(n)) if n == b
        ));
        // Sends from a killed endpoint fail too.
        t.kill(a);
        assert!(matches!(ep_a.send(b, ack(6), 8), Err(DmvError::NodeFailed(n)) if n == a));
    }

    #[test]
    fn partitioned_sends_succeed_silently_and_heal_restores_delivery() {
        let (t, on) = traced();
        let (a, b) = (NodeId(1), NodeId(2));
        let _ep_a = t.register(a);
        let ep_b = t.register(b);
        t.partition(a, b);
        assert_eq!(t.send_from(a, b, ack(1), 8), Ok(()));
        t.broadcast(a, &[b], &ack(2), 8);
        assert!(ep_b.recv_timeout(Duration::from_millis(20)).is_err());
        t.heal(a, b);
        // Same semantics with the tracing switch off (pure delegation).
        on.store(false, Ordering::SeqCst);
        assert_eq!(t.send_from(a, b, ack(3), 8), Ok(()));
        assert_eq!(recv_seq(&*ep_b), Some((a, 3)));
    }

    #[test]
    fn writesets_are_counted_per_frame_and_sampled() {
        use dmv::common::ids::TxnId;
        use dmv::common::version::VersionVector;
        use dmv::core::WriteSetBatch;
        let (t, _) = traced();
        let (a, b) = (NodeId(1), NodeId(2));
        let _ep_a = t.register(a);
        let _ep_b = t.register(b);
        let ws = |seq| {
            Arc::new(WriteSet {
                txn: TxnId::new(a, seq),
                seq,
                versions: VersionVector::new(1),
                pages: Vec::new(),
            })
        };
        t.broadcast(a, &[b], &Msg::WriteSet(ws(1)), 30);
        let batch = Msg::WriteSetBatch(Arc::new(WriteSetBatch { sets: vec![ws(2), ws(3), ws(4)] }));
        t.broadcast(a, &[b], &batch, 90);
        t.broadcast(a, &[b], &ack(9), 8);
        assert_eq!(t.counts.writeset_frames.load(Ordering::SeqCst), 2);
        assert_eq!(t.counts.writesets.load(Ordering::SeqCst), 4);
        let seqs: Vec<u64> = t.sampled_writesets().iter().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
    }
}
