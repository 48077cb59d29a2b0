//! A replica of the in-memory tier: one `MemDb` plus its replication
//! machinery. The same node type plays every role — master (update
//! execution, pre-commit broadcast), active slave (tagged reads), spare
//! backup (stream subscription only) — and changes role during
//! reconfiguration, exactly as the paper's nodes do. A node does not
//! record its role: it is the [`crate::membership`] list the node is on.

use crate::ack::AckTracker;
use crate::applier::PendingApplier;
use crate::messages::{Msg, PageBatch, WriteSet, WriteSetBatch};
use crate::reuse::ResultStore;
use crate::trace::{SharedTap, TraceEvent};
use dmv_common::clock::SimClock;
use dmv_common::config::{BufferBudget, ConcurrencyMode, CpuProfile};
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{NodeId, PageId};
use dmv_common::version::VersionVector;
use dmv_memdb::{MemDb, MemDbOptions};
use dmv_net::{DynTransport, Endpoint};
use dmv_pagestore::checkpoint::{fuzzy_checkpoint, CheckpointImage};
use dmv_pagestore::store::Residency;
use dmv_sql::exec::{ResultSet, StatementRunner};
use dmv_sql::query::Query;
use dmv_sql::schema::Schema;
// Shimmed primitives: parking_lot/std in normal builds, model-checked
// under `--cfg dmv_check` (see crates/check).
use dmv_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use dmv_check::sync::{Condvar, Mutex, RwLock};
use dmv_common::clock::wall_deadline;
use dmv_common::wire::Wire;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for one replica node.
#[derive(Clone)]
pub struct ReplicaConfig {
    /// Clock shared by the whole cluster.
    pub clock: SimClock,
    /// CPU cost model for query execution.
    pub cpu: CpuProfile,
    /// Page-in latency (mmap fault) for non-resident pages.
    pub fault_latency: Duration,
    /// Bound on waiting for replication acks / missing versions (wall).
    pub ack_timeout: Duration,
    /// Resident-byte budget for this node's page store (see
    /// [`BufferBudget`]); unbounded by default.
    pub buffer_budget: BufferBudget,
    /// How the master finds conflicts between update transactions:
    /// per-page 2PL locks (the paper's) or first-committer-wins
    /// validation.
    pub concurrency: ConcurrencyMode,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            clock: SimClock::default(),
            cpu: CpuProfile::zero(),
            fault_latency: Duration::ZERO,
            ack_timeout: Duration::from_secs(2),
            buffer_budget: BufferBudget::unbounded(),
            concurrency: ConcurrencyMode::TwoPhase,
        }
    }
}

/// Counters exposed by a replica.
#[derive(Debug, Default)]
pub struct ReplicaStats {
    /// Update transactions committed (as master).
    pub commits: AtomicU64,
    /// Read-only transactions served (as slave).
    pub reads: AtomicU64,
    /// Reads aborted by version inconsistency on this node.
    pub version_aborts: AtomicU64,
    /// Tagged selects answered from the node's [`ResultStore`].
    pub reused: AtomicU64,
}

/// Coalescer state for the master's group-commit pipeline.
struct BatchState {
    /// Write-sets committed but not yet broadcast, in seq order.
    queue: Vec<Arc<WriteSet>>,
    /// A flusher thread is draining the queue. Set only under the batch
    /// lock by the thread that will flush; cleared by that thread when
    /// the queue is empty. This single-flusher invariant is what keeps
    /// broadcasts totally ordered by seq without a separate lock.
    in_flight: bool,
    /// Test hook (DST): while true, pushes accumulate and nobody
    /// becomes flusher; `release_flush` drains on the caller's thread.
    hold: bool,
}

/// A [`StatementRunner`] bound to one open transaction on a replica,
/// failing fast if the node is killed mid-transaction. A tagged select
/// may be answered from the node's [`ResultStore`].
struct NodeRunner<'a, 'db> {
    node: &'a ReplicaNode,
    inner: &'a mut dmv_memdb::Txn<'db>,
}

impl StatementRunner for NodeRunner<'_, '_> {
    fn run(&mut self, q: &Query) -> DmvResult<ResultSet> {
        if !self.node.is_alive() {
            return Err(DmvError::NodeFailed(self.node.id));
        }
        let (rs, reused) = self.node.results.answer(self.inner, q, &self.node.applier)?;
        if reused {
            self.node.stats.reused.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter, read only for reporting
        }
        Ok(rs)
    }
}

/// One in-memory database replica.
pub struct ReplicaNode {
    id: NodeId,
    db: Arc<MemDb>,
    applier: Arc<PendingApplier>,
    /// Stored answers to tagged selects (slave side).
    results: ResultStore,
    net: DynTransport<Msg>,
    clock: SimClock,
    alive: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    // master state
    dbversion: Mutex<VersionVector>,
    /// The commit critical section; its value is the commit sequence
    /// counter, so seq assignment order *is* commit order by
    /// construction.
    commit_seq: Mutex<u64>,
    targets: RwLock<Vec<NodeId>>,
    /// Write-set coalescer. A committer pushes while still holding
    /// `commit_seq` (lock chaining — queue order is seq order) and the
    /// first pusher to find no flush in flight becomes the flusher,
    /// draining the queue batch by batch until it is empty. No timers:
    /// a lone commit flushes itself immediately; under load, commits
    /// accumulated during the in-flight broadcast go out as one
    /// [`Msg::WriteSetBatch`] the moment it completes.
    batch: Mutex<BatchState>,
    /// Per-peer cumulative ack watermarks (replaces per-txn ack sets).
    acks: AckTracker,
    ack_timeout: Duration,
    // migration (joiner side)
    migration_done: Mutex<bool>,
    migration_cv: Condvar,
    // checkpointing
    checkpoint: Mutex<CheckpointImage>,
    /// Operation counters.
    pub stats: ReplicaStats,
    /// Test hook (DST `kill-master-mid-validation`): when armed, the
    /// next update transaction kills this node after its validation and
    /// install but before any broadcast.
    kill_mid_validation: AtomicBool,
    receiver: Mutex<Option<dmv_check::thread::JoinHandle<()>>>,
    /// Optional history tap (deterministic simulation testing).
    tap: RwLock<Option<SharedTap>>,
}

/// True if `ws` carries one version per table of a `tables`-table
/// schema and every page it names belongs to one of them.
fn fits_schema(ws: &WriteSet, tables: usize) -> bool {
    ws.versions.len() == tables && ws.pages.iter().all(|(id, _)| usize::from(id.table.0) < tables)
}

impl ReplicaNode {
    /// Creates a replica, registers it on the transport and starts its
    /// receiver thread. Any [`dmv_net::Transport`] works: the simulated
    /// fabric for experiments, real TCP for multi-process deployments.
    pub fn start(
        id: NodeId,
        schema: Schema,
        net: DynTransport<Msg>,
        cfg: ReplicaConfig,
    ) -> Arc<Self> {
        let residency = Residency::new(cfg.clock, cfg.fault_latency);
        let db = Arc::new(MemDb::new(
            schema.clone(),
            MemDbOptions {
                node: id,
                residency,
                cpu: cfg.cpu,
                clock: cfg.clock,
                concurrency: cfg.concurrency,
            },
        ));
        let applier =
            Arc::new(PendingApplier::new(Arc::clone(db.store()), schema.len(), cfg.ack_timeout));
        db.set_gate(Arc::clone(&applier) as Arc<dyn dmv_memdb::ReadGate>);
        db.store().set_budget_bytes(cfg.buffer_budget.max_resident_bytes as u64);
        let node = Arc::new(ReplicaNode {
            id,
            db,
            applier,
            results: ResultStore::new(),
            net: Arc::clone(&net),
            clock: cfg.clock,
            alive: Arc::new(AtomicBool::new(true)),
            shutdown: Arc::new(AtomicBool::new(false)),
            dbversion: Mutex::new(VersionVector::new(schema.len())),
            commit_seq: Mutex::new(0),
            targets: RwLock::new(Vec::new()),
            batch: Mutex::new(BatchState { queue: Vec::new(), in_flight: false, hold: false }),
            acks: AckTracker::new(),
            ack_timeout: cfg.ack_timeout,
            migration_done: Mutex::new(false),
            migration_cv: Condvar::new(),
            checkpoint: Mutex::new(CheckpointImage::empty()),
            stats: ReplicaStats::default(),
            kill_mid_validation: AtomicBool::new(false),
            receiver: Mutex::new(None),
            tap: RwLock::new(None),
        });
        dmv_check::race::label(&node.dbversion, "dbversion");
        dmv_check::race::label(&node.commit_seq, "commit_seq");
        dmv_check::race::label(&node.targets, "targets");
        dmv_check::race::label(&node.batch, "batch");
        let endpoint = net.register(id);
        let weak = Arc::downgrade(&node);
        let handle = dmv_check::thread::Builder::new()
            .name(format!("replica-{id}"))
            .spawn(move || {
                while let Some(node) = weak.upgrade() {
                    if node.shutdown.load(Ordering::Acquire) || !endpoint.is_alive() {
                        break;
                    }
                    match endpoint.recv_timeout(Duration::from_millis(20)) {
                        Ok(env) => node.handle_msg(env.from, env.msg, &*endpoint),
                        Err(DmvError::NodeFailed(_)) => break,
                        Err(_) => {} // timeout: loop
                    }
                    drop(node);
                }
            })
            .expect("spawn receiver"); // unwrap-ok: thread spawn fails only on OS resource exhaustion at startup
        *node.receiver.lock() = Some(handle);
        node
    }

    fn handle_msg(&self, from: NodeId, msg: Msg, endpoint: &dyn Endpoint<Msg>) {
        let tables = self.db.schema().len();
        match msg {
            Msg::WriteSet(ws) if fits_schema(&ws, tables) => {
                self.enqueue_and_ack(from, std::slice::from_ref(&ws), endpoint);
            }
            Msg::WriteSetBatch(batch) if batch.sets.iter().all(|ws| fits_schema(ws, tables)) => {
                self.enqueue_and_ack(from, &batch.sets, endpoint);
            }
            Msg::CumAck { seq } => {
                if self.acks.record(from, seq) {
                    // The targets guard dies with this statement, before
                    // `acked_by_all` may take the ack tracker's wait lock.
                    let live = self.acks.min_watermark(
                        self.targets.read().iter().copied().filter(|t| self.net.is_alive(*t)),
                    );
                    self.acks.acked_by_all(live.unwrap_or(seq));
                }
            }
            Msg::PageBatch(batch) => {
                self.apply_page_batch(&batch);
                if batch.done {
                    *self.migration_done.lock() = true;
                    self.migration_cv.notify_all();
                }
            }
            Msg::PageIdHint { pages } => {
                // Touch the hinted pages so they stay swapped in (§4.5).
                let store = self.db.store();
                for id in pages {
                    if let Some(cell) = store.get(id) {
                        store.fault_in(cell);
                    }
                }
            }
            // A frame shaped for another schema is dropped unread: the
            // applier indexes vectors by table and merges only equal
            // lengths, and a panic here would leave the node alive but
            // deaf, every commit then waiting out its ack timeout.
            Msg::WriteSet(_) | Msg::WriteSetBatch(_) => {}
        }
    }

    /// Slave side of replication: enqueue the frame's write-sets (one
    /// shard-lock pass for the whole batch) and acknowledge the last
    /// seq cumulatively. The master sends frames in strictly increasing
    /// seq order over a FIFO link, so the last seq of a frame *is* the
    /// highest contiguously received seq — no per-sender bookkeeping.
    fn enqueue_and_ack(&self, from: NodeId, sets: &[Arc<WriteSet>], endpoint: &dyn Endpoint<Msg>) {
        let Some(last) = sets.last() else { return };
        self.applier.enqueue_batch(sets);
        let ack = Msg::CumAck { seq: last.seq };
        let size = ack.encoded_len();
        let _ = endpoint.send(from, ack, size);
    }

    fn apply_page_batch(&self, batch: &PageBatch) {
        let store = self.db.store();
        for (id, version, image) in &batch.pages {
            // A page the joiner does not have at all must be installed
            // even at version 0 (tables untouched since the initial
            // load): a just-created cell is also at version 0, and the
            // newer-than check alone would silently drop the image.
            let absent = !store.contains(*id);
            let cell = store.get_or_create(*id);
            let mut page = cell.latch.write();
            if absent || *version > page.version {
                page.set_image(dmv_pagestore::page::image_of(image));
                page.version = *version;
            }
            drop(page);
            // Migrated pages arrive over the network into memory.
            cell.set_resident(true);
        }
        self.applier.new_lineage();
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's database.
    pub fn db(&self) -> &Arc<MemDb> {
        &self.db
    }

    /// The node's pending-update applier.
    pub fn applier(&self) -> &Arc<PendingApplier> {
        &self.applier
    }

    /// Installs a history tap on this node.
    pub fn set_trace_tap(&self, tap: SharedTap) {
        *self.tap.write() = Some(tap);
    }

    fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(tap) = self.tap.read().as_ref() {
            tap.record(f());
        }
    }

    /// True until killed.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Replaces the replication target list (on a master). Waiting
    /// commits are woken to re-evaluate against the new list, so a
    /// commit blocked on a just-removed target completes immediately
    /// instead of timing out.
    pub fn set_targets(&self, t: Vec<NodeId>) {
        *self.targets.write() = t;
        self.acks.notify();
    }

    /// Adds a replication target, returning the current database version
    /// vector — the join protocol's "subscribe and obtain the current
    /// DBVersion" step. Holding `commit_seq` guarantees every commit
    /// with a version beyond the returned vector sees the new target in
    /// its snapshot; earlier commits may still be on the wire, but their
    /// effects reach the joiner through data migration, which waits on a
    /// support slave until the returned vector has fully arrived.
    pub fn subscribe(&self, node: NodeId) -> VersionVector {
        let g = self.commit_seq.lock();
        // Everything at or below the current commit seq reaches the
        // joiner via data migration, not acks: floor its watermark so
        // in-flight commits don't wait on acks it will never send.
        self.acks.set_floor(node, *g);
        let mut t = self.targets.write();
        if !t.contains(&node) {
            t.push(node);
        }
        self.dbversion.lock().clone()
    }

    /// Removes a replication target, dropping its ack state and waking
    /// any commit blocked on it (a dead target must not stall commits
    /// until the ack timeout).
    pub fn unsubscribe(&self, node: NodeId) {
        self.targets.write().retain(|n| *n != node);
        self.acks.remove(node);
    }

    /// Reclaims this node's pending queues up to `wm` (eager apply +
    /// reap), emitting the trace event. Idempotent and monotone-safe:
    /// a second pass at the same or an older watermark is a no-op.
    pub fn reclaim_local(&self, wm: &VersionVector) -> usize {
        let reaped = self.applier.reclaim_up_to(wm);
        self.emit(|| TraceEvent::Reclaimed { node: self.id, watermark: wm.clone(), reaped });
        reaped
    }

    /// Arms the `kill-master-mid-validation` test hook: the next update
    /// transaction kills this node after its validation and install and
    /// before any broadcast.
    pub fn arm_kill_mid_validation(&self) {
        self.kill_mid_validation.store(true, Ordering::Release);
    }

    /// The master's current database version vector.
    pub fn dbversion(&self) -> VersionVector {
        self.dbversion.lock().clone()
    }

    /// Test hook (DST): suspends flushing so commits accumulate in the
    /// coalescer queue without going on the wire. Pair with
    /// [`ReplicaNode::release_flush`].
    pub fn hold_flush(&self) {
        self.batch.lock().hold = true;
    }

    /// Test hook (DST): resumes flushing and drains any held queue on
    /// the calling thread — so a fault trigger armed on this node's
    /// outgoing sends fires deterministically mid-batch.
    pub fn release_flush(&self) {
        let flusher = {
            let mut b = self.batch.lock();
            b.hold = false;
            let take_over = !b.in_flight && !b.queue.is_empty();
            if take_over {
                b.in_flight = true;
            }
            take_over
        };
        if flusher {
            self.flush_batches();
        }
    }

    /// Write-sets committed but not yet broadcast (test hook).
    pub fn pending_flush_count(&self) -> usize {
        self.batch.lock().queue.len()
    }

    /// Executes an update transaction as master via a statement-driving
    /// closure (later statements may depend on earlier results): run
    /// under the engine's concurrency mode, then the Figure 2 pre-commit
    /// sequence (install, write-set, atomic version increment, broadcast,
    /// ack wait), then local commit and lock release. Returns the new
    /// version vector (all zero for a transaction that wrote nothing).
    ///
    /// # Errors
    ///
    /// Statement errors abort the transaction; `NodeFailed` if this node
    /// is killed mid-transaction (its effects are discarded).
    pub fn execute_update_with(
        &self,
        f: &mut dyn FnMut(&mut dyn StatementRunner) -> DmvResult<()>,
    ) -> DmvResult<VersionVector> {
        if !self.is_alive() {
            return Err(DmvError::NodeFailed(self.id));
        }
        let mut txn = self.db.begin_update();
        {
            let mut runner = NodeRunner { node: self, inner: &mut txn };
            if let Err(e) = f(&mut runner) {
                txn.abort();
                return Err(e);
            }
        }
        if !txn.has_writes() {
            txn.commit(None);
            // Nothing written, no version produced: the all-zero vector
            // merges into the scheduler's `latest` as a no-op. Not
            // `dbversion` — it carries the bumps of commits still in
            // their ack wait, which nobody may be told about yet.
            return Ok(VersionVector::new(self.db.schema().len()));
        }
        // Pre-commit (Figure 2) with group commit: the commit_seq
        // section covers diff capture, the version-vector bump and the
        // push into the coalescer queue — so queue order is seq order.
        // The first pusher to find no flush in flight becomes the
        // flusher: a lone commit under low load broadcasts itself
        // immediately (no added latency), while commits arriving during
        // an in-flight broadcast coalesce into one WriteSetBatch frame
        // flushed the moment it completes. The ack wait runs with no
        // commit-path lock held at all.
        let mut seq_guard = self.commit_seq.lock();
        // Commit point: validation, then install of the private copy-on-
        // write images. Under 2PL the page locks make validation pass; an
        // MVCC conflict aborts here — no version bump, nothing broadcast —
        // as a retryable VersionConflict.
        if let Err(e) = txn.mvcc_install() {
            drop(seq_guard);
            txn.abort();
            self.stats.version_aborts.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter, read only for reporting
            return Err(e);
        }
        // Test hook: die after validation/install, before any broadcast.
        // A new master's discard_above erases the transaction cluster-
        // wide; the local install on this now-dead node is unreachable.
        if self.kill_mid_validation.swap(false, Ordering::AcqRel) {
            drop(seq_guard);
            txn.abort();
            self.kill();
            return Err(DmvError::NodeFailed(self.id));
        }
        let pages = txn.precommit();
        let mut dbv = self.dbversion.lock();
        for t in txn.write_tables() {
            dbv.bump(t);
        }
        let new_v = dbv.clone();
        drop(dbv);
        *seq_guard += 1;
        let seq = *seq_guard;
        // The one deep allocation per commit: every target link and
        // every slave queue shares this Arc.
        let ws = Arc::new(WriteSet { txn: txn.id(), seq, versions: new_v.clone(), pages });
        let flusher = {
            let mut b = self.batch.lock();
            b.queue.push(ws);
            let take_over = !b.in_flight && !b.hold;
            if take_over {
                b.in_flight = true;
            }
            take_over
        };
        drop(seq_guard);
        if flusher {
            self.flush_batches();
        }
        self.wait_for_acks(seq);
        if !self.is_alive() {
            // Failed before confirming: a new master will tell replicas to
            // discard the partially propagated transaction.
            txn.abort();
            return Err(DmvError::NodeFailed(self.id));
        }
        txn.commit(Some(&new_v));
        self.stats.commits.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter, read only for reporting
        Ok(new_v)
    }

    /// Batch form of [`ReplicaNode::execute_update_with`]: executes the
    /// given statements in order and returns their results plus the new
    /// version vector.
    ///
    /// # Errors
    ///
    /// Same as [`ReplicaNode::execute_update_with`].
    pub fn execute_update(&self, queries: &[Query]) -> DmvResult<(Vec<ResultSet>, VersionVector)> {
        let mut results = Vec::with_capacity(queries.len());
        let version = self.execute_update_with(&mut |r| {
            for q in queries {
                results.push(r.run(q)?);
            }
            Ok(())
        })?;
        Ok((results, version))
    }

    /// Drains the coalescer queue, one bounded batch per iteration,
    /// until it is empty; only the thread that set `in_flight` runs
    /// this, so broadcasts leave in seq order with no extra lock. The
    /// batch lock is never held across a broadcast.
    fn flush_batches(&self) {
        // There are no timer ticks: a commit that finds no broadcast in
        // flight flushes itself at once, so these bounds only cap how
        // much one flush may carry; what is over waits for the next.
        //
        // Most write-sets per `WriteSetBatch` frame; past ~64 the
        // per-message latency is already > 98 % amortized.
        const MAX_BATCH_COUNT: usize = 64;
        // Soft cap on one frame's encoded bytes (an oversized write-set
        // still ships alone): bounds head-of-line blocking on the
        // serialization pipe and the burst a slave must buffer.
        const MAX_BATCH_BYTES: usize = 1 << 20;
        loop {
            let sets = {
                let mut b = self.batch.lock();
                if b.queue.is_empty() {
                    b.in_flight = false;
                    return;
                }
                let mut take = 1;
                let mut bytes = b.queue[0].encoded_len();
                while take < b.queue.len()
                    && take < MAX_BATCH_COUNT
                    && bytes + b.queue[take].encoded_len() <= MAX_BATCH_BYTES
                {
                    bytes += b.queue[take].encoded_len();
                    take += 1;
                }
                let rest = b.queue.split_off(take);
                std::mem::replace(&mut b.queue, rest)
            };
            let targets_now = self.targets.read().clone();
            // One fan-out call: the transport encodes once and shares
            // the bytes across links; a dead target is skipped
            // (reconfiguration handles it). A singleton flush keeps the
            // plain WriteSet frame so low-load wire cost is unchanged.
            let msg = match sets.len() {
                1 => Msg::WriteSet(sets.into_iter().next().expect("len checked")), // unwrap-ok: length is 1
                _ => Msg::WriteSetBatch(Arc::new(WriteSetBatch { sets })),
            };
            let size = msg.encoded_len();
            self.net.broadcast(self.id, &targets_now, &msg, size);
        }
    }

    /// Waits until every live target's cumulative watermark covers
    /// `seq`. The target list is re-read on every check so membership
    /// changes (a dead slave removed, a spare promoted in) take effect
    /// on already-waiting commits instead of stalling them to the full
    /// ack timeout. Slice-bounded waits re-check liveness even when no
    /// ack arrives to wake us.
    fn wait_for_acks(&self, seq: u64) {
        let deadline = wall_deadline(self.ack_timeout);
        let slice =
            (self.ack_timeout / 8).clamp(Duration::from_millis(1), Duration::from_millis(25));
        // On timeout: dead targets are reconfigured away.
        let _ = self.acks.wait(deadline, slice, || {
            self.targets
                .read()
                .iter()
                .all(|t| !self.net.is_alive(*t) || self.acks.watermark(*t) >= seq)
        });
    }

    /// Executes a read-only transaction at the scheduler-assigned tag,
    /// driven by a statement closure.
    ///
    /// # Errors
    ///
    /// `VersionConflict` (retryable) if a required page version was
    /// already surpassed; `NodeFailed` if this node is killed mid-read.
    pub fn execute_read_with(
        &self,
        tag: &VersionVector,
        f: &mut dyn FnMut(&mut dyn StatementRunner) -> DmvResult<()>,
    ) -> DmvResult<()> {
        if !self.is_alive() {
            return Err(DmvError::NodeFailed(self.id));
        }
        let mut txn = self.db.begin_read_tagged(tag.clone());
        {
            let mut runner = NodeRunner { node: self, inner: &mut txn };
            if let Err(e) = f(&mut runner) {
                if matches!(e, DmvError::VersionConflict { .. }) {
                    self.stats.version_aborts.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter, read only for reporting
                }
                return Err(e);
            }
        }
        txn.commit(None);
        self.stats.reads.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter, read only for reporting
        Ok(())
    }

    /// Batch form of [`ReplicaNode::execute_read_with`].
    ///
    /// # Errors
    ///
    /// Same as [`ReplicaNode::execute_read_with`].
    pub fn execute_read(
        &self,
        queries: &[Query],
        tag: &VersionVector,
    ) -> DmvResult<Vec<ResultSet>> {
        let mut results = Vec::with_capacity(queries.len());
        self.execute_read_with(tag, &mut |r| {
            for q in queries {
                results.push(r.run(q)?);
            }
            Ok(())
        })?;
        Ok(results)
    }

    /// Discards queued records above `latest`, the versions a failed
    /// master never confirmed (§4.2; [`PendingApplier::discard_above`]).
    pub fn discard_above(&self, latest: &VersionVector) {
        self.applier.discard_above(latest);
        self.emit(|| TraceEvent::DiscardedAbove { node: self.id, keep: latest.clone() });
    }

    /// Promotes this slave to master after a master failure: queued
    /// records beyond `latest` (the scheduler's last acknowledged
    /// version) were partially propagated and are discarded, the rest is
    /// applied, and the version counter continues from `latest`.
    pub fn promote_to_master(&self, latest: &VersionVector) {
        self.discard_above(latest);
        self.applier.apply_all();
        *self.dbversion.lock() = latest.clone();
        self.emit(|| TraceEvent::Promoted { node: self.id, from: latest.clone() });
    }

    /// Takes a fuzzy checkpoint (kept as this node's "local stable
    /// storage" for reintegration after a crash).
    pub fn take_checkpoint(&self) {
        let now = self.clock.now_paper();
        let ck = fuzzy_checkpoint(self.db.store(), now);
        *self.checkpoint.lock() = ck;
    }

    /// The last checkpoint image.
    pub fn checkpoint(&self) -> CheckpointImage {
        self.checkpoint.lock().clone()
    }

    /// Support-slave side of data migration (§4.4): waits until this
    /// node has received everything up to `target`, fully applies its
    /// pending queues, and returns the pages strictly newer than the
    /// joiner's versions.
    ///
    /// # Errors
    ///
    /// `Network` if `target` never arrives within the ack timeout.
    pub fn collect_pages_newer(
        &self,
        joiner_versions: &HashMap<PageId, u64>,
        target: &VersionVector,
    ) -> DmvResult<Vec<(PageId, u64, Vec<u8>)>> {
        // Migration tolerates a long wait: the replication stream may be
        // backlogged right after a failure.
        self.applier.wait_received_for(target, Duration::from_secs(30))?;
        let store = self.db.store();
        let mut out = Vec::new();
        for id in store.page_ids() {
            self.applier.apply_page(id);
            let Some(cell) = store.get(id) else { continue };
            let page = cell.latch.read();
            let joiner_v = joiner_versions.get(&id).copied();
            let newer = match joiner_v {
                None => true,
                Some(v) => page.version > v,
            };
            if newer {
                out.push((id, page.version, page.to_image()));
            }
        }
        Ok(out)
    }

    /// Joiner side: waits until the support slave's final page batch has
    /// arrived.
    ///
    /// # Errors
    ///
    /// `Network` on timeout.
    pub fn wait_migration_done(&self, timeout: Duration) -> DmvResult<()> {
        let deadline = wall_deadline(timeout);
        let mut done = self.migration_done.lock();
        while !*done {
            if self.migration_cv.wait_until(&mut done, deadline).timed_out() {
                return Err(DmvError::Network("migration did not complete".into()));
            }
        }
        *done = false; // reset for a future migration
        Ok(())
    }

    /// Restores this node's database from a checkpoint (crash recovery
    /// before reintegration). Pages restore *cold* — they live in the
    /// recovering node's on-disk image until touched.
    pub fn restore_from_checkpoint(&self, ck: &CheckpointImage) {
        ck.restore_into(self.db.store(), false);
        self.applier.new_lineage();
    }

    /// Copies another replica's entire store into this one (the shared
    /// initial "mmap of the same on-disk database" at startup). Pages
    /// arrive resident, and share their images with `other` until either
    /// side writes one.
    pub fn clone_pages_from(&self, other: &ReplicaNode) {
        let src = other.db.store();
        let dst = self.db.store();
        for id in src.page_ids() {
            let Some(s) = src.get(id) else { continue };
            let sp = s.latch.read();
            let cell = dst.get_or_create(id);
            let mut dp = cell.latch.write();
            dp.set_image(Arc::clone(sp.image()));
            dp.version = sp.version;
        }
        *self.dbversion.lock() = other.dbversion();
    }

    /// Hot pages: the ids of currently resident pages (sent to spares by
    /// the page-id-transfer warmup strategy).
    pub fn hot_pages(&self) -> Vec<PageId> {
        let store = self.db.store();
        store
            .page_ids()
            .into_iter()
            .filter(|id| store.get(*id).is_some_and(|c| c.is_resident()))
            .collect()
    }

    /// Marks the whole database non-resident (cold cache).
    pub fn evict_all(&self) {
        self.db.store().evict_all();
    }

    /// Resident pages (diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.db.store().resident_count()
    }

    /// Resident page bytes in this node's store (bounded-memory gauge).
    pub fn resident_bytes(&self) -> u64 {
        self.db.store().resident_bytes()
    }

    /// Encoded bytes of queued, unapplied replication diffs on this
    /// node (bounded-memory gauge).
    pub fn pending_bytes(&self) -> u64 {
        self.applier.pending_bytes()
    }

    /// Fail-stop kill: the node stops serving and its endpoint closes.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        self.net.kill(self.id);
    }

    /// Clean shutdown (stops the receiver thread).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.net.kill(self.id);
        if let Some(h) = self.receiver.lock().take() {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

impl std::fmt::Debug for ReplicaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("id", &self.id)
            .field("alive", &self.is_alive())
            .field("dbversion", &format!("{}", self.dbversion()))
            .finish()
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.receiver.lock().take() {
            // Never join from the receiver thread itself (it may hold the
            // last Arc when the node is dropped).
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}
