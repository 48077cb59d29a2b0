//! The version-aware scheduler (paper §2.1–2.2, §4.1, §4.6).
//!
//! The scheduler routes update transactions to the master of their
//! conflict class, merges the version vectors masters report at commit,
//! tags every read-only transaction with the latest merged vector, and
//! routes it to the slave with the fewest reads in flight. Among equally
//! loaded slaves it prefers one already serving the same version (the
//! paper's same-version affinity), then one that has received everything
//! the tag needs. No slave is ever filtered out by its version: the
//! applier's rewind history lets any slave serve any tag in its window,
//! and version-conflict aborts stay below the paper's 2.5 % without it.
//!
//! It also owns durability (§4.6): an update's queries are logged (a
//! lightweight insert, modeled as its latency) from the moment its
//! commit leaves for the master, alongside the master's ack round; the
//! reply waits for whichever of the two ends last. Committed write
//! statements are then fed asynchronously to the on-disk backend(s), so
//! the commit path never waits for a disk database. An update the
//! master commits with no write (its all-zero version vector) has no
//! committed query to log or feed: it replies after the reply hop alone.
//!
//! Updates additionally pass the contention tier before reaching their
//! master: writers over a hot table set take turns (see
//! [`crate::contention`]).
//!
//! Who is master, slave or spare is not the scheduler's to decide: every
//! scheduler of a cluster reads the one [`Membership`] the cluster
//! changes. A scheduler keeps only its own state — `latest`, routing
//! loads, stats, the backend feed and the history tap.

use crate::contention::ContentionManager;
use crate::membership::Membership;
use crate::messages::Msg;
use crate::replica::ReplicaNode;
use crate::trace::{SharedTap, TraceEvent};
use dmv_common::clock::{sleep_until, wall_deadline, wall_now, SimClock};
use dmv_common::config::NetProfile;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{NodeId, TableId};
use dmv_common::stats::TxnStats;
use dmv_common::version::{AtomicVersionVector, VersionVector};
use dmv_common::wire::Wire;
use dmv_epoch::EpochManager;
use dmv_net::DynTransport;
use dmv_ondisk::DiskDb;
use dmv_sql::exec::{RecordingRunner, ResultSet, StatementRunner};
use dmv_sql::query::Query;
// Shimmed primitives: parking_lot/std in normal builds, model-checked
// under `--cfg dmv_check` (see crates/check).
use dmv_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use dmv_check::sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Spare-backup buffer-cache warmup strategy (paper §4.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmupStrategy {
    /// Spares receive the replication stream but no reads (cold cache).
    None,
    /// Route this fraction of the read-only workload to a spare, solely
    /// to keep its cache warm (the paper uses < 1 %).
    QueryFraction(f64),
    /// Every `every_reads` read transactions, an active slave sends its
    /// hot page ids to the spares, which touch them (the paper transfers
    /// every 100 transactions).
    PageIdTransfer {
        /// Transfer period, in read transactions.
        every_reads: u64,
    },
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Cluster clock.
    pub clock: SimClock,
    /// Network model for charging client↔scheduler↔database hops.
    pub net: NetProfile,
    /// Cost of logging one update transaction's queries (§4.6: "a
    /// lightweight database insert of the corresponding query
    /// strings"). The insert starts when the commit leaves for the
    /// master and overlaps its ack round; an update pays only the part
    /// the ack round does not cover, and an update that committed no
    /// write pays none of it.
    pub log_latency: Duration,
    /// Spare warmup strategy.
    pub warmup: WarmupStrategy,
    /// Prefer slaves already serving the same version (the paper's
    /// version-aware policy). Disable for the plain-load-balancing
    /// ablation.
    pub same_version_routing: bool,
}

/// Per-slave routing state. Every read transaction touches this twice
/// (admit, complete), so the counters are atomics: routing decisions
/// read them lock-free under the map's shared read lock, and the map
/// itself is written only when a node is first routed to. A departed
/// node's entry stays, unread: routing iterates the topology.
#[derive(Default, Debug)]
struct SlaveLoad {
    /// Reads currently executing on the slave.
    inflight: AtomicUsize,
    /// Highest `total()` over the tags ever routed to the slave — a
    /// monotone floor on the page versions its store may be serving.
    /// Reads *pull* pages up to their tag on access, so a read tagged
    /// below this floor may have to rewind pages there. Routing uses it
    /// only to break a tie in load: an exact floor match (the slave
    /// already serving this version — the paper's same-version
    /// affinity) goes first. It filters no slave out.
    served_floor: AtomicU64,
}

/// The version-aware scheduler.
pub struct Scheduler {
    id: NodeId,
    /// The cluster's membership, read to route.
    membership: Arc<Membership>,
    /// Latest merged version vector; advanced by atomic maximum on
    /// every commit so concurrent updates and read-tagging never queue
    /// on a lock.
    latest: AtomicVersionVector,
    slave_loads: RwLock<HashMap<NodeId, Arc<SlaveLoad>>>,
    cfg: SchedulerConfig,
    net: DynTransport<Msg>,
    /// Aggregate transaction statistics for this scheduler.
    pub stats: Arc<TxnStats>,
    read_counter: AtomicU64,
    backend_tx: Mutex<Option<crossbeam::channel::Sender<Vec<Query>>>>,
    feed_thread: Mutex<Option<dmv_check::thread::JoinHandle<()>>>,
    alive: AtomicBool,
    /// Optional history tap (deterministic simulation testing).
    tap: RwLock<Option<SharedTap>>,
    /// Cluster epoch manager: every tagged read pins its snapshot
    /// epoch for its whole execution, holding the reclamation
    /// watermark at or below its tag.
    epoch: Arc<EpochManager>,
    /// Cluster contention manager: conflict-heat accounting and
    /// hot-class update serialization.
    contention: Arc<ContentionManager>,
}

impl Scheduler {
    /// Creates a scheduler routing by `membership`, feeding `backends`
    /// asynchronously. `membership`, `epoch` (every scheduler) and
    /// `contention` (every scheduler and replica) are what one cluster
    /// shares.
    pub fn new(
        id: NodeId,
        membership: Arc<Membership>,
        backends: Vec<Arc<DiskDb>>,
        net: DynTransport<Msg>,
        cfg: SchedulerConfig,
        epoch: Arc<EpochManager>,
        contention: Arc<ContentionManager>,
    ) -> Arc<Self> {
        let sched = Arc::new(Scheduler {
            id,
            membership,
            // Tags are pinned in `epoch`, which insists on its own width.
            latest: AtomicVersionVector::new(epoch.n_tables()),
            slave_loads: RwLock::new(HashMap::new()),
            cfg,
            net,
            stats: Arc::new(TxnStats::new()),
            read_counter: AtomicU64::new(0),
            backend_tx: Mutex::new(None),
            feed_thread: Mutex::new(None),
            alive: AtomicBool::new(true),
            tap: RwLock::new(None),
            epoch,
            contention,
        });
        dmv_check::race::label(&sched.slave_loads, "slave_loads");
        if !backends.is_empty() {
            let (tx, rx) = crossbeam::channel::unbounded::<Vec<Query>>();
            *sched.backend_tx.lock() = Some(tx);
            let stats = Arc::clone(&sched.stats);
            let handle = dmv_check::thread::Builder::new()
                .name(format!("sched-{id}-feed"))
                .spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        for b in &backends {
                            // Retry transient aborts; the log is replayed
                            // in order so this must eventually apply. A
                            // batch that does not is counted in
                            // `feed_drops`.
                            let mut tries = 0;
                            let applied = loop {
                                tries += 1;
                                match b.execute_txn(&batch) {
                                    Ok(_) => break true,
                                    Err(e) if e.is_retryable() && tries < 10 => {}
                                    Err(_) => break false,
                                }
                            };
                            if !applied {
                                stats.feed_drops.inc();
                            }
                        }
                    }
                })
                .expect("spawn backend feed"); // unwrap-ok: thread spawn fails only on OS resource exhaustion at startup
            *sched.feed_thread.lock() = Some(handle);
        }
        sched
    }

    /// True until killed.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Fail-stop kill (for scheduler fail-over experiments).
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// The latest merged version vector.
    pub fn latest(&self) -> VersionVector {
        self.latest.snapshot()
    }

    /// Installs a history tap; events fire on the threads documented in
    /// [`crate::trace`].
    pub fn set_trace_tap(&self, tap: SharedTap) {
        *self.tap.write() = Some(tap);
    }

    fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(tap) = self.tap.read().as_ref() {
            tap.record(f());
        }
    }

    fn charge_hop(&self, bytes: usize) {
        let t = self.cfg.net.transfer_time(bytes);
        if !t.is_zero() {
            // wait-ok: one client↔scheduler↔database hop
            self.cfg.clock.sleep_paper(t);
        }
    }

    fn master_for_tables(&self, tables: &[TableId]) -> DmvResult<Arc<ReplicaNode>> {
        let topo = self.membership.read();
        if topo.masters.is_empty() {
            return Err(DmvError::NoReplicaAvailable);
        }
        let idx =
            topo.classes.iter().position(|c| tables.iter().all(|t| c.contains(t))).unwrap_or(0);
        let master = Arc::clone(&topo.masters[idx.min(topo.masters.len() - 1)]);
        if !master.is_alive() {
            return Err(DmvError::NodeFailed(master.id()));
        }
        Ok(master)
    }

    /// Runs an update transaction driven by a statement closure. The
    /// scheduler is pre-configured with the tables each transaction type
    /// accesses (`tables`, the paper's conflict-class information);
    /// committed write statements are recorded and fed to the on-disk
    /// backends (the persistence log of §4.6).
    ///
    /// # Errors
    ///
    /// Propagates master-side errors (retryable: deadlocks, node death).
    pub fn run_update_with(
        &self,
        tables: &[TableId],
        f: &mut dyn FnMut(&mut dyn StatementRunner) -> DmvResult<()>,
    ) -> DmvResult<()> {
        let master = self.master_for_tables(tables)?;
        // Contention tier: the class guard is held across the whole
        // master execution, so hot-set writers take turns (which beats
        // racing to first-committer-wins validation). It is dropped when
        // the master answers: nothing after that can conflict.
        let class_guard = self.contention.serialize_if_hot(tables);
        self.charge_hop(256); // client → scheduler → master request hop
        let scale = self.cfg.clock.scale();
        let mut writes: Vec<Query> = Vec::new();
        let mut insert_done = wall_now();
        let res = master.execute_update_with(&mut |r| {
            let mut rec = RecordingRunner::new(r);
            let out = f(&mut rec);
            writes.append(&mut rec.writes);
            // §4.6: the last statement has been forwarded, so the query
            // strings are known and their insert starts as the commit
            // leaves for the master; it runs alongside the ack round.
            insert_done = wall_deadline(scale.to_wall(self.cfg.log_latency));
            out
        });
        drop(class_guard);
        match res {
            Ok(version) => {
                self.latest.merge(&version);
                self.emit(|| TraceEvent::UpdateCommitted {
                    scheduler: self.id,
                    version: version.clone(),
                });
                // The master commits an update that wrote nothing with
                // the all-zero vector: no committed query, so nothing to
                // log and nothing for a backend to replay — whatever
                // statements it ran (a select, a write matching no row).
                let logged = version.total() > 0;
                // The acks are in; the reply leaves once the insert is
                // too. One wait covers what is left of the insert and the
                // reply hop, skipped below 1 µs like `sleep_paper`'s.
                // The insert is its latency: the logged statements live
                // on in the backends' WALs, fed asynchronously below.
                let now = wall_now();
                let ready = if logged { insert_done.max(now) } else { now };
                let reply_at = ready + scale.to_wall(self.cfg.net.transfer_time(128));
                if reply_at - now >= Duration::from_micros(1) {
                    // wait-ok: the rest of the §4.6 log insert, then the reply hop to the client
                    sleep_until(reply_at);
                }
                if logged {
                    self.stats.log_inserts.inc();
                    if let Some(tx) = self.backend_tx.lock().as_ref() {
                        let _ = tx.send(writes);
                    }
                }
                self.stats.commits.inc();
                self.stats.updates.inc();
                Ok(())
            }
            Err(e) => {
                if matches!(e, DmvError::VersionConflict { .. }) {
                    // Master-side commit-validation conflict (MVCC first-
                    // committer-wins), as opposed to the replica-read
                    // staleness aborts that share the version_aborts
                    // total.
                    self.stats.update_version_aborts.inc();
                }
                self.count_abort(&e);
                self.emit(|| TraceEvent::UpdateAborted {
                    scheduler: self.id,
                    reason: e.to_string(),
                });
                Err(e)
            }
        }
    }

    /// Batch form of [`Scheduler::run_update_with`].
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::run_update_with`].
    pub fn run_update(&self, queries: &[Query]) -> DmvResult<Vec<ResultSet>> {
        let mut tables: Vec<TableId> =
            queries.iter().filter(|q| q.is_write()).flat_map(|q| q.tables()).collect();
        tables.sort();
        tables.dedup();
        let mut results = Vec::with_capacity(queries.len());
        self.run_update_with(&tables, &mut |r| {
            for q in queries {
                results.push(r.run(q)?);
            }
            Ok(())
        })?;
        Ok(results)
    }

    fn count_abort(&self, e: &DmvError) {
        let aborts = match e {
            DmvError::VersionConflict { .. } => &self.stats.version_aborts,
            DmvError::Deadlock(_) => &self.stats.deadlock_aborts,
            DmvError::NodeFailed(_) | DmvError::NoSuchNode(_) => &self.stats.failure_aborts,
            _ => return,
        };
        aborts.inc();
    }

    /// Picks the slave for a read tagged `tag`: the fewest reads in
    /// flight first; among those, a served-floor match, then a slave
    /// whose `received` covers the tag (plain least-loaded when
    /// same-version routing is off); occasionally a spare, per the
    /// warmup strategy.
    fn pick_slave(&self, tag: &VersionVector) -> DmvResult<Arc<ReplicaNode>> {
        let topo = self.membership.read();
        // Warmup strategy A: a trickle of real reads keeps a spare warm.
        if let WarmupStrategy::QueryFraction(f) = self.cfg.warmup {
            if f > 0.0 && !topo.spares.is_empty() {
                let period = (1.0 / f).round().max(1.0) as u64;
                // relaxed-ok: warmup pacing heuristic; exact interleaving immaterial
                if self.read_counter.load(Ordering::Relaxed) % period == period - 1 {
                    if let Some(spare) = topo.spares.iter().find(|s| s.is_alive()) {
                        return Ok(Arc::clone(spare));
                    }
                }
            }
        }
        let alive: Vec<&Arc<ReplicaNode>> = topo.slaves.iter().filter(|s| s.is_alive()).collect();
        if alive.is_empty() {
            return Err(DmvError::NoReplicaAvailable);
        }
        // Shared read lock on the load map; the counters themselves are
        // read with relaxed atomic loads. Concurrent admits may race a
        // decision by one in-flight read — acceptable slack for load
        // balancing, and it keeps routing off every mutex.
        let loads = self.slave_loads.read();
        let tag_total = tag.total();
        let inflight_of = |s: &Arc<ReplicaNode>| {
            // relaxed-ok: load-balancing hint; staleness skews routing, never correctness
            loads.get(&s.id()).map(|l| l.inflight.load(Ordering::Relaxed)).unwrap_or(0)
        };
        let least_loaded = alive.iter().copied().min_by_key(|s| inflight_of(s)).expect("nonempty"); // unwrap-ok: pick_slave already returned NoReplicaAvailable when alive is empty
        let best = if self.cfg.same_version_routing {
            // Load first, freshness as tie-break. The applier's rewind
            // history means any slave can serve any in-window tag, so
            // affinity no longer buys correctness — but queueing on a
            // node's modeled CPU throttle is real latency. Balance
            // in-flight reads first; among equally loaded slaves prefer
            // an exact served-floor match (the paper's same-version
            // affinity: already materialized at this version), then a
            // slave whose applier has *received* everything the tag
            // needs (no apply wait, and serving it upgrades no page an
            // older in-flight read relies on).
            let floor_of = |s: &Arc<ReplicaNode>| {
                // relaxed-ok: load-balancing hint; staleness skews routing, never correctness
                loads.get(&s.id()).map(|l| l.served_floor.load(Ordering::Relaxed)).unwrap_or(0)
            };
            alive
                .iter()
                .copied()
                .min_by_key(|s| {
                    (
                        inflight_of(s),
                        floor_of(s) != tag_total,
                        s.applier().received_total() < tag_total,
                    )
                })
                .unwrap_or(least_loaded)
        } else {
            least_loaded
        };
        Ok(Arc::clone(best))
    }

    /// The load record of one slave, created on first use. The `Arc`
    /// stays valid across concurrent membership changes, so a completing
    /// read always decrements the counter it incremented.
    fn load_of(&self, id: NodeId) -> Arc<SlaveLoad> {
        if let Some(l) = self.slave_loads.read().get(&id) {
            return Arc::clone(l);
        }
        Arc::clone(self.slave_loads.write().entry(id).or_default())
    }

    /// Runs a read-only transaction driven by a statement closure: tags
    /// it with the latest version vector and routes it to a slave.
    ///
    /// # Errors
    ///
    /// `VersionConflict` (retryable) or slave-failure errors.
    pub fn run_read_with(
        &self,
        f: &mut dyn FnMut(&mut dyn StatementRunner) -> DmvResult<()>,
    ) -> DmvResult<()> {
        let tag = self.latest();
        // Pin the read's epoch before routing: from here until the
        // guard drops (end of this call), the reclamation watermark
        // cannot pass `tag`, so eager GC application can never upgrade
        // a page past what this read may still materialize.
        let _epoch_guard = self.epoch.pin(&tag);
        let slave = self.pick_slave(&tag)?;
        let n = self.read_counter.fetch_add(1, Ordering::Relaxed) + 1; // relaxed-ok: warmup pacing heuristic; exact interleaving immaterial

        // Warmup strategy B: periodic page-id transfer to spares.
        if let WarmupStrategy::PageIdTransfer { every_reads } = self.cfg.warmup {
            if every_reads > 0 && n.is_multiple_of(every_reads) {
                self.send_pageid_hints();
            }
        }
        let load = self.load_of(slave.id());
        load.inflight.fetch_add(1, Ordering::Relaxed); // relaxed-ok: load-balancing hint; staleness skews routing, never correctness
        load.served_floor.fetch_max(tag.total(), Ordering::Relaxed); // relaxed-ok: load-balancing hint; staleness skews routing, never correctness
        self.emit(|| TraceEvent::ReadRouted {
            scheduler: self.id,
            slave: slave.id(),
            tag: tag.clone(),
        });
        self.charge_hop(256);
        let res = slave.execute_read_with(&tag, f);
        load.inflight.fetch_sub(1, Ordering::Relaxed); // relaxed-ok: load-balancing hint; staleness skews routing, never correctness
        match res {
            Ok(()) => {
                self.charge_hop(512);
                self.stats.commits.inc();
                self.stats.reads.inc();
                self.emit(|| TraceEvent::ReadCommitted { scheduler: self.id, slave: slave.id() });
                Ok(())
            }
            Err(e) => {
                self.count_abort(&e);
                self.emit(|| TraceEvent::ReadAborted {
                    scheduler: self.id,
                    slave: slave.id(),
                    reason: e.to_string(),
                });
                Err(e)
            }
        }
    }

    /// Batch form of [`Scheduler::run_read_with`].
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::run_read_with`].
    pub fn run_read(&self, queries: &[Query]) -> DmvResult<Vec<ResultSet>> {
        let mut results = Vec::with_capacity(queries.len());
        self.run_read_with(&mut |r| {
            for q in queries {
                results.push(r.run(q)?);
            }
            Ok(())
        })?;
        Ok(results)
    }

    fn send_pageid_hints(&self) {
        let topo = self.membership.read();
        let Some(active) = topo.slaves.iter().find(|s| s.is_alive()) else { return };
        let pages = active.hot_pages();
        if pages.is_empty() {
            return;
        }
        for spare in topo.spares.iter().filter(|s| s.is_alive()) {
            let msg = Msg::PageIdHint { pages: pages.clone() };
            let size = msg.encoded_len();
            let _ = self.net.send_from(active.id(), spare.id(), msg, size);
        }
    }

    /// Scheduler takeover (§4.1): a peer scheduler rebuilds its version
    /// vector from the masters' highest produced versions.
    pub fn recover_from_masters(&self) {
        let topo = self.membership.read();
        for m in topo.masters.iter().filter(|m| m.is_alive()) {
            self.latest.merge(&m.dbversion());
        }
    }

    /// Stops the backend feed thread after draining queued batches.
    pub fn shutdown(&self) {
        *self.backend_tx.lock() = None; // close channel; feed drains and exits
        if let Some(h) = self.feed_thread.lock().take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("id", &self.id)
            .field("latest", &format!("{}", self.latest()))
            .finish()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}
