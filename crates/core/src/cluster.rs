//! Cluster orchestration: builds the in-memory tier, monitors it for
//! failures, reconfigures on node death, reintegrates recovered nodes
//! (data migration, §4.4) and exposes client sessions.
//!
//! The cluster owns the one [`Membership`] its schedulers route by, and
//! runs each reconfiguration once, on it: master fail-over at the lead
//! scheduler's `latest`, slave failure, spare activation and joining as
//! a slave. A scheduler takeover only rebuilds the new lead's `latest`.

use crate::membership::{Membership, Topology};
use crate::messages::{Msg, PageBatch};
use crate::replica::{ReplicaConfig, ReplicaNode};
use crate::scheduler::{Scheduler, SchedulerConfig, WarmupStrategy};
use crate::trace::SharedTap;
use dmv_check::sync::atomic::{AtomicBool, Ordering};
use dmv_check::sync::{Mutex, RwLock};
use dmv_common::clock::{sleep_wall, SimClock, TimeScale};
use dmv_common::config::{BufferBudget, ConcurrencyMode, CpuProfile, DiskProfile, NetProfile};
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{NodeId, TableId};
use dmv_common::rng::Backoff;
use dmv_common::stats::TxnStats;
use dmv_common::version::VersionVector;
use dmv_common::wire::Wire;
use dmv_epoch::EpochManager;
use dmv_net::{DynTransport, SimnetTransport};
use dmv_ondisk::{DiskDb, DiskDbOptions};
use dmv_sql::exec::{execute, ResultSet};
use dmv_sql::query::Query;
use dmv_sql::row::Row;
use dmv_sql::schema::Schema;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Pages per migration batch message.
const MIGRATION_BATCH_PAGES: usize = 64;

/// Buffer pool pages per on-disk backend.
const BACKEND_BUFFER_PAGES: usize = 512;

/// Bounds of every retry backoff delay (paper time).
const BACKOFF_BASE: Duration = Duration::from_micros(300);
const BACKOFF_CAP: Duration = Duration::from_millis(8);
/// Seed of the backoff jitter stream.
const BACKOFF_SEED: u64 = 0xB0FF;

/// Cluster construction parameters. All durations are paper time.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Database schema.
    pub schema: Schema,
    /// Active slaves serving reads.
    pub n_slaves: usize,
    /// Spare backups.
    pub n_spares: usize,
    /// Peer schedulers (≥ 1).
    pub n_schedulers: usize,
    /// On-disk persistence backends.
    pub n_backends: usize,
    /// Conflict classes: disjoint table sets, one master each. `None`
    /// schedules all updates on a single master.
    pub conflict_classes: Option<Vec<Vec<TableId>>>,
    /// Paper-time → wall-time compression.
    pub time_scale: TimeScale,
    /// Interconnect model.
    pub net: NetProfile,
    /// Disk model (backends and page-in cost reference).
    pub disk: DiskProfile,
    /// CPU cost model for query execution.
    pub cpu: CpuProfile,
    /// Page-in latency for a non-resident page of an in-memory replica
    /// (the mmap fault behind the cache-warmup effects).
    pub fault_latency: Duration,
    /// Bound on a master's wait for replication acks (wall time). A
    /// dead or unreachable target is abandoned after this long; the
    /// failure detector reconfigures it away.
    pub ack_timeout: Duration,
    /// Spare warmup strategy.
    pub warmup: WarmupStrategy,
    /// Fuzzy checkpoint period, if any.
    pub checkpoint_period: Option<Duration>,
    /// Failure-detector poll interval.
    pub detect_interval: Duration,
    /// Commit-path query-logging cost (§4.6); runs alongside the
    /// master's ack round (see [`SchedulerConfig::log_latency`]).
    pub log_latency: Duration,
    /// Version-aware read routing (ablation toggle; paper default on).
    pub same_version_routing: bool,
    /// Resident-byte budget per in-memory replica (see
    /// [`BufferBudget`]); unbounded by default.
    pub buffer_budget: BufferBudget,
    /// Period of the background epoch GC sweep, paper time: a `dmv-gc`
    /// thread calls [`DmvCluster::gc_sweep`] this often. `None` disables
    /// it; deterministic harnesses call `gc_sweep` themselves.
    pub gc_interval: Option<Duration>,
    /// How the master finds conflicts between update transactions: the
    /// paper's per-page 2PL locks, or first-committer-wins validation at
    /// install (`dmv_memdb::mvcc`).
    pub concurrency: ConcurrencyMode,
}

impl ClusterSpec {
    /// A spec with realistic 2007-era cost models at the given scale.
    pub fn new(schema: Schema, time_scale: TimeScale) -> Self {
        ClusterSpec {
            schema,
            n_slaves: 1,
            n_spares: 0,
            n_schedulers: 1,
            n_backends: 0,
            conflict_classes: None,
            time_scale,
            net: NetProfile::lan_2007(),
            disk: DiskProfile::commodity_2007(),
            cpu: CpuProfile::athlon_2007(),
            fault_latency: Duration::from_micros(8000),
            ack_timeout: Duration::from_secs(2),
            warmup: WarmupStrategy::None,
            checkpoint_period: None,
            detect_interval: Duration::from_secs(1),
            log_latency: Duration::from_micros(500),
            same_version_routing: true,
            buffer_budget: BufferBudget::unbounded(),
            gc_interval: Some(Duration::from_millis(500)),
            concurrency: ConcurrencyMode::TwoPhase,
        }
    }

    /// A zero-cost spec for fast logic tests.
    pub fn fast_test(schema: Schema) -> Self {
        let mut s = Self::new(schema, TimeScale::realtime());
        s.net = NetProfile::zero();
        s.cpu = CpuProfile::zero();
        s.disk = DiskProfile::fast_ssd();
        s.fault_latency = Duration::ZERO;
        s.detect_interval = Duration::from_millis(20);
        s.log_latency = Duration::ZERO;
        s.ack_timeout = Duration::from_millis(500);
        // Deterministic tests drive GC explicitly via `gc_sweep`.
        s.gc_interval = None;
        s
    }
}

/// Result of a node reintegration (§4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationReport {
    /// Pages transferred from the support slave.
    pub pages: usize,
    /// Bytes transferred.
    pub bytes: usize,
    /// Paper-time duration of the catch-up.
    pub duration: Duration,
}

/// The running DMV cluster: in-memory tier + schedulers + backends.
pub struct DmvCluster {
    clock: SimClock,
    net: DynTransport<Msg>,
    spec: ClusterSpec,
    replicas: RwLock<HashMap<NodeId, Arc<ReplicaNode>>>,
    /// Who is master, slave or spare; every scheduler routes by it.
    membership: Arc<Membership>,
    schedulers: Vec<Arc<Scheduler>>,
    backends: Vec<Arc<DiskDb>>,
    handled_failures: Mutex<HashSet<NodeId>>,
    shutdown: Arc<AtomicBool>,
    threads: Mutex<Vec<dmv_check::thread::JoinHandle<()>>>,
    ready: AtomicBool,
    next_node_id: Mutex<u32>,
    /// History tap propagated to every present and future component.
    trace_tap: Mutex<Option<SharedTap>>,
    /// Cluster-wide epoch manager: reader pins → reclamation watermark.
    epoch: Arc<EpochManager>,
    /// The seeded equal-jitter delay stream every session of this
    /// cluster spaces its retries with: the only overload control.
    backoff: Mutex<Backoff>,
}

impl DmvCluster {
    /// Builds the cluster in *loading* state: nodes exist but replication
    /// targets are not wired. Call [`DmvCluster::load_rows`] to populate,
    /// then [`DmvCluster::finish_load`] to go live.
    ///
    /// The cluster runs on the simulated interconnect described by
    /// `spec.net`; use [`DmvCluster::start_with_transport`] to run the
    /// same machinery over a different fabric (e.g. real TCP).
    pub fn start(spec: ClusterSpec) -> Arc<Self> {
        let clock = SimClock::new(spec.time_scale);
        let net: DynTransport<Msg> = Arc::new(SimnetTransport::new(spec.net, clock));
        Self::start_inner(spec, clock, net)
    }

    /// Like [`DmvCluster::start`], but over a caller-supplied transport.
    /// `spec.net` still models the client↔scheduler hops; the replica
    /// tier's traffic goes through `net`.
    pub fn start_with_transport(spec: ClusterSpec, net: DynTransport<Msg>) -> Arc<Self> {
        let clock = SimClock::new(spec.time_scale);
        Self::start_inner(spec, clock, net)
    }

    fn start_inner(spec: ClusterSpec, clock: SimClock, net: DynTransport<Msg>) -> Arc<Self> {
        let n_tables = spec.schema.len();
        let classes: Vec<Vec<TableId>> = spec
            .conflict_classes
            .clone()
            .unwrap_or_else(|| vec![(0..n_tables as u16).map(TableId).collect()]);
        let backends: Vec<Arc<DiskDb>> = (0..spec.n_backends)
            .map(|i| {
                Arc::new(DiskDb::new(
                    spec.schema.clone(),
                    DiskDbOptions {
                        node: NodeId(200 + i as u32),
                        disk: spec.disk,
                        cpu: spec.cpu,
                        clock,
                        buffer_pages: BACKEND_BUFFER_PAGES,
                    },
                ))
            })
            .collect();
        let mut cluster = DmvCluster {
            clock,
            net,
            spec,
            replicas: RwLock::new(HashMap::new()),
            membership: Membership::new(Topology::default()),
            schedulers: Vec::new(),
            backends,
            handled_failures: Mutex::new(HashSet::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
            ready: AtomicBool::new(false),
            next_node_id: Mutex::new(80),
            trace_tap: Mutex::new(None),
            epoch: EpochManager::new(n_tables),
            backoff: Mutex::new(Backoff::new(BACKOFF_BASE, BACKOFF_CAP, BACKOFF_SEED)),
        };
        dmv_check::race::label(&cluster.backoff, "cluster.backoff");
        let spawn = |base: u32, n: usize| -> Vec<Arc<ReplicaNode>> {
            (0..n as u32).map(|i| cluster.spawn_replica(NodeId(base + i))).collect()
        };
        let topo = Topology {
            masters: spawn(0, classes.len()),
            slaves: spawn(10, cluster.spec.n_slaves),
            spares: spawn(50, cluster.spec.n_spares),
            classes,
        };
        cluster.membership = Membership::new(topo);
        let sched_cfg = SchedulerConfig {
            clock,
            net: cluster.spec.net,
            log_latency: cluster.spec.log_latency,
            warmup: cluster.spec.warmup,
            same_version_routing: cluster.spec.same_version_routing,
        };
        cluster.schedulers = (0..cluster.spec.n_schedulers.max(1))
            .map(|i| {
                Scheduler::new(
                    NodeId(100 + i as u32),
                    Arc::clone(&cluster.membership),
                    cluster.backends.clone(),
                    Arc::clone(&cluster.net),
                    sched_cfg.clone(),
                    Arc::clone(&cluster.epoch),
                )
            })
            .collect();
        Arc::new(cluster)
    }

    /// Starts replica `id`, wired like every node of this cluster (cost
    /// model, history tap if one is installed), and
    /// enters it in the replica table — replacing a dead incarnation of
    /// the same id. Its role is the membership list it is put on.
    fn spawn_replica(&self, id: NodeId) -> Arc<ReplicaNode> {
        let node = ReplicaNode::start(
            id,
            self.spec.schema.clone(),
            Arc::clone(&self.net),
            ReplicaConfig {
                clock: self.clock,
                cpu: self.spec.cpu,
                fault_latency: self.spec.fault_latency,
                ack_timeout: self.spec.ack_timeout,
                buffer_budget: self.spec.buffer_budget,
                concurrency: self.spec.concurrency,
            },
        );
        if let Some(tap) = self.trace_tap.lock().as_ref() {
            node.set_trace_tap(Arc::clone(tap));
        }
        self.replicas.write().insert(id, Arc::clone(&node));
        node
    }

    /// The scheduler whose `latest` counts: the first alive one, since a
    /// dead scheduler's `latest` stops moving when it dies. With none
    /// alive the first will do — nothing commits any more.
    fn lead_scheduler(&self) -> &Arc<Scheduler> {
        self.schedulers.iter().find(|s| s.is_alive()).unwrap_or(&self.schedulers[0])
    }

    /// Bulk-loads rows into the appropriate master, bypassing
    /// replication (the initial state is distributed by page copy in
    /// [`DmvCluster::finish_load`], modeling every node mmap-ing the same
    /// on-disk database).
    ///
    /// # Errors
    ///
    /// Propagates insert errors (duplicate keys, schema violations).
    ///
    /// # Panics
    ///
    /// Panics if called after [`DmvCluster::finish_load`].
    pub fn load_rows(&self, table: TableId, rows: Vec<Row>) -> DmvResult<()> {
        assert!(!self.ready.load(Ordering::Acquire), "cluster already live");
        let master = {
            let topo = self.membership.read();
            let class = topo.classes.iter().position(|c| c.contains(&table)).unwrap_or(0);
            Arc::clone(&topo.masters[class])
        };
        for chunk in rows.chunks(256) {
            let mut txn = master.db().begin_update();
            for row in chunk {
                match execute(&mut txn, &Query::Insert { table, rows: vec![row.clone()] }) {
                    Ok(_) => {}
                    Err(e) => {
                        txn.abort();
                        return Err(e);
                    }
                }
            }
            // try_commit installs the copy-on-write images; the cluster
            // is not live yet, so the uncontended validation cannot lose.
            txn.try_commit(None).expect("uncontended load commit"); // unwrap-ok: pre-live load has no concurrent committers
        }
        Ok(())
    }

    /// Finishes loading: copies the masters' pages onto every replica
    /// (the shared initial database image), wires replication targets,
    /// and starts the failure monitor and checkpoint threads.
    pub fn finish_load(self: &Arc<Self>) {
        let topo = self.membership.read().clone();
        for master in &topo.masters {
            for other in topo.all() {
                if other.id() != master.id() {
                    other.clone_pages_from(master);
                }
            }
        }
        for master in &topo.masters {
            let targets: Vec<NodeId> =
                topo.all().iter().filter(|r| r.id() != master.id()).map(|r| r.id()).collect();
            master.set_targets(targets);
        }
        // Baseline checkpoint so reintegration always has a floor.
        for r in topo.all() {
            r.take_checkpoint();
        }
        self.ready.store(true, Ordering::Release);
        let wall = |paper: Duration, at_least_ms: u64| {
            self.clock.scale().to_wall(paper).max(Duration::from_millis(at_least_ms))
        };
        self.spawn_periodic("dmv-monitor", wall(self.spec.detect_interval, 5), |c| {
            c.detect_and_reconfigure();
        });
        if let Some(period) = self.spec.checkpoint_period {
            self.spawn_periodic("dmv-checkpoint", wall(period, 10), |c| {
                let nodes = c.membership.read().all();
                for r in nodes {
                    if r.is_alive() {
                        r.take_checkpoint();
                    }
                }
            });
        }
        if let Some(period) = self.spec.gc_interval {
            self.spawn_periodic("dmv-gc", wall(period, 10), |c| {
                c.gc_sweep();
            });
        }
    }

    /// Sleeps up to `total`, waking early (and returning true) when the
    /// shutdown flag is raised — keeps long periods joinable.
    fn interruptible_sleep(shutdown: &AtomicBool, total: Duration) -> bool {
        let mut left = total;
        while !left.is_zero() {
            if shutdown.load(Ordering::Acquire) {
                return true;
            }
            let step = left.min(Duration::from_millis(25));
            // wait-ok: a background period (monitor, checkpoint, GC sweep), off every transaction's path
            sleep_wall(step);
            left -= step;
        }
        shutdown.load(Ordering::Acquire)
    }

    /// Runs `tick` every `period` of wall time on a thread of its own,
    /// until shutdown or until the cluster is dropped.
    fn spawn_periodic(
        self: &Arc<Self>,
        name: &str,
        period: Duration,
        tick: impl Fn(&DmvCluster) + Send + 'static,
    ) {
        let weak = Arc::downgrade(self);
        let shutdown = Arc::clone(&self.shutdown);
        let h = dmv_check::thread::Builder::new()
            .name(name.into())
            .spawn(move || loop {
                if Self::interruptible_sleep(&shutdown, period) {
                    break;
                }
                let Some(cluster) = weak.upgrade() else { break };
                tick(&cluster);
            })
            .expect("spawn periodic thread"); // unwrap-ok: thread spawn fails only on OS resource exhaustion at startup
        self.threads.lock().push(h);
    }

    /// The cluster's epoch manager (reader pins, reclamation
    /// watermark).
    pub fn epoch(&self) -> &Arc<EpochManager> {
        &self.epoch
    }

    /// Computes the current reclamation watermark: the schedulers'
    /// latest merged vectors — the epoch manager's only feed — are
    /// folded into its `latest`, then met with every pinned reader
    /// epoch.
    fn compute_watermark(&self) -> VersionVector {
        for s in &self.schedulers {
            self.epoch.advance_latest(&s.latest());
        }
        self.epoch.watermark()
    }

    /// One epoch GC pass: computes the watermark and reclaims on every
    /// live replica **synchronously on the calling thread**, returning
    /// the watermark used. The only reclamation path: the background
    /// sweeper (`gc_interval`) and deterministic harnesses (DST) both
    /// call it. The live replicas are copied out first, so a
    /// `spawn_replica` never waits behind a whole pass.
    pub fn gc_sweep(&self) -> VersionVector {
        let wm = self.compute_watermark();
        let live: Vec<Arc<ReplicaNode>> =
            self.replicas.read().values().filter(|r| r.is_alive()).cloned().collect();
        for r in live {
            r.reclaim_local(&wm);
        }
        wm
    }

    /// Per-node memory gauges of live replicas, sorted by node id:
    /// `(node, pending diff bytes, resident page bytes)`. Consumed by
    /// the bounded-memory oracle and the bench high-water tracking.
    pub fn memory_gauges(&self) -> Vec<(NodeId, u64, u64)> {
        let mut v: Vec<(NodeId, u64, u64)> = self
            .replicas
            .read()
            .values()
            .filter(|r| r.is_alive())
            .map(|r| (r.id(), r.pending_bytes(), r.resident_bytes()))
            .collect();
        v.sort_by_key(|(n, _, _)| *n);
        v
    }

    /// One failure-detector sweep: finds newly dead replicas and runs the
    /// §4.1–4.3 reconfiguration. The `dmv-monitor` thread runs it every
    /// `detect_interval`; it is public for the callers that must not
    /// wait out the poll: the DST harness's `detect` event, tests and
    /// the `failover_drill` example.
    pub fn detect_and_reconfigure(&self) {
        let mut handled = self.handled_failures.lock();
        let dead: Vec<(NodeId, bool)> = {
            let topo = self.membership.read();
            let is_master = |id: NodeId| topo.masters.iter().any(|m| m.id() == id);
            topo.all()
                .iter()
                .filter(|r| !r.is_alive() && !handled.contains(&r.id()))
                .map(|r| (r.id(), is_master(r.id())))
                .collect()
        };
        for (id, was_master) in dead {
            handled.insert(id);
            if was_master {
                // Discard and promote at the lead scheduler's `latest`:
                // it has seen every acknowledged commit. With no slave
                // left to promote the class stays without a master.
                let _ = self.membership.fail_over_master(id, &self.lead_scheduler().latest());
            } else {
                self.membership.remove_failed(id);
            }
            // A live spare takes the dead node's place.
            self.membership.spare_takes_over();
        }
    }

    /// The cluster clock.
    pub fn clock(&self) -> SimClock {
        self.clock
    }

    /// The transport fabric (for fault injection in tests).
    pub fn net(&self) -> &DynTransport<Msg> {
        &self.net
    }

    /// A replica by id.
    pub fn replica(&self, id: NodeId) -> Option<Arc<ReplicaNode>> {
        self.replicas.read().get(&id).cloned()
    }

    /// The lead scheduler's latest merged version vector (the tag the
    /// next read would receive).
    pub fn latest_version(&self) -> VersionVector {
        self.lead_scheduler().latest()
    }

    /// Installs a history tap on every scheduler and replica, including
    /// nodes integrated later (deterministic simulation testing).
    pub fn set_trace_tap(&self, tap: SharedTap) {
        for s in &self.schedulers {
            s.set_trace_tap(Arc::clone(&tap));
        }
        for r in self.replicas.read().values() {
            r.set_trace_tap(Arc::clone(&tap));
        }
        *self.trace_tap.lock() = Some(tap);
    }

    /// The current master of conflict class `class`.
    pub fn master(&self, class: usize) -> Arc<ReplicaNode> {
        Arc::clone(&self.membership.read().masters[class])
    }

    /// Ids of the current active slaves.
    pub fn slave_ids(&self) -> Vec<NodeId> {
        self.membership.read().slaves.iter().map(|s| s.id()).collect()
    }

    /// Ids of the current spares.
    pub fn spare_ids(&self) -> Vec<NodeId> {
        self.membership.read().spares.iter().map(|s| s.id()).collect()
    }

    /// The persistence backends.
    pub fn backends(&self) -> &[Arc<DiskDb>] {
        &self.backends
    }

    /// Merged transaction statistics across schedulers.
    pub fn stats(&self) -> Vec<Arc<TxnStats>> {
        self.schedulers.iter().map(|s| Arc::clone(&s.stats)).collect()
    }

    /// Total version-conflict abort rate across schedulers.
    pub fn version_abort_rate(&self) -> f64 {
        self.abort_rate(|s| s.version_aborts.get())
    }

    /// Update-path version-conflict abort rate across schedulers: the
    /// master concurrency control's own aborts (MVCC first-committer-wins
    /// conflicts; zero under 2PL), excluding the replica-read staleness
    /// aborts that [`DmvCluster::version_abort_rate`] also counts.
    pub fn update_version_abort_rate(&self) -> f64 {
        self.abort_rate(|s| s.update_version_aborts.get())
    }

    /// Deadlock abort rate across schedulers: attempts whose page lock
    /// request would have closed a wait-for cycle (`DmvError::Deadlock`).
    pub fn deadlock_rate(&self) -> f64 {
        self.abort_rate(|s| s.deadlock_aborts.get())
    }

    /// `aborts` summed across schedulers, per attempt.
    fn abort_rate(&self, aborts: impl Fn(&TxnStats) -> u64) -> f64 {
        let n: u64 = self.schedulers.iter().map(|s| aborts(&s.stats)).sum();
        let attempts: u64 = self.schedulers.iter().map(|s| s.stats.attempts()).sum();
        if attempts == 0 {
            0.0
        } else {
            n as f64 / attempts as f64
        }
    }

    /// Transactions that exhausted their retry budget, across schedulers.
    pub fn retry_exhausted_total(&self) -> u64 {
        self.schedulers.iter().map(|s| s.stats.retry_exhausted.get()).sum()
    }

    /// Pauses before retry number `attempt` (1-based): the cluster's
    /// deterministic equal-jitter backoff, slept in paper time and
    /// accounted in the serving scheduler's retry counter. Replaces the
    /// old blind thread-rng wall sleep, so deterministic-simulation
    /// schedules see identical delays on every run.
    fn retry_pause(&self, attempt: usize) {
        if let Ok(s) = self.alive_scheduler() {
            s.stats.retries.inc();
        }
        // Drawn first, so no session sleeps holding the stream's lock.
        let delay = self.backoff.lock().delay(attempt);
        // wait-ok: the client's retry backoff
        self.clock.sleep_paper(delay);
    }

    /// Records one transaction giving up after its last retry.
    fn note_retry_exhausted(&self) {
        if let Ok(s) = self.alive_scheduler() {
            s.stats.retry_exhausted.inc();
        }
    }

    /// A client session (scheduler fail-over is handled inside).
    pub fn session(self: &Arc<Self>) -> Session {
        Session { cluster: Arc::clone(self) }
    }

    /// The scheduler sessions talk to — the lead, so that clients and
    /// reconfiguration go by the same `latest`.
    fn alive_scheduler(&self) -> DmvResult<Arc<Scheduler>> {
        let lead = self.lead_scheduler();
        lead.is_alive().then(|| Arc::clone(lead)).ok_or(DmvError::NoReplicaAvailable)
    }

    /// Kills a replica node (fail-stop). The monitor reconfigures within
    /// the detection interval.
    pub fn kill_replica(&self, id: NodeId) {
        if let Some(node) = self.replica(id) {
            node.kill();
        }
    }

    /// Kills scheduler `i`; a peer takes over (§4.1) by recovering the
    /// latest versions from the masters. It already routes by the
    /// cluster's membership, so that is all a takeover is.
    pub fn kill_scheduler(&self, i: usize) {
        self.schedulers[i].kill();
        if let Ok(lead) = self.alive_scheduler() {
            lead.recover_from_masters();
        }
    }

    /// Reintegrates a previously failed node (§4.4): restores its last
    /// checkpoint from local stable storage, subscribes it to the
    /// masters, transfers only the pages newer than its checkpoint from a
    /// support slave, and adds it back as a slave.
    ///
    /// # Errors
    ///
    /// `NoSuchNode` for an unknown id; `NoReplicaAvailable` if no support
    /// slave exists; network errors if migration stalls.
    pub fn reintegrate(&self, id: NodeId) -> DmvResult<MigrationReport> {
        let old = self.replica(id).ok_or(DmvError::NoSuchNode(id))?;
        let checkpoint = old.checkpoint();
        let node = self.spawn_replica(id);
        node.restore_from_checkpoint(&checkpoint);
        self.integrate_node(node, checkpoint.page_versions())
    }

    /// Integrates a brand-new node (never part of the cluster) as a
    /// slave: a worst-case migration where every page is transferred.
    ///
    /// # Errors
    ///
    /// Same as [`DmvCluster::reintegrate`].
    pub fn integrate_fresh_node(&self) -> DmvResult<(NodeId, MigrationReport)> {
        let id = {
            let mut next = self.next_node_id.lock();
            let id = NodeId(*next);
            *next += 1;
            id
        };
        let node = self.spawn_replica(id);
        let report = self.integrate_node(node, HashMap::new())?;
        Ok((id, report))
    }

    fn integrate_node(
        &self,
        node: Arc<ReplicaNode>,
        joiner_versions: HashMap<dmv_common::ids::PageId, u64>,
    ) -> DmvResult<MigrationReport> {
        let t0 = self.clock.now_paper();
        // A copy: migration waits on the network, and reconfiguration
        // must not wait behind it.
        let topo = self.membership.read().clone();
        // 1. Subscribe to the replication list of every master, obtaining
        //    the current DBVersion.
        let mut target = VersionVector::new(self.spec.schema.len());
        for m in topo.masters.iter().filter(|m| m.is_alive()) {
            target.merge(&m.subscribe(node.id()));
        }
        // 2. Support slave: any active slave.
        let support = topo
            .slaves
            .iter()
            .find(|s| s.is_alive() && s.id() != node.id())
            .cloned()
            .ok_or(DmvError::NoReplicaAvailable)?;
        // 3. Selective page transfer: only pages newer than the joiner's
        //    checkpointed versions.
        let pages = support.collect_pages_newer(&joiner_versions, &target)?;
        let total_pages = pages.len();
        let mut total_bytes = 0usize;
        let mut chunks: Vec<&[_]> = pages.chunks(MIGRATION_BATCH_PAGES).collect();
        if chunks.is_empty() {
            chunks.push(&[]); // the last batch, even an empty one, says "done"
        }
        let last = chunks.len() - 1;
        for (i, chunk) in chunks.into_iter().enumerate() {
            let msg = Msg::PageBatch(PageBatch { pages: chunk.to_vec(), done: i == last });
            let size = msg.encoded_len();
            total_bytes += size;
            self.net.send_from(support.id(), node.id(), msg, size)?;
        }
        node.wait_migration_done(Duration::from_secs(30))?;
        // The transferred images embody everything up to `target`; the
        // live stream covers everything after. Reads tagged ≤ target
        // must not wait for stream records that predate the subscription.
        node.applier().advance_received(&target);
        // 4. Back into the computation as a slave.
        let id = node.id();
        self.membership.join_as_slave(node);
        self.handled_failures.lock().remove(&id);
        let duration = self.clock.now_paper() - t0;
        Ok(MigrationReport { pages: total_pages, bytes: total_bytes, duration })
    }

    /// Clean shutdown: stops monitor/checkpoint threads, receiver
    /// threads and scheduler feeds (draining queued backend batches).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
        for s in &self.schedulers {
            s.shutdown();
        }
        for r in self.replicas.read().values() {
            r.shutdown();
        }
        self.net.shutdown();
    }
}

impl std::fmt::Debug for DmvCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmvCluster")
            .field("replicas", &self.replicas.read().len())
            .field("schedulers", &self.schedulers.len())
            .field("backends", &self.backends.len())
            .finish()
    }
}

impl Drop for DmvCluster {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// A client connection to the cluster: routes through the first alive
/// scheduler and offers retry helpers for the retryable abort classes.
#[derive(Clone)]
pub struct Session {
    cluster: Arc<DmvCluster>,
}

impl Session {
    /// Runs an update transaction (no retry).
    ///
    /// # Errors
    ///
    /// Propagates scheduler/master errors.
    pub fn update(&self, queries: &[Query]) -> DmvResult<Vec<ResultSet>> {
        self.cluster.alive_scheduler()?.run_update(queries)
    }

    /// Runs a read-only transaction (no retry).
    ///
    /// # Errors
    ///
    /// Propagates scheduler/slave errors.
    pub fn read(&self, queries: &[Query]) -> DmvResult<Vec<ResultSet>> {
        self.cluster.alive_scheduler()?.run_read(queries)
    }

    /// Runs an update transaction driven by a statement closure.
    /// `tables` declares the tables the transaction accesses (conflict-
    /// class routing information; the paper's scheduler is pre-configured
    /// with this per transaction type).
    ///
    /// # Errors
    ///
    /// Propagates scheduler/master errors.
    pub fn update_with(
        &self,
        tables: &[TableId],
        f: &mut dyn FnMut(&mut dyn dmv_sql::StatementRunner) -> DmvResult<()>,
    ) -> DmvResult<()> {
        self.cluster.alive_scheduler()?.run_update_with(tables, f)
    }

    /// Runs a read-only transaction driven by a statement closure.
    ///
    /// # Errors
    ///
    /// Propagates scheduler/slave errors.
    pub fn read_with(
        &self,
        f: &mut dyn FnMut(&mut dyn dmv_sql::StatementRunner) -> DmvResult<()>,
    ) -> DmvResult<()> {
        self.cluster.alive_scheduler()?.run_read_with(f)
    }

    /// Closure form of [`Session::update_retry`]. The closure must be
    /// re-runnable: an aborted attempt rolls back completely before the
    /// retry.
    ///
    /// # Errors
    ///
    /// The last error if retries are exhausted.
    pub fn update_with_retry(
        &self,
        tables: &[TableId],
        f: &mut dyn FnMut(&mut dyn dmv_sql::StatementRunner) -> DmvResult<()>,
        retries: usize,
    ) -> DmvResult<()> {
        self.retry(retries, || self.update_with(tables, f))
    }

    /// Closure form of [`Session::read_retry`].
    ///
    /// # Errors
    ///
    /// The last error if retries are exhausted.
    pub fn read_with_retry(
        &self,
        f: &mut dyn FnMut(&mut dyn dmv_sql::StatementRunner) -> DmvResult<()>,
        retries: usize,
    ) -> DmvResult<()> {
        self.retry(retries, || self.read_with(f))
    }

    /// Runs an update, retrying retryable aborts up to `retries` times.
    ///
    /// # Errors
    ///
    /// The last error if retries are exhausted.
    pub fn update_retry(&self, queries: &[Query], retries: usize) -> DmvResult<Vec<ResultSet>> {
        self.retry(retries, || self.update(queries))
    }

    /// Runs a read, retrying retryable aborts up to `retries` times.
    ///
    /// # Errors
    ///
    /// The last error if retries are exhausted.
    pub fn read_retry(&self, queries: &[Query], retries: usize) -> DmvResult<Vec<ResultSet>> {
        self.retry(retries, || self.read(queries))
    }

    /// The one retry loop: backoff pause before every retry, stop at the
    /// first success or fatal error, and count the transaction as
    /// exhausted when its last allowed attempt aborts retryably too.
    fn retry<T>(&self, retries: usize, mut attempt: impl FnMut() -> DmvResult<T>) -> DmvResult<T> {
        let mut n = 0;
        loop {
            match attempt() {
                Err(e) if e.is_retryable() && n < retries => {
                    n += 1;
                    self.cluster.retry_pause(n);
                }
                Err(e) if e.is_retryable() => {
                    self.cluster.note_retry_exhausted();
                    return Err(e);
                }
                done => return done,
            }
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_stream_is_deterministic_and_bounded() {
        let stream = || Backoff::new(BACKOFF_BASE, BACKOFF_CAP, BACKOFF_SEED);
        let (mut a, mut b) = (stream(), stream());
        for attempt in 1..=10 {
            let d = a.delay(attempt);
            assert_eq!(d, b.delay(attempt), "same seed, same stream");
            assert!((BACKOFF_BASE..=BACKOFF_CAP).contains(&d));
        }
    }
}
