//! The schedule driver: runs one [`Schedule`] against a full
//! [`DmvCluster`] on the simulated network with fault injection, checks
//! the oracles inline and at the end, and produces a byte-stable trace.
//!
//! Determinism comes from three choices:
//!
//! 1. every client operation runs to completion on this thread before
//!    the next event starts (the schedule is the interleaving);
//! 2. the failure monitor is effectively disabled
//!    (`detect_interval = 1h`); detection happens only at explicit
//!    `detect` events, on this thread;
//! 3. the trace contains only synchronous facts (committed versions,
//!    routed tags, outcomes) — never timings, and never the
//!    asynchronous write-set stream.
//!
//! Masters synchronize with their replication targets before returning
//! (acks, bounded by `ack_timeout`), so the cluster state is settled at
//! every event boundary and quantities like migration page counts are
//! schedule-determined.

use crate::history::History;
use crate::oracle::{err_label, fmt_vv, rows_to_map, BankModel, Table};
use crate::schedule::{Event, Schedule, Workload};
use dmv_common::clock::{sleep_wall, SimClock, TimeScale};
use dmv_common::config::{ConcurrencyMode, NetProfile};
use dmv_common::error::DmvError;
use dmv_common::ids::{NodeId, TableId};
use dmv_common::version::VersionVector;
use dmv_core::cluster::{ClusterSpec, DmvCluster, Session};
use dmv_core::{Msg, SharedTap, TraceEvent};
use dmv_epoch::EpochGuard;
use dmv_net::{DynTransport, FaultTransport, SimnetTransport, Transport};
use dmv_ondisk::rows_digest;
use dmv_sql::{
    Access, ColType, Column, Expr, IndexDef, Query, Schema, Select, SetExpr, TableSchema,
};
use dmv_tpcw::backend::{load_cluster, load_diskdb};
use dmv_tpcw::interactions::IdAllocator;
use dmv_tpcw::populate::generate;
use dmv_tpcw::schema::tpcw_schema;
use dmv_tpcw::{Backend, Mix, StepDriver, TpcwScale};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Accounts table (conflict class 0).
pub const T_ACCT: TableId = TableId(0);
/// Counters table (conflict class 1 when split).
pub const T_CTR: TableId = TableId(1);

/// Outcome of one schedule run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The schedule seed.
    pub seed: u64,
    /// One line per event (plus the drain line): the canonical trace.
    pub trace: Vec<String>,
    /// Oracle violations; empty means the run passed.
    pub failures: Vec<String>,
    /// Committed update transactions observed.
    pub commits: u64,
    /// Committed read transactions observed.
    pub reads: u64,
    /// Aborted operations observed (retryable aborts are legal outcomes).
    pub aborts: u64,
}

impl RunReport {
    /// True when every oracle held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The trace as one newline-joined string.
    pub fn trace_text(&self) -> String {
        self.trace.join("\n")
    }

    /// FNV-1a digest of the trace text: equal digests ⇔ byte-identical
    /// traces (determinism check).
    pub fn trace_digest(&self) -> u64 {
        fnv1a(self.trace_text().as_bytes())
    }
}

/// FNV-1a over raw bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bank_schema() -> Schema {
    Schema::new(vec![
        TableSchema::new(
            T_ACCT,
            "acct",
            vec![Column::new("id", ColType::Int), Column::new("bal", ColType::Int)],
            vec![IndexDef::unique("pk", vec![0])],
        ),
        TableSchema::new(
            T_CTR,
            "ctr",
            vec![Column::new("id", ColType::Int), Column::new("n", ColType::Int)],
            vec![IndexDef::unique("pk", vec![0])],
        ),
    ])
}

fn add_int(table: TableId, id: i64, delta: i64) -> Query {
    Query::Update {
        table,
        access: Access::Auto,
        filter: Some(Expr::eq(0, id)),
        set: vec![(1, SetExpr::AddInt(delta))],
    }
}

fn bank_scans() -> Vec<Query> {
    vec![Query::Select(Select::scan(T_ACCT)), Query::Select(Select::scan(T_CTR))]
}

struct Harness<'a> {
    s: &'a Schedule,
    schema: Schema,
    cluster: Arc<DmvCluster>,
    session: Session,
    sim: SimnetTransport<Msg>,
    fault: Arc<FaultTransport<Msg>>,
    history: Arc<History>,
    /// Nodes crashed by an armed trigger (filled by the transport
    /// callback, on this thread — triggers fire during driver sends).
    killed: Arc<Mutex<Vec<NodeId>>>,
    /// Bank model; `None` for the TPC-W workload.
    model: Option<BankModel>,
    /// Per-client last observed read tag (monotonicity oracle).
    last_tags: HashMap<u64, VersionVector>,
    /// Killed but not yet detected.
    pending_dead: Vec<NodeId>,
    /// Detected-dead nodes available for reintegration.
    dead_pool: Vec<NodeId>,
    /// Open partitions (master, slave).
    partitions: Vec<(NodeId, NodeId)>,
    /// TPC-W per-client step drivers, lazily created.
    drivers: HashMap<u64, StepDriver>,
    tpcw: Option<(Backend, Arc<IdAllocator>, TpcwScale)>,
    /// Active buffer budget in pages (set by `mem-pressure`, persists).
    budget_pages: Option<u32>,
    /// Per-client pinned snapshots: each client's last successful read
    /// tag plus the live epoch guard holding it pinned. The GC-safety
    /// oracle recomputes the pin floor from *this* map — the harness's
    /// own bookkeeping — so a broken epoch manager cannot vouch for
    /// itself.
    pins: HashMap<u64, (VersionVector, EpochGuard)>,
    failures: Vec<String>,
    commits: u64,
    reads: u64,
    aborts: u64,
}

/// Runs `s` to completion and evaluates every oracle, under the
/// paper's per-page 2PL.
pub fn run_schedule(s: &Schedule) -> RunReport {
    run_schedule_inner(s, ConcurrencyMode::TwoPhase, false)
}

/// Runs `s` under an explicit concurrency protocol. The schedule is the
/// interleaving either way, so a seed's trace must be byte-identical
/// across repeated runs *within* a mode; the oracles must hold in both.
pub fn run_schedule_in_mode(s: &Schedule, mode: ConcurrencyMode) -> RunReport {
    run_schedule_inner(s, mode, false)
}

/// Deliberate-mutation entry point: runs `s` with the epoch manager's
/// `set_ignore_pins_for_test` hook armed, so the reclamation watermark
/// runs straight past pinned readers. The GC-safety oracle MUST fail on
/// any schedule that pins a tag and then commits past it — a passing
/// run here means the oracle has lost its teeth.
pub fn run_schedule_with_gc_mutation(s: &Schedule) -> RunReport {
    run_schedule_inner(s, ConcurrencyMode::TwoPhase, true)
}

fn run_schedule_inner(s: &Schedule, mode: ConcurrencyMode, mutate_gc: bool) -> RunReport {
    let cfg = &s.config;
    let schema = match cfg.workload {
        Workload::Bank => bank_schema(),
        Workload::Tpcw => tpcw_schema(),
    };
    let mut spec = ClusterSpec::fast_test(schema.clone());
    spec.n_slaves = cfg.n_slaves;
    spec.n_spares = cfg.n_spares;
    spec.n_backends = cfg.n_backends;
    // Detection happens only at explicit `detect` events; park the
    // monitor far beyond any run.
    spec.detect_interval = Duration::from_secs(3600);
    spec.ack_timeout = Duration::from_millis(120);
    spec.concurrency = mode;
    if cfg.workload == Workload::Bank && cfg.n_classes >= 2 {
        spec.conflict_classes = Some(vec![vec![T_ACCT], vec![T_CTR]]);
    }
    let sim = SimnetTransport::<Msg>::new(NetProfile::zero(), SimClock::new(TimeScale::realtime()));
    let fault = Arc::new(FaultTransport::new(Arc::new(sim.clone()) as Arc<dyn Transport<Msg>>));
    let net: DynTransport<Msg> = Arc::clone(&fault) as DynTransport<Msg>;
    let cluster = DmvCluster::start_with_transport(spec, net);

    let mut model = None;
    let mut tpcw = None;
    match cfg.workload {
        Workload::Bank => {
            let acct: Vec<Vec<dmv_sql::Value>> =
                (0..cfg.n_accounts).map(|i| vec![i.into(), 100i64.into()]).collect();
            let ctr: Vec<Vec<dmv_sql::Value>> =
                (0..cfg.n_counters).map(|i| vec![i.into(), 0i64.into()]).collect();
            cluster.load_rows(T_ACCT, acct.clone()).expect("load accounts");
            cluster.load_rows(T_CTR, ctr.clone()).expect("load counters");
            for b in cluster.backends() {
                b.bulk_load(T_ACCT, &acct).expect("load backend accounts");
                b.bulk_load(T_CTR, &ctr).expect("load backend counters");
            }
            model = Some(BankModel::new(cfg.n_accounts, cfg.n_counters));
        }
        Workload::Tpcw => {
            let scale = TpcwScale::tiny();
            let pop = generate(scale, s.seed);
            load_cluster(&cluster, &pop).expect("load tpcw cluster");
            for b in cluster.backends() {
                load_diskdb(b, &pop).expect("load tpcw backend");
            }
            let ids = Arc::new(IdAllocator::from_population(scale, &pop));
            tpcw = Some((Backend::Dmv(cluster.session()), ids, scale));
        }
    }
    cluster.finish_load();
    if mutate_gc {
        cluster.epoch().set_ignore_pins_for_test(true);
    }

    let history = Arc::new(History::new());
    cluster.set_trace_tap(Arc::clone(&history) as SharedTap);
    let killed: Arc<Mutex<Vec<NodeId>>> = Arc::new(Mutex::new(Vec::new()));
    {
        // Weak: the callback lives inside the transport, which the
        // cluster owns — an Arc here would leak the whole cluster.
        let weak = Arc::downgrade(&cluster);
        let killed = Arc::clone(&killed);
        fault.set_on_kill(Box::new(move |n| {
            killed.lock().push(n);
            if let Some(c) = weak.upgrade() {
                c.kill_replica(n);
            }
        }));
    }

    let session = cluster.session();
    let mut h = Harness {
        s,
        schema,
        cluster,
        session,
        sim,
        fault,
        history,
        killed,
        model,
        last_tags: HashMap::new(),
        pending_dead: Vec::new(),
        dead_pool: Vec::new(),
        partitions: Vec::new(),
        drivers: HashMap::new(),
        tpcw,
        budget_pages: None,
        pins: HashMap::new(),
        failures: Vec::new(),
        commits: 0,
        reads: 0,
        aborts: 0,
    };

    let mut trace = Vec::with_capacity(s.events.len() + 2);
    for (idx, ev) in s.events.iter().enumerate() {
        let outcome = h.step(ev);
        trace.push(format!("{idx:03} {ev} | {outcome}"));
        // Once a budget is active, reclamation runs continuously: a GC
        // sweep plus the bounded-memory and GC-safety oracles after
        // every event. Oracle verdicts go to `failures`, not the trace
        // — the trace stays a function of the schedule alone.
        if h.budget_pages.is_some() {
            h.gc_check();
        }
    }
    trace.push(format!("end drain | {}", h.drain()));
    trace.push(format!("end oracle | {}", h.final_oracles()));

    RunReport {
        seed: s.seed,
        trace,
        failures: h.failures,
        commits: h.commits,
        reads: h.reads,
        aborts: h.aborts,
    }
}

impl Harness<'_> {
    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn drain_ops(&self) -> Vec<TraceEvent> {
        self.history.drain_ops()
    }

    /// First alive slave ids, in topology order.
    fn alive_slaves(&self) -> Vec<NodeId> {
        self.cluster
            .slave_ids()
            .into_iter()
            .filter(|id| self.cluster.replica(*id).is_some_and(|r| r.is_alive()))
            .collect()
    }

    fn master_id(&self, class: usize) -> NodeId {
        let n = self.s.config.n_classes.max(1);
        self.cluster.master(class % n).id()
    }

    fn step(&mut self, ev: &Event) -> String {
        match ev {
            Event::Transfer { from, to, amount, .. } => {
                let (from, to, amount) = (*from, *to, *amount);
                let res = self
                    .session
                    .update(&[add_int(T_ACCT, from, -amount), add_int(T_ACCT, to, amount)]);
                self.bank_commit(res.map(|_| ()), T_ACCT, move |t| {
                    *t.entry(from).or_insert(0) -= amount;
                    *t.entry(to).or_insert(0) += amount;
                })
            }
            Event::Deposit { acct, amount, .. } => {
                let (acct, amount) = (*acct, *amount);
                let res = self.session.update(&[add_int(T_ACCT, acct, amount)]);
                self.bank_commit(res.map(|_| ()), T_ACCT, move |t| {
                    *t.entry(acct).or_insert(0) += amount;
                })
            }
            Event::Bump { ctr, .. } => {
                let ctr = *ctr;
                let res = self.session.update(&[add_int(T_CTR, ctr, 1)]);
                self.bank_commit(res.map(|_| ()), T_CTR, move |t| {
                    *t.entry(ctr).or_insert(0) += 1;
                })
            }
            Event::Read { client } => self.tagged_read(*client),
            Event::StaleRead { client, back } => self.stale_read(*client, *back),
            Event::Tpcw { client } => self.tpcw_step(*client),
            Event::KillSlave { nth } => {
                let alive = self.alive_slaves();
                if alive.is_empty() {
                    return "none".to_string();
                }
                let id = alive[nth % alive.len()];
                self.cluster.kill_replica(id);
                self.pending_dead.push(id);
                format!("killed={id:?}")
            }
            Event::KillMaster { class } => {
                let id = self.master_id(*class);
                self.cluster.kill_replica(id);
                self.pending_dead.push(id);
                format!("killed={id:?}")
            }
            Event::KillMasterMid { class, sends } => self.kill_master_mid(*class, *sends),
            Event::KillMasterMidBatch { class, sends } => {
                self.kill_master_mid_batch(*class, *sends)
            }
            Event::KillMasterMidValidation { class } => self.kill_master_mid_validation(*class),
            Event::Detect => self.detect(),
            Event::Reintegrate => match self.dead_pool.first().copied() {
                None => "none".to_string(),
                Some(id) => {
                    self.dead_pool.remove(0);
                    match self.cluster.reintegrate(id) {
                        Ok(rep) => format!("node={id:?} pages={}", rep.pages),
                        Err(e) => {
                            // Infeasible (e.g. no support slave) is an
                            // outcome, not an oracle violation; data
                            // oracles still run afterwards.
                            self.dead_pool.insert(0, id);
                            format!("err={}", err_label(&e))
                        }
                    }
                }
            },
            Event::IntegrateFresh => match self.cluster.integrate_fresh_node() {
                Ok((id, rep)) => format!("node={id:?} pages={}", rep.pages),
                Err(e) => format!("err={}", err_label(&e)),
            },
            Event::Partition { class, nth } => {
                let m = self.master_id(*class);
                let alive: Vec<NodeId> =
                    self.alive_slaves().into_iter().filter(|id| *id != m).collect();
                if alive.is_empty() {
                    return "none".to_string();
                }
                let sid = alive[nth % alive.len()];
                self.fault.partition(m, sid);
                self.partitions.push((m, sid));
                format!("cut={m:?}-{sid:?}")
            }
            Event::HealAll => self.heal_all(),
            Event::LatencySpike { micros } => {
                self.sim.set_extra_delay(Duration::from_micros(*micros));
                "-".to_string()
            }
            Event::LatencyNormal => {
                self.sim.set_extra_delay(Duration::ZERO);
                "-".to_string()
            }
            Event::BackendStall => {
                for b in self.cluster.backends() {
                    b.set_stalled(true);
                }
                "-".to_string()
            }
            Event::BackendResume => {
                for b in self.cluster.backends() {
                    b.set_stalled(false);
                }
                "-".to_string()
            }
            Event::MemPressure { pages } => {
                self.budget_pages = Some(*pages);
                let clamped = self.apply_budgets();
                format!("budget_pages={pages} clamped={clamped}")
            }
            Event::Surge { ctr, n, .. } => self.surge(*ctr, *n),
        }
    }

    /// Burst of `n` conflicting counter updates under a small retry
    /// budget, then the retry-budget oracle: no transaction may
    /// exceed its budget (the retry-exhausted counter must not move).
    fn surge(&mut self, ctr: i64, n: u32) -> String {
        const SURGE_RETRIES: usize = 5;
        let exhausted_before = self.cluster.retry_exhausted_total();
        let mut committed = 0u32;
        for _ in 0..n {
            let res =
                self.session.update_retry(&[add_int(T_CTR, ctr, 1)], SURGE_RETRIES).map(|_| ());
            let outcome = self.bank_commit(res, T_CTR, move |t| {
                *t.entry(ctr).or_insert(0) += 1;
            });
            if !outcome.starts_with("abort=") {
                committed += 1;
            }
        }
        let exhausted = self.cluster.retry_exhausted_total() - exhausted_before;
        if exhausted > 0 {
            self.fail(format!(
                "surge: {exhausted} transaction(s) exceeded the {SURGE_RETRIES}-retry budget"
            ));
        }
        format!("n={n} committed={committed}")
    }

    /// Live replica ids (slaves and masters), sorted and deduped.
    fn live_replica_ids(&self) -> Vec<NodeId> {
        let mut ids = self.alive_slaves();
        for class in 0..self.s.config.n_classes.max(1) {
            ids.push(self.master_id(class));
        }
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|id| self.cluster.replica(*id).is_some_and(|r| r.is_alive()));
        ids
    }

    /// (Re)applies the active buffer budget to every live replica's
    /// page store. Idempotent, and re-run before every GC check so
    /// nodes that joined after the `mem-pressure` event (reintegration,
    /// fresh integration) are clamped too.
    fn apply_budgets(&self) -> usize {
        let Some(pages) = self.budget_pages else { return 0 };
        let bytes = u64::from(pages) * dmv_pagestore::PAGE_SIZE as u64;
        let ids = self.live_replica_ids();
        for id in &ids {
            if let Some(r) = self.cluster.replica(*id) {
                r.db().store().set_budget_bytes(bytes);
            }
        }
        ids.len()
    }

    /// One reclamation round plus the two epoch oracles.
    ///
    /// * **GC-safety**: the sweep's watermark never exceeds the latest
    ///   committed vector, nor any tag in the harness's own pin map —
    ///   so no pinned reader can have had a version it may still ask
    ///   for reclaimed out from under it. (The read-path oracles keep
    ///   proving the stronger data-level claim: a pinned-tag read
    ///   returns exactly its snapshot or aborts with `VersionConflict`.)
    /// * **Bounded-memory**: after the sweep, every live replica's
    ///   pending diff bytes plus resident page bytes fit in the budget
    ///   plus a fixed slack (dirty pages the evictor must skip, plus a
    ///   few pages of in-flight diffs the watermark has not covered).
    fn gc_check(&mut self) {
        self.apply_budgets();
        let wm = self.cluster.gc_sweep();
        let latest = self.cluster.epoch().latest();
        let mut problems = Vec::new();
        if !latest.dominates(&wm) {
            problems.push(format!(
                "GC safety violated: watermark {} exceeds committed latest {}",
                fmt_vv(&wm),
                fmt_vv(&latest)
            ));
        }
        for (client, (tag, _guard)) in &self.pins {
            if !tag.dominates(&wm) {
                problems.push(format!(
                    "GC safety violated: watermark {} overtook client {client}'s pinned tag {}",
                    fmt_vv(&wm),
                    fmt_vv(tag)
                ));
            }
        }
        let budget = u64::from(self.budget_pages.expect("gc_check runs only under a budget"))
            * dmv_pagestore::PAGE_SIZE as u64;
        let slack = 4 * dmv_pagestore::PAGE_SIZE as u64;
        for id in self.live_replica_ids() {
            let Some(r) = self.cluster.replica(id) else { continue };
            let store = r.db().store();
            store.enforce_budget();
            let dirty: u64 = store
                .page_ids()
                .iter()
                .filter(|p| store.get(**p).is_some_and(|c| c.is_dirty()))
                .count() as u64
                * dmv_pagestore::PAGE_SIZE as u64;
            let resident = store.resident_bytes();
            let pending = r.pending_bytes();
            if pending + resident > budget + dirty + slack {
                problems.push(format!(
                    "bounded-memory violated on node {id:?}: pending {pending}B + \
                     resident {resident}B > budget {budget}B + dirty {dirty}B + slack {slack}B"
                ));
            }
        }
        for p in problems {
            self.fail(p);
        }
    }

    /// Common tail of every bank update: attribute the drained trace
    /// events, advance the model on commit, record aborts.
    fn bank_commit(
        &mut self,
        res: Result<(), DmvError>,
        table: TableId,
        f: impl FnOnce(&mut Table),
    ) -> String {
        let drained = self.drain_ops();
        match res {
            Ok(()) => {
                let Some(v) = drained.iter().find_map(|e| match e {
                    TraceEvent::UpdateCommitted { version, .. } => Some(version.get(table)),
                    _ => None,
                }) else {
                    self.fail("committed update produced no UpdateCommitted event".to_string());
                    return "commit v=?".to_string();
                };
                self.commits += 1;
                let model = self.model.as_mut().expect("bank events imply bank model");
                let out = if table == T_ACCT {
                    model.commit_accounts(v, f)
                } else {
                    model.commit_counters(v, f)
                };
                if let Err(msg) = out {
                    self.fail(msg);
                }
                format!("commit v{}={v}", table.0)
            }
            Err(e) => {
                self.aborts += 1;
                format!("abort={}", err_label(&e))
            }
        }
    }

    /// A scheduler-routed read of both bank tables, checked against the
    /// model snapshot at exactly the assigned tag.
    fn tagged_read(&mut self, client: u64) -> String {
        let res = self.session.read(&bank_scans());
        let drained = self.drain_ops();
        let routed = drained.iter().find_map(|e| match e {
            TraceEvent::ReadRouted { slave, tag, .. } => Some((*slave, tag.clone())),
            _ => None,
        });
        if let Some((_, tag)) = &routed {
            self.check_monotone(client, tag);
        }
        match res {
            Ok(rs) => {
                let Some((slave, tag)) = routed else {
                    self.fail("committed read produced no ReadRouted event".to_string());
                    return "ok tag=?".to_string();
                };
                self.reads += 1;
                self.check_bank_snapshot(&tag, &rs[0].rows, &rs[1].rows, "read");
                // The client keeps its snapshot pinned until its next
                // read (a long-running reader from the epoch manager's
                // point of view); the old guard drops on replace.
                let guard = self.cluster.epoch().pin(&tag);
                self.pins.insert(client, (tag.clone(), guard));
                format!("slave={slave:?} tag={} ok", fmt_vv(&tag))
            }
            Err(e) => {
                self.aborts += 1;
                format!("abort={}", err_label(&e))
            }
        }
    }

    /// Direct slave read at a back-dated tag: must return exactly the
    /// old snapshot, or abort — never future data.
    fn stale_read(&mut self, _client: u64, back: u64) -> String {
        let model = self.model.as_ref().expect("stale reads imply bank model");
        let v0 = model.accounts_version_back(back);
        let v1 = model.counters_version_back(back);
        let mut tag = VersionVector::new(self.schema.len());
        tag.set(T_ACCT, v0);
        tag.set(T_CTR, v1);
        let Some(sid) = self.alive_slaves().first().copied() else {
            return "no-slave".to_string();
        };
        let slave = self.cluster.replica(sid).expect("alive slave listed in topology");
        match slave.execute_read(&bank_scans(), &tag) {
            Ok(rs) => {
                self.reads += 1;
                self.check_bank_snapshot(&tag, &rs[0].rows, &rs[1].rows, "stale-read");
                format!("slave={sid:?} tag={} ok", fmt_vv(&tag))
            }
            // A page already materialized past the tag must abort the
            // reader (paper §2.2) — that is the oracle passing.
            Err(DmvError::VersionConflict { .. }) => {
                self.aborts += 1;
                "abort=VersionConflict".to_string()
            }
            Err(DmvError::NodeFailed(_)) => {
                self.aborts += 1;
                "abort=NodeFailed".to_string()
            }
            Err(e) => {
                self.fail(format!("stale read failed unexpectedly: {}", err_label(&e)));
                format!("abort={}", err_label(&e))
            }
        }
    }

    fn check_bank_snapshot(
        &mut self,
        tag: &VersionVector,
        acct_rows: &[dmv_sql::row::Row],
        ctr_rows: &[dmv_sql::row::Row],
        what: &str,
    ) {
        let model = self.model.as_ref().expect("bank snapshot checks imply bank model");
        let mut problems = Vec::new();
        match (rows_to_map(acct_rows), model.accounts_at(tag.get(T_ACCT))) {
            (Ok(got), Some(want)) => {
                if got != *want {
                    problems.push(format!(
                        "{what} at tag {} returned accounts {got:?}, expected {want:?}",
                        fmt_vv(tag)
                    ));
                }
            }
            (Err(e), _) => problems.push(format!("{what}: bad accounts rows: {e}")),
            (_, None) => problems.push(format!(
                "{what} tagged accounts version {} which was never committed",
                tag.get(T_ACCT)
            )),
        }
        match (rows_to_map(ctr_rows), model.counters_at(tag.get(T_CTR))) {
            (Ok(got), Some(want)) => {
                if got != *want {
                    problems.push(format!(
                        "{what} at tag {} returned counters {got:?}, expected {want:?}",
                        fmt_vv(tag)
                    ));
                }
            }
            (Err(e), _) => problems.push(format!("{what}: bad counters rows: {e}")),
            (_, None) => problems.push(format!(
                "{what} tagged counters version {} which was never committed",
                tag.get(T_CTR)
            )),
        }
        for p in problems {
            self.fail(p);
        }
    }

    /// Per-client read tags must never move backwards.
    fn check_monotone(&mut self, client: u64, tag: &VersionVector) {
        if let Some(prev) = self.last_tags.get(&client) {
            if !tag.dominates(prev) {
                self.fail(format!(
                    "client {client} read tag moved backwards: {} after {}",
                    fmt_vv(tag),
                    fmt_vv(prev)
                ));
            }
        }
        self.last_tags.insert(client, tag.clone());
    }

    fn tpcw_step(&mut self, client: u64) -> String {
        let (backend, ids, scale) = self.tpcw.as_ref().expect("tpcw events imply tpcw workload");
        let (backend, ids, scale) = (backend.clone(), Arc::clone(ids), *scale);
        let seed = self.s.seed;
        let drv = self
            .drivers
            .entry(client)
            .or_insert_with(|| StepDriver::new(seed, client, ids, scale, Mix::Shopping));
        let (kind, res) = drv.step(&backend, 3);
        let drained = self.drain_ops();
        let tags: Vec<VersionVector> = drained
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ReadRouted { tag, .. } => Some(tag.clone()),
                _ => None,
            })
            .collect();
        for tag in &tags {
            self.check_monotone(client, tag);
        }
        if let Some(tag) = tags.last() {
            let guard = self.cluster.epoch().pin(tag);
            self.pins.insert(client, (tag.clone(), guard));
        }
        for e in &drained {
            match e {
                TraceEvent::UpdateCommitted { .. } => self.commits += 1,
                TraceEvent::ReadCommitted { .. } => self.reads += 1,
                TraceEvent::UpdateAborted { .. } | TraceEvent::ReadAborted { .. } => {
                    self.aborts += 1;
                }
                _ => {}
            }
        }
        match res {
            Ok(()) => format!("{kind:?} ok"),
            Err(e) => format!("{kind:?} abort={}", err_label(&e)),
        }
    }

    /// Arms the crash trigger on the class master and issues updates
    /// until it fires (bank: one targeted write suffices; TPC-W: step
    /// client 0 a few times, since some interactions are read-only).
    fn kill_master_mid(&mut self, class: usize, sends: u32) -> String {
        let m = self.master_id(class);
        self.fault.kill_after_sends(m, sends);
        let mut probe_outcomes = Vec::new();
        match self.s.config.workload {
            Workload::Bank => {
                let ev = if self.s.config.n_classes >= 2 && class % 2 == 1 {
                    Event::Bump { client: 0, ctr: 0 }
                } else {
                    Event::Transfer { client: 0, from: 0, to: 1, amount: 1 }
                };
                probe_outcomes.push(self.step(&ev));
            }
            Workload::Tpcw => {
                for _ in 0..4 {
                    probe_outcomes.push(self.step(&Event::Tpcw { client: 0 }));
                    if self.killed.lock().contains(&m) {
                        break;
                    }
                }
            }
        }
        let fired = self.killed.lock().contains(&m);
        if fired {
            self.pending_dead.push(m);
        } else {
            self.fault.clear_triggers();
        }
        format!("target={m:?} fired={fired} probes=[{}]", probe_outcomes.join("; "))
    }

    /// Arms the validation-point crash on the class master and issues
    /// updates until it fires. The trigger lands after the validation
    /// and install and before the version bump or any broadcast, so the probe aborts `NodeFailed` with nothing on the
    /// wire: the committed watermark must not move, and fail-over has
    /// no partial batch to discard. Unlike the send-triggered kills the
    /// crash fires inside the commit path itself (not the transport
    /// callback), so firing is observed via `is_alive`.
    fn kill_master_mid_validation(&mut self, class: usize) -> String {
        let m = self.master_id(class);
        let Some(node) = self.cluster.replica(m) else {
            return "none".to_string();
        };
        node.arm_kill_mid_validation();
        let mut probe_outcomes = Vec::new();
        match self.s.config.workload {
            Workload::Bank => {
                let ev = if self.s.config.n_classes >= 2 && class % 2 == 1 {
                    Event::Bump { client: 0, ctr: 0 }
                } else {
                    Event::Transfer { client: 0, from: 0, to: 1, amount: 1 }
                };
                probe_outcomes.push(self.step(&ev));
            }
            Workload::Tpcw => {
                // Some TPC-W interactions are read-only; step until one
                // writes (and dies) or give up after a few.
                for _ in 0..4 {
                    probe_outcomes.push(self.step(&Event::Tpcw { client: 0 }));
                    if self.cluster.replica(m).is_some_and(|r| !r.is_alive()) {
                        break;
                    }
                }
            }
        }
        let fired = self.cluster.replica(m).is_some_and(|r| !r.is_alive());
        if fired {
            self.pending_dead.push(m);
        }
        format!("target={m:?} fired={fired} probes=[{}]", probe_outcomes.join("; "))
    }

    /// Crashes the class master in the middle of a *batched* broadcast:
    /// the flusher is held while two committers on disjoint tables park
    /// in their ack waits, so both write-sets coalesce into one
    /// `WriteSetBatch` frame; releasing the flusher with the trigger
    /// armed kills the master partway through the frame's target list.
    /// Both commits then abort (`NodeFailed` — the master died before
    /// acking), so the scheduler's committed watermark never advances
    /// and fail-over must discard the whole batch on every survivor.
    fn kill_master_mid_batch(&mut self, class: usize, sends: u32) -> String {
        // Both probe tables must hash to the same master; generated
        // schedules guarantee this, hand-written ones get a guard.
        if self.s.config.workload != Workload::Bank || self.s.config.n_classes != 1 {
            return "skipped (needs single-class bank)".to_string();
        }
        let m = self.master_id(class);
        let Some(node) = self.cluster.replica(m) else {
            return "none".to_string();
        };
        node.hold_flush();
        let (s1, s2) = (self.cluster.session(), self.cluster.session());
        // Disjoint tables: the page-level 2PL locks never conflict, so
        // both threads reach their ack waits with write-sets queued.
        let t1 = std::thread::spawn(move || s1.update(&[add_int(T_ACCT, 0, 1)]).map(|_| ()));
        let t2 = std::thread::spawn(move || s2.update(&[add_int(T_CTR, 0, 1)]).map(|_| ()));
        while node.pending_flush_count() < 2 {
            sleep_wall(Duration::from_millis(1));
        }
        self.fault.kill_after_sends(m, sends);
        // The flush (and therefore the crash trigger) runs on this
        // thread: the kill lands deterministically mid-broadcast.
        node.release_flush();
        let results = [
            (T_ACCT, t1.join().expect("committer thread panicked")),
            (T_CTR, t2.join().expect("committer thread panicked")),
        ];
        let drained = self.drain_ops();
        let fired = self.killed.lock().contains(&m);
        let mut outcomes = Vec::new();
        for (table, res) in results {
            match res {
                Ok(()) => {
                    // Trigger did not fire (oversized `sends`): the
                    // commit is real, so the model must follow it.
                    let v = drained
                        .iter()
                        .filter_map(|e| match e {
                            TraceEvent::UpdateCommitted { version, .. } => Some(version.get(table)),
                            _ => None,
                        })
                        .max();
                    let Some(v) = v else {
                        self.fail("committed update produced no UpdateCommitted event".into());
                        continue;
                    };
                    self.commits += 1;
                    let model = self.model.as_mut().expect("bank events imply bank model");
                    let out = if table == T_ACCT {
                        model.commit_accounts(v, |t| *t.entry(0).or_insert(0) += 1)
                    } else {
                        model.commit_counters(v, |t| *t.entry(0).or_insert(0) += 1)
                    };
                    if let Err(msg) = out {
                        self.fail(msg);
                    }
                    outcomes.push(format!("commit v{}={v}", table.0));
                }
                Err(e) => {
                    self.aborts += 1;
                    outcomes.push(format!("abort={}", err_label(&e)));
                }
            }
        }
        if fired {
            self.pending_dead.push(m);
        } else {
            self.fault.clear_triggers();
        }
        format!("target={m:?} fired={fired} outcomes=[{}]", outcomes.join("; "))
    }

    fn detect(&mut self) -> String {
        self.cluster.detect_and_reconfigure();
        let drained = self.drain_ops();
        let pending: Vec<NodeId> = self.pending_dead.drain(..).collect();
        self.dead_pool.extend(pending);
        let mut notes = Vec::new();
        for e in &drained {
            match e {
                TraceEvent::Promoted { node, from } => {
                    notes.push(format!("promoted={node:?} from={}", fmt_vv(from)));
                }
                TraceEvent::DiscardedAbove { node, keep } => {
                    notes.push(format!("discarded node={node:?} keep={}", fmt_vv(keep)));
                }
                _ => {}
            }
        }
        if drained.iter().any(|e| matches!(e, TraceEvent::Promoted { .. })) {
            self.check_no_partial_batch_survived();
        }
        if notes.is_empty() {
            "-".to_string()
        } else {
            notes.join(" ")
        }
    }

    /// §4.2 all-or-nothing oracle, checked after every fail-over: a
    /// write-set (or any prefix of a batch) that was broadcast but
    /// never acknowledged must not survive the discard on any live
    /// replica. The harness is quiescent at `detect` boundaries, so
    /// every live replica's received-version watermark must sit at or
    /// below the scheduler's committed watermark — anything above it is
    /// a partially replicated batch leaking through fail-over.
    fn check_no_partial_batch_survived(&mut self) {
        let latest = self.cluster.latest_version();
        let mut ids = self.alive_slaves();
        for class in 0..self.s.config.n_classes.max(1) {
            ids.push(self.master_id(class));
        }
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let Some(r) = self.cluster.replica(id) else { continue };
            if !r.is_alive() {
                continue;
            }
            let received = r.applier().received();
            if !latest.dominates(&received) {
                self.fail(format!(
                    "partially replicated batch survived fail-over: node {id:?} \
                     received {} but the committed watermark is {}",
                    fmt_vv(&received),
                    fmt_vv(&latest)
                ));
            }
        }
    }

    /// Heals every open partition. A healed slave that missed
    /// write-sets can never catch up from the stream (dropped diffs are
    /// not redelivered), so it is killed and reintegrated — the §4.4
    /// migration is the catch-up path.
    fn heal_all(&mut self) -> String {
        let cuts: Vec<(NodeId, NodeId)> = self.partitions.drain(..).collect();
        if cuts.is_empty() {
            return "-".to_string();
        }
        let mut notes = Vec::new();
        for (m, sid) in &cuts {
            self.fault.heal(*m, *sid);
            notes.push(format!("healed={m:?}-{sid:?}"));
        }
        let latest = self.cluster.latest_version();
        for (_, sid) in &cuts {
            let Some(r) = self.cluster.replica(*sid) else { continue };
            if r.is_alive() && !r.applier().received().dominates(&latest) {
                self.cluster.kill_replica(*sid);
                self.cluster.detect_and_reconfigure();
                match self.cluster.reintegrate(*sid) {
                    Ok(rep) => notes.push(format!("resync={sid:?} pages={}", rep.pages)),
                    Err(e) => notes.push(format!("resync-err={}", err_label(&e))),
                }
            }
        }
        let _ = self.drain_ops(); // reconfiguration events are summarized above
        notes.join(" ")
    }

    /// End-of-run repair: disarm triggers, restore the network, resume
    /// backends, detect everything — the cluster must now converge.
    fn drain(&mut self) -> String {
        self.fault.clear_triggers();
        self.sim.set_extra_delay(Duration::ZERO);
        for b in self.cluster.backends() {
            b.set_stalled(false);
        }
        let healed = self.heal_all();
        let detected = self.detect();
        // With every reader gone the watermark reaches the committed
        // latest, so a final sweep must drain every pending queue: a
        // diff still queued now is a leak the reclamation missed.
        self.pins.clear();
        if self.budget_pages.is_some() {
            self.gc_check();
            let wm = self.cluster.epoch().published();
            for id in self.live_replica_ids() {
                let Some(r) = self.cluster.replica(id) else { continue };
                let pending = r.pending_bytes();
                if pending > 0 {
                    self.fail(format!(
                        "reclamation leak: node {id:?} still holds {pending} pending \
                         diff bytes after the unpinned final sweep (watermark {}, \
                         latest {}, node received {})",
                        fmt_vv(&wm),
                        fmt_vv(&self.cluster.epoch().latest()),
                        fmt_vv(&r.applier().received())
                    ));
                }
            }
        }
        format!("heal:{healed} detect:{detected}")
    }

    /// Post-drain oracles: convergence of every live slave at the
    /// latest tag, agreement of the on-disk tier, digest equality.
    fn final_oracles(&mut self) -> String {
        match self.s.config.workload {
            Workload::Bank => self.final_bank(),
            Workload::Tpcw => self.final_tpcw(),
        }
    }

    fn final_bank(&mut self) -> String {
        let tag = self.cluster.latest_version();
        let model = self.model.as_ref().expect("bank run has a model");
        let version_msg = (tag.get(T_ACCT) != model.accounts_version()
            || tag.get(T_CTR) != model.counters_version())
        .then(|| {
            format!(
                "scheduler latest {} disagrees with model versions [{},{}]",
                fmt_vv(&tag),
                model.accounts_version(),
                model.counters_version()
            )
        });
        let want_acct = model.final_accounts().clone();
        let want_ctr = model.final_counters().clone();
        if let Some(msg) = version_msg {
            self.fail(msg);
        }
        let slaves = self.alive_slaves();
        if slaves.is_empty() {
            self.fail("no live slave survived to the end of the run".to_string());
        }
        let mut mem_digest = None;
        for sid in &slaves {
            let slave = self.cluster.replica(*sid).expect("alive slave listed in topology");
            match slave.execute_read(&bank_scans(), &tag) {
                Ok(rs) => {
                    match rows_to_map(&rs[0].rows) {
                        Ok(got) if got == want_acct => {}
                        Ok(got) => self.fail(format!(
                            "slave {sid:?} final accounts {got:?} != model {want_acct:?}"
                        )),
                        Err(e) => self.fail(format!("slave {sid:?} final accounts: {e}")),
                    }
                    match rows_to_map(&rs[1].rows) {
                        Ok(got) if got == want_ctr => {}
                        Ok(got) => self.fail(format!(
                            "slave {sid:?} final counters {got:?} != model {want_ctr:?}"
                        )),
                        Err(e) => self.fail(format!("slave {sid:?} final counters: {e}")),
                    }
                    mem_digest = Some(rows_digest([
                        (T_ACCT.0, rs[0].rows.as_slice()),
                        (T_CTR.0, rs[1].rows.as_slice()),
                    ]));
                }
                Err(e) => self.fail(format!(
                    "slave {sid:?} cannot serve the final tag {}: {e}",
                    fmt_vv(&tag),
                )),
            }
        }
        // Backends replay the committed write stream; after the drain
        // they must equal the in-memory state exactly.
        self.cluster.shutdown();
        let backends: Vec<_> = self.cluster.backends().to_vec();
        let mut disk_digests = Vec::new();
        for (i, b) in backends.iter().enumerate() {
            match b.execute_txn(&bank_scans()) {
                Ok(rs) => {
                    match rows_to_map(&rs[0].rows) {
                        Ok(got) if got == want_acct => {}
                        Ok(got) => self.fail(format!(
                            "backend {i} replayed accounts {got:?} != model {want_acct:?}"
                        )),
                        Err(e) => self.fail(format!("backend {i} accounts: {e}")),
                    }
                    match rows_to_map(&rs[1].rows) {
                        Ok(got) if got == want_ctr => {}
                        Ok(got) => self.fail(format!(
                            "backend {i} replayed counters {got:?} != model {want_ctr:?}"
                        )),
                        Err(e) => self.fail(format!("backend {i} counters: {e}")),
                    }
                }
                Err(e) => self.fail(format!("backend {i} scan failed: {e}")),
            }
            match b.state_digest() {
                Ok(d) => disk_digests.push(d),
                Err(e) => self.fail(format!("backend {i} digest failed: {e}")),
            }
        }
        if let (Some(mem), Some(first)) = (mem_digest, disk_digests.first()) {
            if disk_digests.iter().any(|d| d != first) {
                self.fail(format!("backend digests diverge: {disk_digests:?}"));
            }
            if mem != *first {
                self.fail(format!("on-disk tier digest {first:#x} != in-memory digest {mem:#x}"));
            }
        }
        format!("tag={} slaves={} backends={}", fmt_vv(&tag), slaves.len(), backends.len())
    }

    fn final_tpcw(&mut self) -> String {
        let tag = self.cluster.latest_version();
        let scans: Vec<Query> =
            self.schema.tables().map(|t| Query::Select(Select::scan(t.id))).collect();
        let ids: Vec<u16> = self.schema.tables().map(|t| t.id.0).collect();
        let slaves = self.alive_slaves();
        if slaves.is_empty() {
            self.fail("no live slave survived to the end of the run".to_string());
        }
        let mut mem_digests = Vec::new();
        for sid in &slaves {
            let slave = self.cluster.replica(*sid).expect("alive slave listed in topology");
            match slave.execute_read(&scans, &tag) {
                Ok(rs) => {
                    let d =
                        rows_digest(ids.iter().copied().zip(rs.iter().map(|r| r.rows.as_slice())));
                    mem_digests.push((*sid, d));
                }
                Err(e) => self.fail(format!(
                    "slave {sid:?} cannot serve the final tag {}: {e}",
                    fmt_vv(&tag),
                )),
            }
        }
        if let Some((_, first)) = mem_digests.first() {
            if mem_digests.iter().any(|(_, d)| d != first) {
                self.fail(format!("slave digests diverge at the final tag: {mem_digests:?}"));
            }
        }
        self.cluster.shutdown();
        let backends: Vec<_> = self.cluster.backends().to_vec();
        for (i, b) in backends.iter().enumerate() {
            match b.state_digest() {
                Ok(d) => {
                    if let Some((_, mem)) = mem_digests.first() {
                        if d != *mem {
                            self.fail(format!(
                                "backend {i} digest {d:#x} != in-memory digest {mem:#x}"
                            ));
                        }
                    }
                }
                Err(e) => self.fail(format!("backend {i} digest failed: {e}")),
            }
        }
        format!("tag={} slaves={} backends={}", fmt_vv(&tag), slaves.len(), backends.len())
    }
}
