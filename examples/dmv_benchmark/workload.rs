//! The four workloads: deployment, the closed-loop zero-think driver
//! with exact latency capture, and the output checks run after every
//! run.

use crate::procfs;
use crate::trace::{self, now_ns, Span, TimedRunner, TracedTransport};
use dmv::common::clock::{SimClock, TimeScale};
use dmv::common::config::{ConcurrencyMode, CpuProfile, NetProfile};
use dmv::common::error::DmvResult;
use dmv::common::ids::TableId;
use dmv::common::rng::derive;
use dmv::common::version::VersionVector;
use dmv::core::cluster::{ClusterSpec, DmvCluster, Session};
use dmv::core::{Msg, ReplicaNode};
use dmv::net::{DynTransport, SimnetTransport};
use dmv::pagestore::PAGE_SIZE;
use dmv::sql::{ExecRunner, Query, Select, StatementRunner};
use dmv::tpcw::backend::load_cluster;
use dmv::tpcw::interactions::{plan, ClientState, IdAllocator, InteractionKind};
use dmv::tpcw::populate::{generate, TpcwScale};
use dmv::tpcw::schema::{self, tpcw_schema};
use dmv::tpcw::Mix;
use rand::Rng;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Retry budget per interaction; exhausting it counts as a failure.
pub const RETRIES: usize = 20;
/// Unmeasured lead-in before the window opens.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per untraced run; `setup_s` is their median. A process's
/// first set-up touches fresh memory, and what a first touch costs
/// follows the VM's state, not the code: alone it read 1.5 to 2.25 s
/// over forty runs (mostly 1.6 or 2.2), the repeats 1.45 to 1.56 s.
pub const SETUP_REPEATS: usize = 3;
/// Mean width of the alternating traced/untraced slices of a traced
/// run. Each slice's width is drawn within ±40 % of it: the interaction
/// schedule is periodic (a BestSellers about every half second per
/// client), and fixed-width slices alias with it — the heavy
/// interactions then land on one side and `trace.overhead_share` reads
/// a steady ±5 % that has nothing to do with tracing.
const TRACE_SLICE: Duration = Duration::from_millis(500);
/// Gauge sampling period of a traced run.
const GAUGE_PERIOD: Duration = Duration::from_millis(100);
/// Page-in cost; only `order_ltm` ever pays it.
pub const FAULT_LATENCY: Duration = Duration::from_millis(8);
/// Commit-path query-logging cost (paper §4.6).
pub const LOG_LATENCY: Duration = Duration::from_micros(500);

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mix: Mix,
    pub slaves: usize,
    pub clients: usize,
    /// Every node's buffer budget is half the populated working set.
    pub larger_than_memory: bool,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "browse",
        mix: Mix::Browsing,
        slaves: 2,
        clients: 1,
        larger_than_memory: false,
        why: "browsing mix (95% reads), 2 slaves, 1 client: SQL select execution and index/heap \
              reads do nearly all the work; the commit, wire and fan-out path is almost bypassed",
    },
    Workload {
        name: "order",
        mix: Mix::Ordering,
        slaves: 2,
        clients: 2,
        larger_than_memory: false,
        why: "ordering mix (50% updates), 2 slaves, 2 clients: the master commit pipeline \
              (COW execute, validate/install, diff, encode, broadcast, ack wait) and lazy apply \
              on the slaves do most of the work",
    },
    Workload {
        name: "order_fanout8",
        mix: Mix::Ordering,
        slaves: 8,
        clients: 2,
        larger_than_memory: false,
        why: "the order stream against 8 slaves: the difference to order is the per-slave cost \
              of broadcast, applier enqueue and cumulative acks",
    },
    Workload {
        name: "order_ltm",
        mix: Mix::Ordering,
        slaves: 2,
        clients: 2,
        larger_than_memory: true,
        why: "the order stream with every node's buffer budget at half the working set: the \
              only workload where eviction, re-fault and epoch reclamation do work",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The cost-model settings every workload runs under, for the report.
pub fn settings_line() -> String {
    let net = NetProfile::lan_2007();
    format!(
        "settings: MvccCow, TpcwScale::small, CpuProfile::zero (real CPU only), injected delay: \
         net {} us + {} us/KiB per message and client hop, log {} us per update, fault {} ms \
         (order_ltm only); detect_interval 1 h; gc_interval default; closed loop, zero think, \
         {} retries, warm-up {} s",
        net.latency.as_micros(),
        net.per_kib.as_micros(),
        LOG_LATENCY.as_micros(),
        FAULT_LATENCY.as_millis(),
        RETRIES,
        WARMUP.as_secs()
    )
}

/// Cores this process may run on: the ceiling on client threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A populated, live cluster.
pub struct Deployment {
    pub cluster: Arc<DmvCluster>,
    pub ids: Arc<IdAllocator>,
    pub scale: TpcwScale,
    /// The transport decorator of a traced deployment.
    pub traced: Option<Arc<TracedTransport>>,
    /// Switch the decorator and the client loops follow.
    pub trace_on: Arc<AtomicBool>,
    /// `ORDERS` rows in the generated population.
    pub initial_orders: u64,
    /// Resident pages per node right after load.
    pub working_set_pages: u64,
    /// Per-node buffer budget in pages, if bounded.
    pub budget_pages: Option<u64>,
    /// Deploy + populate + `finish_load`, seconds.
    pub setup_s: f64,
}

/// Seed of the bookstore's population — the one standard database every
/// run starts from (the figure benches' seed). `--seed` varies the
/// request streams against it, not the data set: a different catalogue
/// changes what a title search costs, which is input noise, not signal.
pub const POPULATION_SEED: u64 = 20_070_625;

/// Deploys `w`: real cluster on the simnet fabric, MvccCow, small
/// scale, standard population.
pub fn deploy(w: &Workload, traced: bool) -> Deployment {
    let t0 = now_ns();
    let scale = TpcwScale::small();
    let mut spec = ClusterSpec::new(tpcw_schema(), TimeScale::realtime());
    spec.n_slaves = w.slaves;
    spec.concurrency = ConcurrencyMode::MvccCow;
    spec.cpu = CpuProfile::zero();
    spec.net = NetProfile::lan_2007();
    spec.log_latency = LOG_LATENCY;
    spec.fault_latency = FAULT_LATENCY;
    // No fail-over in these runs: keep the detector out of the picture.
    spec.detect_interval = Duration::from_secs(3600);
    let trace_on = Arc::new(AtomicBool::new(false));
    let (cluster, transport) = if traced {
        let clock = SimClock::new(spec.time_scale);
        let fabric: DynTransport<Msg> = Arc::new(SimnetTransport::new(spec.net, clock));
        let t = Arc::new(TracedTransport::new(fabric, Arc::clone(&trace_on)));
        let dynamic: DynTransport<Msg> = Arc::clone(&t) as DynTransport<Msg>;
        (DmvCluster::start_with_transport(spec, dynamic), Some(t))
    } else {
        (DmvCluster::start(spec), None)
    };
    let pop = generate(scale, POPULATION_SEED);
    load_cluster(&cluster, &pop).expect("generated population loads");
    cluster.finish_load();
    let ids = Arc::new(IdAllocator::from_population(scale, &pop));
    let initial_orders =
        pop.tables.iter().find(|(t, _)| *t == schema::ORDERS).map_or(0, |(_, rows)| rows.len());
    let working_set_pages = nodes(&cluster)
        .iter()
        .map(|n| n.db().store().resident_bytes() / PAGE_SIZE as u64)
        .max()
        .unwrap_or(0);
    let budget_pages = w.larger_than_memory.then(|| (working_set_pages / 2).max(16));
    if let Some(pages) = budget_pages {
        for n in nodes(&cluster) {
            n.db().store().set_budget_bytes(pages * PAGE_SIZE as u64);
        }
    }
    let setup_s = (now_ns() - t0) as f64 / 1e9;
    Deployment {
        cluster,
        ids,
        scale,
        traced: transport,
        trace_on,
        initial_orders: initial_orders as u64,
        working_set_pages,
        budget_pages,
        setup_s,
    }
}

/// Master first, then the slaves.
fn nodes(cluster: &DmvCluster) -> Vec<Arc<ReplicaNode>> {
    let mut v = vec![cluster.master(0)];
    v.extend(cluster.slave_ids().into_iter().filter_map(|id| cluster.replica(id)));
    v
}

/// One completed interaction, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub start_ns: u64,
    pub end_ns: u64,
    pub kind: InteractionKind,
    pub ok: bool,
}

impl Sample {
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Counters read at the edges of the measured window.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub t_ns: u64,
    pub cpu_ms: f64,
    pub thread_cpu_ms: BTreeMap<&'static str, f64>,
    pub commits: u64,
    pub reads: u64,
    pub updates: u64,
    pub version_aborts: u64,
    pub update_version_aborts: u64,
    pub deadlock_aborts: u64,
    pub failure_aborts: u64,
    pub admission_sheds: u64,
    pub net_msgs: u64,
    pub net_bytes: u64,
    pub faults: u64,
    pub evictions: u64,
}

fn snapshot(cluster: &DmvCluster) -> Snapshot {
    let mut s = Snapshot {
        t_ns: now_ns(),
        cpu_ms: procfs::process_cpu_ms(),
        thread_cpu_ms: procfs::thread_cpu_ms(),
        net_msgs: cluster.net().messages_sent(),
        net_bytes: cluster.net().bytes_sent(),
        ..Snapshot::default()
    };
    for st in cluster.stats() {
        s.commits += st.commits.get();
        s.reads += st.reads.get();
        s.updates += st.updates.get();
        s.version_aborts += st.version_aborts.get();
        s.update_version_aborts += st.update_version_aborts.get();
        s.deadlock_aborts += st.deadlock_aborts.get();
        s.failure_aborts += st.failure_aborts.get();
        s.admission_sheds += st.admission_sheds.get();
    }
    for n in nodes(cluster) {
        let store = n.db().store();
        s.faults += store.fault_count();
        s.evictions += store.residency_counters().evictions();
    }
    s
}

/// Peaks of the gauges sampled every [`GAUGE_PERIOD`] in a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaugePeaks {
    pub pending_bytes: u64,
    pub resident_pages: u64,
    pub watermark_lag: u64,
}

fn sample_gauges(cluster: &DmvCluster, peaks: &mut GaugePeaks) {
    for (_, pending, resident) in cluster.memory_gauges() {
        peaks.pending_bytes = peaks.pending_bytes.max(pending);
        peaks.resident_pages = peaks.resident_pages.max(resident / PAGE_SIZE as u64);
    }
    let lag = cluster.latest_version().total().saturating_sub(cluster.epoch().published().total());
    peaks.watermark_lag = peaks.watermark_lag.max(lag);
}

/// Everything one run measured.
pub struct RunData {
    /// All interactions of all clients, warm-up included, in per-client
    /// completion order.
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    pub before: Snapshot,
    pub after: Snapshot,
    pub peaks: GaugePeaks,
    /// `[start, end)` of the slices during which spans were recorded.
    pub traced_slices: Vec<(u64, u64)>,
    /// `(time, process CPU ms so far)` at the window's start and after
    /// each of its whole seconds.
    pub cpu_series: Vec<(u64, f64)>,
}

impl RunData {
    /// Interactions that completed inside the measured window. The
    /// warm-up is the same steady load, so one begun in it and
    /// completed in the window counts: its work is in the window's CPU.
    pub fn measured(&self) -> impl Iterator<Item = &Sample> {
        let (w0, w1) = (self.before.t_ns, self.after.t_ns);
        self.samples.iter().filter(move |s| s.end_ns >= w0 && s.end_ns < w1)
    }
}

/// The span name of an interaction's root span.
pub fn root_span_name(kind: InteractionKind) -> &'static str {
    match kind {
        InteractionKind::Home => "tpcw.Home",
        InteractionKind::NewProducts => "tpcw.NewProducts",
        InteractionKind::BestSellers => "tpcw.BestSellers",
        InteractionKind::ProductDetail => "tpcw.ProductDetail",
        InteractionKind::SearchRequest => "tpcw.SearchRequest",
        InteractionKind::SearchResults => "tpcw.SearchResults",
        InteractionKind::ShoppingCart => "tpcw.ShoppingCart",
        InteractionKind::CustomerRegistration => "tpcw.CustomerRegistration",
        InteractionKind::BuyRequest => "tpcw.BuyRequest",
        InteractionKind::BuyConfirm => "tpcw.BuyConfirm",
        InteractionKind::OrderInquiry => "tpcw.OrderInquiry",
        InteractionKind::OrderDisplay => "tpcw.OrderDisplay",
        InteractionKind::AdminRequest => "tpcw.AdminRequest",
        InteractionKind::AdminConfirm => "tpcw.AdminConfirm",
    }
}

/// The mix's interaction kinds in a low-discrepancy order (smooth
/// weighted round-robin): after any number of steps every kind has run
/// its exact share, give or take one. Drawing kinds independently, as
/// the emulator does, makes the count of 60 ms BestSellers in a
/// 12-second window a Poisson variable — run-to-run noise of several
/// per cent that says nothing about the code. The seed still decides
/// every interaction's parameters and each client's phase.
struct MixSchedule {
    weights: [i64; 14],
    total: i64,
    credit: [i64; 14],
}

impl MixSchedule {
    fn new(mix: Mix, rng: &mut impl Rng) -> Self {
        let weights = mix.weights().map(i64::from);
        let total = weights.iter().sum();
        MixSchedule { weights, total, credit: weights.map(|w| rng.gen_range(0..=w)) }
    }

    fn next(&mut self) -> InteractionKind {
        let mut best = 0;
        for i in 0..self.credit.len() {
            self.credit[i] += self.weights[i];
            if self.credit[i] > self.credit[best] {
                best = i;
            }
        }
        self.credit[best] -= self.total;
        InteractionKind::ALL[best]
    }
}

/// One emulated browser: a deterministic interaction stream from
/// `(seed, client)`, issued back to back. Mirrors `StepDriver::step`,
/// opened up so the plan and the session call can be timed apart.
struct Client {
    session: Session,
    ids: Arc<IdAllocator>,
    scale: TpcwScale,
    schedule: MixSchedule,
    rng: rand::rngs::SmallRng,
    state: ClientState,
    steps: u64,
}

impl Client {
    fn new(dep: &Deployment, mix: Mix, seed: u64, client: u64) -> Self {
        let mut rng = derive(seed, client);
        let state = ClientState::new(rng.gen_range(1..=(dep.scale.customers as i64)));
        Client {
            session: dep.cluster.session(),
            ids: Arc::clone(&dep.ids),
            scale: dep.scale,
            schedule: MixSchedule::new(mix, &mut rng),
            rng,
            state,
            steps: 0,
        }
    }

    fn next_kind(&mut self) -> InteractionKind {
        let kind = self.schedule.next();
        let cart_full = matches!(&self.state.cart, Some((_, lines)) if lines.len() >= 8);
        if kind == InteractionKind::ShoppingCart && cart_full {
            InteractionKind::BuyConfirm
        } else {
            kind
        }
    }

    /// Plans and runs one interaction through the session's retrying
    /// calls; with `traced`, under spans.
    fn step(&mut self, kind: InteractionKind, traced: bool) -> DmvResult<()> {
        let now_date = 13_000 + self.steps as i64;
        self.steps += 1;
        let _root = trace::span(root_span_name(kind));
        let interaction = {
            let _s = trace::span("tpcw.plan");
            plan(kind, &mut self.rng, &mut self.state, &self.ids, self.scale, now_date)
        };
        let mut exec = interaction.exec;
        let tables = kind.tables();
        if !traced {
            return if kind.is_update() {
                self.session.update_with_retry(&tables, &mut exec, RETRIES)
            } else {
                self.session.read_with_retry(&mut exec, RETRIES)
            };
        }
        let _call = trace::span("core.session.call");
        // From the call to the first statement runner: admission, the
        // request hop, tagging, slave choice, begin.
        let mut before = Some(trace::span("core.scheduler.route"));
        // From the closure's return to the call's: commit pipeline and
        // reply hop — or, when another attempt follows, the failed
        // commit, the backoff and the re-route.
        let mut after: Option<trace::Open> = None;
        let tail = if kind.is_update() { "core.replica.commit" } else { "core.scheduler.reply" };
        let mut attempt = |r: &mut dyn StatementRunner| {
            drop(before.take());
            if let Some(gap) = after.take() {
                gap.close_as("core.session.retry_gap");
            }
            let out = {
                let _s = trace::span("core.replica.execute");
                exec(&mut TimedRunner { inner: r })
            };
            after = Some(trace::span(tail));
            out
        };
        let res = if kind.is_update() {
            self.session.update_with_retry(&tables, &mut attempt, RETRIES)
        } else {
            self.session.read_with_retry(&mut attempt, RETRIES)
        };
        drop(after.take());
        drop(before.take());
        res
    }
}

/// Drives `dep` closed-loop at zero think time from `w.clients` threads
/// for the warm-up plus `seconds`, the calling thread sleeping in
/// between its snapshots (and, with `traced`, sampling gauges and
/// flipping the span switch about every [`TRACE_SLICE`]).
pub fn run(dep: &Deployment, w: &Workload, seed: u64, seconds: u64, traced: bool) -> RunData {
    // Thread budget: client threads never outnumber the cores (main
    // checks it before deploying); this thread only sleeps between its
    // readings.
    let clients = w.clients;
    assert!(clients <= nproc(), "{} needs {clients} cores for its client threads", w.name);
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(clients + 1));
    let expected = (seconds + WARMUP.as_secs() + 1) as usize * 8_000;
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let mut client = Client::new(dep, w.mix, seed, c as u64);
        let (stop, start, on) = (Arc::clone(&stop), Arc::clone(&start), Arc::clone(&dep.trace_on));
        let h = std::thread::Builder::new()
            .name(format!("bench-client-{c}"))
            .spawn(move || {
                let mut samples: Vec<Sample> = Vec::with_capacity(expected);
                if traced {
                    trace::install_recorder(c as u64 + 1, expected * 12);
                }
                start.wait();
                let mut txn = (c as u64) << 40;
                while !stop.load(Ordering::Acquire) {
                    // relaxed-ok: span switch; a late observation traces one interaction more or less
                    let on = traced && on.load(Ordering::Relaxed);
                    txn += 1;
                    trace::begin_txn(txn, on);
                    let kind = client.next_kind();
                    let start_ns = now_ns();
                    let ok = client.step(kind, on).is_ok();
                    samples.push(Sample { start_ns, end_ns: now_ns(), kind, ok });
                }
                (samples, trace::take_spans())
            })
            .expect("spawn client thread");
        handles.push(h);
    }
    start.wait();
    std::thread::sleep(WARMUP);
    let before = snapshot(&dep.cluster);
    let end_at = before.t_ns + seconds * 1_000_000_000;
    let mut peaks = GaugePeaks::default();
    let mut traced_slices = Vec::new();
    let mut cpu_series = vec![(before.t_ns, before.cpu_ms)];
    let mut slice_rng = derive(seed, u64::MAX);
    let mut next_slice = move || {
        let mean = TRACE_SLICE.as_nanos() as u64;
        slice_rng.gen_range(mean * 6 / 10..=mean * 14 / 10)
    };
    let mut slice = next_slice();
    let (mut slice_start, mut on) = (before.t_ns, false);
    // Wake at every whole second of the window (CPU reading); a traced
    // run also wakes every GAUGE_PERIOD in between.
    loop {
        let now = now_ns();
        let next_second = before.t_ns + (cpu_series.len() as u64) * 1_000_000_000;
        if now >= next_second {
            cpu_series.push((now, procfs::process_cpu_ms()));
            if now >= end_at {
                break;
            }
            continue;
        }
        let mut wake = next_second - now;
        if traced {
            wake = wake.min(GAUGE_PERIOD.as_nanos() as u64);
        }
        std::thread::sleep(Duration::from_nanos(wake));
        if traced {
            sample_gauges(&dep.cluster, &mut peaks);
            let now = now_ns();
            if now >= slice_start + slice {
                if on {
                    traced_slices.push((slice_start, now));
                }
                on = !on;
                dep.trace_on.store(on, Ordering::SeqCst);
                slice_start = now;
                slice = next_slice();
            }
        }
    }
    if on {
        traced_slices.push((slice_start, now_ns()));
    }
    dep.trace_on.store(false, Ordering::SeqCst);
    let after = snapshot(&dep.cluster);
    stop.store(true, Ordering::Release);
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for h in handles {
        let (s, sp) = h.join().expect("client thread panicked");
        samples.extend(s);
        spans.extend(sp);
    }
    RunData { samples, spans, before, after, peaks, traced_slices, cpu_series }
}

/// Row count and order-independent checksum of every table, read
/// through `r`.
fn scan_digests(r: &mut dyn StatementRunner) -> DmvResult<Vec<(u64, u64)>> {
    (0..tpcw_schema().len() as u16)
        .map(|t| {
            let rs = r.run(&Query::Select(Select::scan(TableId(t))))?;
            let sum = rs.rows.iter().fold(0u64, |acc, row| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                row.hash(&mut h);
                acc.wrapping_add(h.finish())
            });
            Ok((rs.rows.len() as u64, sum))
        })
        .collect()
}

/// [`scan_digests`] of one node at `tag`. A slave materializes the
/// tagged version through its applier; the master is the origin of
/// every version and, quiescent, is read in place.
fn node_digests(
    node: &ReplicaNode,
    is_master: bool,
    tag: &VersionVector,
) -> DmvResult<Vec<(u64, u64)>> {
    if is_master {
        let mut txn = node.db().begin_read_local();
        let out = scan_digests(&mut ExecRunner::new(&mut txn));
        txn.commit(None);
        return out;
    }
    let mut out = Ok(Vec::new());
    node.execute_read_with(tag, &mut |r| {
        out = scan_digests(r);
        Ok(())
    })?;
    out
}

/// The output checks. Returns one line per violation; empty means the
/// run's outputs are correct.
pub fn verify(dep: &Deployment, w: &Workload, data: &RunData) -> Vec<String> {
    let mut bad = Vec::new();
    let failed = data.samples.iter().filter(|s| !s.ok).count();
    if failed > 0 {
        bad.push(format!("{failed} interactions failed after {RETRIES} retries"));
    }
    // All commits were acknowledged by every slave before their clients
    // returned, so the tier is quiescent: every node must now show the
    // same rows at the latest version.
    let tag = &dep.cluster.latest_version();
    let all = nodes(&dep.cluster);
    let digests: Vec<DmvResult<Vec<(u64, u64)>>> = std::thread::scope(|s| {
        let hs: Vec<_> = all
            .iter()
            .enumerate()
            .map(|(i, n)| s.spawn(move || node_digests(n, i == 0, tag)))
            .collect();
        hs.into_iter().map(|h| h.join().expect("digest thread panicked")).collect()
    });
    let mut master: Option<&Vec<(u64, u64)>> = None;
    for (node, d) in all.iter().zip(&digests) {
        match (d, master) {
            (Err(e), _) => bad.push(format!("node {}: digest read failed: {e}", node.id())),
            (Ok(d), None) => master = Some(d),
            (Ok(d), Some(m)) if d != m => {
                let t = d.iter().zip(m).position(|(a, b)| a != b).unwrap_or(0);
                bad.push(format!(
                    "node {} diverges from the master on table {t}: {:?} vs {:?}",
                    node.id(),
                    d[t],
                    m[t]
                ));
            }
            _ => {}
        }
    }
    // Nothing lost, nothing applied twice: every acknowledged
    // BuyConfirm inserted exactly one ORDERS row.
    if let Some(m) = master {
        let orders = m[schema::ORDERS.0 as usize].0;
        let acked =
            data.samples.iter().filter(|s| s.ok && s.kind == InteractionKind::BuyConfirm).count();
        if orders != dep.initial_orders + acked as u64 {
            bad.push(format!(
                "ORDERS has {orders} rows, expected {} populated + {acked} acknowledged BuyConfirm",
                dep.initial_orders
            ));
        }
    }
    let faults = data.after.faults - data.before.faults;
    if !w.larger_than_memory && data.after.faults > 0 {
        bad.push(format!("{} page faults on an in-memory workload", data.after.faults));
    }
    if w.larger_than_memory && faults == 0 {
        bad.push("no page faults under a half-working-set budget".into());
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv::common::rng::seeded;

    #[test]
    fn mix_schedule_gives_every_kind_its_exact_share() {
        for mix in Mix::ALL {
            let weights = mix.weights();
            let total: u32 = weights.iter().sum();
            let mut schedule = MixSchedule::new(mix, &mut seeded(9));
            let mut seen = [0u32; 14];
            for step in 1..=3 * total {
                let kind = schedule.next();
                seen[InteractionKind::ALL.iter().position(|k| *k == kind).unwrap()] += 1;
                // Low discrepancy: at every prefix, not only at the end.
                if step % 997 == 0 {
                    for (n, w) in seen.iter().zip(&weights) {
                        let due = f64::from(*w) * f64::from(step) / f64::from(total);
                        assert!(
                            (f64::from(*n) - due).abs() <= 2.0,
                            "{mix} step {step}: {n} vs {due}"
                        );
                    }
                }
            }
            for (n, w) in seen.iter().zip(&weights) {
                assert!(n.abs_diff(3 * w) <= 1, "{mix}: {n} runs for weight {w}");
            }
        }
    }

    #[test]
    fn mix_schedule_phase_follows_the_seed() {
        let first = |seed| {
            let mut s = MixSchedule::new(Mix::Ordering, &mut seeded(seed));
            (0..50).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(first(1), first(1));
        assert_ne!(first(1), first(2));
    }

    #[test]
    fn workload_table_is_well_formed() {
        assert_eq!(WORKLOADS.map(|w| w.name), ["browse", "order", "order_fanout8", "order_ltm"]);
        assert!(workload("order_ltm").unwrap().larger_than_memory);
        assert!(workload("nope").is_none());
    }
}
