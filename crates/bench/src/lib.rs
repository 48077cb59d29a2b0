//! # dmv-bench
//!
//! Shared harness for the experiment reproductions: deployments of the
//! DMV cluster and its on-disk baselines, and `failover`, the one
//! driver of every fail-over figure. [`figs`] turns each paper figure
//! into a function that returns its rows and verdicts in paper-time
//! units; the `figs` binary (`cargo xtask figs`) runs them and writes
//! `BENCH_figs.json`.

pub mod figs;

use dmv_common::clock::{sleep_wall, SimClock, TimeScale};
use dmv_common::config::{BufferBudget, ConcurrencyMode};
use dmv_common::ids::NodeId;
use dmv_common::stats::SeriesPoint;
use dmv_core::cluster::{ClusterSpec, DmvCluster, MigrationReport};
use dmv_core::scheduler::WarmupStrategy;
use dmv_ondisk::{DiskDb, DiskDbOptions, InnoDbTier};
use dmv_tpcw::backend::{load_cluster, load_diskdb, load_tier, Backend};
use dmv_tpcw::emulator::{run_emulator, spawn_emulator, EmulatorConfig, EmulatorReport};
use dmv_tpcw::interactions::IdAllocator;
use dmv_tpcw::populate::{generate, TpcwScale};
use dmv_tpcw::schema::tpcw_schema;
use dmv_tpcw::Mix;
use std::sync::Arc;
use std::time::Duration;

/// Seed shared by all experiments (reproducible runs).
pub const SEED: u64 = 20070625;

/// A deployed tier under test: a [`DmvCluster`], an [`InnoDbTier`] or a
/// stand-alone [`DiskDb`], and what the emulator needs to drive it.
pub struct Deployment<T> {
    /// The tier.
    pub cluster: Arc<T>,
    /// Workload backend handle.
    pub backend: Backend,
    /// Id allocator continuing from the population.
    pub ids: Arc<IdAllocator>,
    /// Population scale.
    pub scale: TpcwScale,
    /// The tier's clock.
    pub clock: SimClock,
}

impl<T> Deployment<T> {
    /// Runs the TPC-W emulator against the tier to completion.
    pub fn run(&self, cfg: EmulatorConfig) -> EmulatorReport {
        run_emulator(&self.backend, self.clock, &self.ids, self.scale, cfg)
    }
}

/// Options for [`deploy_dmv`].
#[derive(Debug, Clone)]
pub struct DmvOptions {
    /// Active slaves.
    pub slaves: usize,
    /// Spare backups.
    pub spares: usize,
    /// Spare warmup strategy.
    pub warmup: WarmupStrategy,
    /// Per-node buffer budget (larger-than-memory runs); unbounded by
    /// default.
    pub buffer_budget: BufferBudget,
    /// Master concurrency control: the paper's per-page 2PL (default)
    /// or copy-on-write page MVCC.
    pub concurrency: ConcurrencyMode,
}

impl Default for DmvOptions {
    fn default() -> Self {
        DmvOptions {
            slaves: 2,
            spares: 0,
            warmup: WarmupStrategy::None,
            buffer_budget: BufferBudget::unbounded(),
            concurrency: ConcurrencyMode::TwoPhase,
        }
    }
}

/// Builds and populates a DMV cluster for TPC-W.
pub fn deploy_dmv(scale: TpcwScale, time_scale: f64, opts: DmvOptions) -> Deployment<DmvCluster> {
    let mut spec = ClusterSpec::new(tpcw_schema(), TimeScale::new(time_scale));
    spec.n_slaves = opts.slaves;
    spec.n_spares = opts.spares;
    spec.warmup = opts.warmup;
    spec.buffer_budget = opts.buffer_budget;
    spec.concurrency = opts.concurrency;
    deploy(scale, spec)
}

/// Starts a DMV cluster from `spec`, its monitor polling every 500 ms,
/// and loads the TPC-W population.
fn deploy(scale: TpcwScale, mut spec: ClusterSpec) -> Deployment<DmvCluster> {
    spec.detect_interval = Duration::from_millis(500);
    let cluster = DmvCluster::start(spec);
    let pop = generate(scale, SEED);
    load_cluster(&cluster, &pop).expect("population loads");
    cluster.finish_load();
    let ids = Arc::new(IdAllocator::from_population(scale, &pop));
    let backend = Backend::Dmv(cluster.session());
    let clock = cluster.clock();
    Deployment { cluster, backend, ids, scale, clock }
}

/// Builds and populates a stand-alone on-disk database (the Figure 3
/// baseline). `buffer_fraction` sizes the buffer pool relative to the
/// populated page count.
pub fn deploy_disk(scale: TpcwScale, time_scale: f64, buffer_fraction: f64) -> Deployment<DiskDb> {
    let clock = SimClock::new(TimeScale::new(time_scale));
    // First load with a free clock to learn the page count, then rebuild.
    let pop = generate(scale, SEED);
    let probe = DiskDb::new(
        tpcw_schema(),
        DiskDbOptions {
            clock: SimClock::new(TimeScale::new(1e-9)),
            buffer_pages: usize::MAX,
            ..Default::default()
        },
    );
    load_diskdb(&probe, &pop).expect("probe load");
    let total_pages = probe.total_pages();
    let buffer_pages = ((total_pages as f64 * buffer_fraction) as usize).max(16);
    drop(probe);

    let db = Arc::new(DiskDb::new(
        tpcw_schema(),
        DiskDbOptions {
            clock,
            buffer_pages,
            cpu: dmv_common::config::CpuProfile::athlon_2007(),
            ..Default::default()
        },
    ));
    load_diskdb(&db, &pop).expect("population loads");
    db.prewarm();
    let ids = Arc::new(IdAllocator::from_population(scale, &pop));
    let backend = Backend::Disk(Arc::clone(&db));
    Deployment { cluster: db, backend, ids, scale, clock }
}

/// Builds and populates a replicated on-disk tier (the Figure 5
/// baseline): `n_actives` actives + 1 passive spare.
pub fn deploy_tier(
    scale: TpcwScale,
    time_scale: f64,
    n_actives: usize,
    buffer_pages: usize,
) -> Deployment<InnoDbTier> {
    let clock = SimClock::new(TimeScale::new(time_scale));
    let tier = Arc::new(InnoDbTier::new(
        tpcw_schema(),
        n_actives,
        DiskDbOptions {
            clock,
            buffer_pages,
            cpu: dmv_common::config::CpuProfile::athlon_2007(),
            ..Default::default()
        },
    ));
    let pop = generate(scale, SEED);
    load_tier(&tier, &pop).expect("population loads");
    for i in 0..n_actives {
        tier.active(i).prewarm();
    }
    let ids = Arc::new(IdAllocator::from_population(scale, &pop));
    let backend = Backend::Tier(Arc::clone(&tier));
    Deployment { cluster: tier, backend, ids, scale, clock }
}

/// Prints a throughput/latency series in paper-time units.
pub fn print_series(title: &str, series: &[SeriesPoint]) {
    println!("\n  {title}");
    println!("  {:>8} {:>12} {:>14}", "t (s)", "WIPS", "latency (ms)");
    for p in series {
        let ms = p.mean_latency.as_secs_f64() * 1e3;
        println!("  {:>8} {:>12.1} {ms:>14.1}", p.start.as_secs(), p.rate());
    }
}

/// Mean rate over the series windows that lie within `[from, to]`: they
/// start at or after `from` and close by `to`, so a window a kill at
/// `to` falls in is not one.
pub fn mean_rate(series: &[SeriesPoint], from: Duration, to: Duration) -> f64 {
    let within = |p: &&SeriesPoint| p.start >= from && p.start + p.width <= to;
    let rates: Vec<f64> = series.iter().filter(within).map(SeriesPoint::rate).collect();
    rates.iter().sum::<f64>() / rates.len().max(1) as f64
}

/// `series` summed into windows of `width`, a multiple of its own; the
/// buckets start at multiples of `width`.
fn buckets(series: &[SeriesPoint], width: Duration) -> Vec<SeriesPoint> {
    let mut out: Vec<SeriesPoint> = Vec::new();
    for p in series {
        let start = width * (p.start.as_nanos() / width.as_nanos()) as u32;
        match out.last_mut() {
            Some(b) if b.start == start => {
                let latency = b.mean_latency * b.events as u32 + p.mean_latency * p.events as u32;
                b.events += p.events;
                b.mean_latency = latency.checked_div(b.events as u32).unwrap_or_default();
            }
            _ => out.push(SeriesPoint { start, width, ..*p }),
        }
    }
    out
}

/// When a warm-up that may start at `from` ends: at the first of three
/// consecutive windows at or above `threshold` (the part of the first
/// one after `from`), or at `end` if there are never three before it.
fn warm_at(series: &[SeriesPoint], from: Duration, threshold: f64, end: Duration) -> Duration {
    let run: Vec<&SeriesPoint> =
        series.iter().filter(|p| p.start + p.width > from && p.start < end).collect();
    run.windows(3)
        .find(|w| w.iter().all(|p| p.rate() >= threshold))
        .map_or(end, |w| w[0].start.max(from))
}

/// One step of a fail-over experiment. Each stamps the instant it
/// completes, on the emulator's origin, into `Failover`.
#[derive(Debug, Clone, Copy)]
enum Step<'a> {
    /// Fail-stops a DMV node. Stamps `kill`.
    Kill(&'a DmvCluster, NodeId),
    /// Waits (until the run's end at most) for the cluster's own
    /// `dmv-monitor` to reconfigure around a killed node: a slave
    /// promoted in a master's place, or the node dropped from the slaves
    /// and a spare, if any, activated in the same pass. Stamps
    /// `promoted`.
    Reconfigured(&'a DmvCluster, NodeId),
    /// Reintegrates a failed DMV node by selective page transfer
    /// (§4.4). Stamps `integrated` and records the transfer.
    Reintegrate(&'a DmvCluster, NodeId),
    /// Kills the on-disk tier's first active and replays the binlog
    /// backlog onto its stale spare. Stamps `kill`, `promoted` at the
    /// replay's start (the on-disk tier has no Recovery stage) and
    /// `integrated` at its end.
    Replay(&'a InnoDbTier),
}

/// One fail-over run: its throughput and its stamps, every instant
/// counted from the emulator's start. A stamp holds the last step that
/// set it; one no step set reads the run's end.
#[derive(Debug)]
struct Failover {
    /// Throughput in 1 s windows.
    series: Vec<SeriesPoint>,
    /// The run's length.
    total: Duration,
    /// The kill.
    kill: Duration,
    /// The end of the Recovery stage.
    promoted: Duration,
    /// The end of the DB Update stage.
    integrated: Duration,
    /// The last reintegration's page transfer.
    migration: Option<MigrationReport>,
}

/// Stage lengths of a fail-over onto a stale backup (paper Figure 6).
#[derive(Debug, Clone, Copy)]
pub struct FailoverPhases {
    /// Detection, abort/cleanup and reconfiguration ("Recovery"; §4.2):
    /// kill → promotion.
    pub recovery: Duration,
    /// Bringing the backup up to date ("DB Update"): log replay for the
    /// on-disk tier, selective page transfer for DMV.
    pub db_update: Duration,
    /// From integration until throughput holds 90 % of the pre-failure
    /// level ("Cache Warmup"; `warm_at`).
    pub cache_warmup: Duration,
    /// Kill → warm.
    pub total: Duration,
}

impl Failover {
    /// Stage lengths against a pre-failure rate of `pre`.
    fn phases(&self, pre: f64) -> FailoverPhases {
        let warm = warm_at(&self.series, self.integrated, pre * 0.9, self.total);
        FailoverPhases {
            recovery: self.promoted.saturating_sub(self.kill),
            db_update: self.integrated.saturating_sub(self.promoted),
            cache_warmup: warm.saturating_sub(self.integrated),
            total: warm.saturating_sub(self.kill),
        }
    }
}

/// Runs the shopping mix (24 clients, 200 ms think time) against `d` for
/// `total` paper time and takes `steps` in order, each no earlier than
/// its instant after the emulator's start.
fn failover<T>(d: &Deployment<T>, total: Duration, steps: &[(Duration, Step<'_>)]) -> Failover {
    let cfg = EmulatorConfig {
        mix: Mix::Shopping,
        n_clients: 24,
        think_time: Duration::from_millis(200),
        duration: total,
        warmup: Duration::ZERO,
        retries: 30,
        seed: SEED,
        series_window: Duration::from_secs(1),
    };
    let handle = spawn_emulator(&d.backend, d.clock, &d.ids, d.scale, cfg);
    let now = || d.clock.now_paper().saturating_sub(handle.start());
    let wait = |until: Duration, done: &dyn Fn() -> bool| {
        while now() < until && !done() {
            sleep_wall(Duration::from_millis(1));
        }
    };
    let (mut kill, mut promoted, mut integrated, mut migration) = (total, total, total, None);
    for &(at, step) in steps {
        wait(at, &|| false);
        match step {
            Step::Kill(c, id) => {
                c.kill_replica(id);
                kill = now();
            }
            Step::Reconfigured(c, id) => {
                wait(total, &|| c.master(0).id() != id && !c.slave_ids().contains(&id));
                promoted = now();
            }
            Step::Reintegrate(c, id) => {
                migration = Some(c.reintegrate(id).expect("the node reintegrates"));
                integrated = now();
            }
            Step::Replay(tier) => {
                tier.kill_active(0);
                (kill, promoted) = (now(), now());
                tier.failover().expect("the spare replays its backlog");
                integrated = now();
            }
        }
    }
    let series = handle.join().series;
    Failover { series, total, kill, promoted, integrated, migration }
}
