//! # dmv-bench
//!
//! Shared harness for the experiment reproductions: deployments of the
//! DMV cluster and its on-disk baselines, and the fail-over runs several
//! figures share. [`figs`] turns each paper figure into a function that
//! returns its rows and verdicts in paper-time units; the `figs` binary
//! (`cargo xtask figs`) runs them and writes `BENCH_figs.json`.

pub mod figs;

use dmv_common::clock::{sleep_wall, SimClock, TimeScale};
use dmv_common::config::{BufferBudget, ConcurrencyMode};
use dmv_common::stats::SeriesPoint;
use dmv_core::cluster::{ClusterSpec, DmvCluster};
use dmv_core::scheduler::WarmupStrategy;
use dmv_ondisk::{DiskDb, DiskDbOptions, InnoDbTier};
use dmv_tpcw::backend::{load_cluster, load_diskdb, load_tier, Backend};
use dmv_tpcw::interactions::IdAllocator;
use dmv_tpcw::populate::{generate, TpcwScale};
use dmv_tpcw::schema::tpcw_schema;
use std::sync::Arc;
use std::time::Duration;

/// Seed shared by all experiments (reproducible runs).
pub const SEED: u64 = 20070625;

/// A deployed DMV system under test.
pub struct DmvDeployment {
    /// The cluster.
    pub cluster: Arc<DmvCluster>,
    /// Workload backend handle.
    pub backend: Backend,
    /// Id allocator continuing from the population.
    pub ids: Arc<IdAllocator>,
    /// Population scale.
    pub scale: TpcwScale,
    /// Cluster clock.
    pub clock: SimClock,
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
    /// Fuzzy checkpoint period.
    pub checkpoint_period: Option<Duration>,
    /// Page-in latency for non-resident pages.
    pub fault_latency: Duration,
    /// On-disk persistence backends.
    pub backends: usize,
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
            checkpoint_period: None,
            fault_latency: Duration::from_millis(8),
            backends: 0,
            buffer_budget: BufferBudget::unbounded(),
            concurrency: ConcurrencyMode::TwoPhase,
        }
    }
}

/// Builds and populates a DMV cluster for TPC-W.
pub fn deploy_dmv(scale: TpcwScale, time_scale: f64, opts: DmvOptions) -> DmvDeployment {
    let mut spec = ClusterSpec::new(tpcw_schema(), TimeScale::new(time_scale));
    spec.n_slaves = opts.slaves;
    spec.n_spares = opts.spares;
    spec.warmup = opts.warmup;
    spec.checkpoint_period = opts.checkpoint_period;
    spec.fault_latency = opts.fault_latency;
    spec.n_backends = opts.backends;
    spec.buffer_budget = opts.buffer_budget;
    spec.concurrency = opts.concurrency;
    spec.detect_interval = Duration::from_millis(500);
    let cluster = DmvCluster::start(spec);
    let pop = generate(scale, SEED);
    load_cluster(&cluster, &pop).expect("population loads");
    cluster.finish_load();
    let ids = Arc::new(IdAllocator::from_population(scale, &pop));
    let backend = Backend::Dmv(cluster.session());
    let clock = cluster.clock();
    DmvDeployment { cluster, backend, ids, scale, clock }
}

/// Builds and populates a stand-alone on-disk database (the Figure 3
/// baseline). `buffer_fraction` sizes the buffer pool relative to the
/// populated page count.
pub fn deploy_disk(
    scale: TpcwScale,
    time_scale: f64,
    buffer_fraction: f64,
) -> (Arc<DiskDb>, Backend, Arc<IdAllocator>, SimClock) {
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
    (db, backend, ids, clock)
}

/// Builds and populates a replicated on-disk tier (the Figure 5
/// baseline): `n_actives` actives + 1 passive spare.
pub fn deploy_tier(
    scale: TpcwScale,
    time_scale: f64,
    n_actives: usize,
    buffer_pages: usize,
) -> (Arc<InnoDbTier>, Backend, Arc<IdAllocator>, SimClock) {
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
    (tier, backend, ids, clock)
}

/// Prints a throughput/latency series in paper-time units.
pub fn print_series(title: &str, series: &[SeriesPoint]) {
    println!("\n  {title}");
    println!("  {:>8} {:>12} {:>14}", "t (s)", "WIPS", "latency (ms)");
    for p in series {
        println!(
            "  {:>8} {:>12.1} {:>14.1}",
            p.start.as_secs(),
            p.rate(),
            p.mean_latency.as_secs_f64() * 1e3
        );
    }
}

/// Mean rate over the series windows within `[from, to)`.
pub fn mean_rate(series: &[SeriesPoint], from: Duration, to: Duration) -> f64 {
    let pts: Vec<&SeriesPoint> =
        series.iter().filter(|p| p.start >= from && p.start < to).collect();
    if pts.is_empty() {
        return 0.0;
    }
    pts.iter().map(|p| p.rate()).sum::<f64>() / pts.len() as f64
}

/// First window start at or after `from` whose rate reaches
/// `threshold`; `None` if never.
pub fn recovery_time(series: &[SeriesPoint], from: Duration, threshold: f64) -> Option<Duration> {
    series.iter().find(|p| p.start >= from && p.rate() >= threshold).map(|p| p.start)
}

/// Phase durations of a stale-backup fail-over (paper Figure 6).
#[derive(Debug, Clone, Copy)]
pub struct FailoverPhases {
    /// Abort/cleanup + reconfiguration ("Recovery"; DMV-only, §4.2).
    pub recovery: Duration,
    /// Bringing the backup up to date ("DB Update"): log replay for the
    /// on-disk tier, selective page transfer for DMV.
    pub db_update: Duration,
    /// From integration until throughput regains 90 % of the pre-failure
    /// level ("Cache Warmup").
    pub cache_warmup: Duration,
    /// Total fail-over time (kill → sustained recovery).
    pub total: Duration,
}

/// Result of one stale-backup fail-over run.
pub struct StaleFailoverRun {
    /// Throughput series over the whole run.
    pub series: Vec<SeriesPoint>,
    /// Pre-failure WIPS.
    pub pre_rate: f64,
    /// Phase breakdown.
    pub phases: FailoverPhases,
    /// Paper time of the kill.
    pub kill_at: Duration,
}

fn shopping_cfg(total: Duration, window: Duration) -> dmv_tpcw::emulator::EmulatorConfig {
    dmv_tpcw::emulator::EmulatorConfig {
        mix: dmv_tpcw::Mix::Shopping,
        n_clients: 24,
        think_time: Duration::from_millis(200),
        duration: total,
        warmup: Duration::ZERO,
        retries: 30,
        seed: SEED,
        series_window: window,
    }
}

/// Sleeps until `clock` reaches `until` paper time.
pub(crate) fn wait_paper(clock: SimClock, until: Duration) {
    while clock.now_paper() < until {
        sleep_wall(Duration::from_millis(5));
    }
}

/// Figure 5(a,b) baseline: replicated on-disk tier (2 actives + 1 stale
/// passive spare), one active killed mid-run, spare promoted by binlog
/// replay from disk.
pub fn innodb_stale_failover(
    time_scale: f64,
    kill_at: Duration,
    total: Duration,
) -> StaleFailoverRun {
    let scale = TpcwScale::small();
    let (tier, backend, ids, clock) = deploy_tier(scale, time_scale, 2, 400);
    let handle = dmv_tpcw::emulator::spawn_emulator(
        &backend,
        clock,
        &ids,
        scale,
        shopping_cfg(total, Duration::from_secs(10)),
    );
    wait_paper(clock, kill_at);
    tier.kill_active(0);
    let breakdown = tier.failover().expect("failover succeeds");
    let failover_done = clock.now_paper();
    let report = handle.join();
    let pre_rate = mean_rate(&report.series, Duration::from_secs(20), kill_at);
    let recovered_at =
        recovery_time(&report.series, failover_done, pre_rate * 0.9).unwrap_or(total);
    let phases = FailoverPhases {
        recovery: breakdown.recovery,
        db_update: breakdown.db_update,
        cache_warmup: recovered_at.saturating_sub(failover_done),
        total: recovered_at.saturating_sub(kill_at),
    };
    StaleFailoverRun { series: report.series, pre_rate, phases, kill_at }
}

/// Figure 5(c,d): DMV tier with a master, two active slaves and one
/// 30-minute-stale backup; the master is killed (worst case, including
/// master reconfiguration), a slave is promoted and the stale backup is
/// reintegrated via selective page transfer.
pub fn dmv_stale_failover(time_scale: f64, kill_at: Duration, total: Duration) -> StaleFailoverRun {
    let scale = TpcwScale::small();
    let d = deploy_dmv(scale, time_scale, DmvOptions { slaves: 3, ..Default::default() });
    // Make one slave the "stale backup": it fails at t≈0 with its
    // baseline checkpoint and sits out the first part of the run.
    let stale = d.cluster.slave_ids()[2];
    d.cluster.kill_replica(stale);
    d.cluster.detect_and_reconfigure();

    let handle = dmv_tpcw::emulator::spawn_emulator(
        &d.backend,
        d.clock,
        &d.ids,
        scale,
        shopping_cfg(total, Duration::from_secs(10)),
    );
    wait_paper(d.clock, kill_at);
    let master = d.cluster.master(0).id();
    d.cluster.kill_replica(master);
    let t_kill = d.clock.now_paper();
    // Recovery phase: detection + discard of partially propagated
    // transactions + slave promotion.
    d.cluster.detect_and_reconfigure();
    let t_promoted = d.clock.now_paper();
    // DB update phase: reintegrate the stale backup as the new slave.
    let report = d.cluster.reintegrate(stale).expect("stale backup integrates");
    let t_integrated = d.clock.now_paper();
    let emu = handle.join();
    d.cluster.shutdown();

    let pre_rate = mean_rate(&emu.series, Duration::from_secs(20), kill_at);
    let recovered_at = recovery_time(&emu.series, t_integrated, pre_rate * 0.9).unwrap_or(total);
    let phases = FailoverPhases {
        recovery: t_promoted.saturating_sub(t_kill),
        db_update: report.duration,
        cache_warmup: recovered_at.saturating_sub(t_integrated),
        total: recovered_at.saturating_sub(kill_at),
    };
    StaleFailoverRun { series: emu.series, pre_rate, phases, kill_at }
}

/// Outcome of a spare-backup fail-over run (Figures 7–9 share this
/// harness; only the warmup strategy differs).
#[derive(Debug)]
pub struct SpareFailoverOutcome {
    /// Full-run throughput series.
    pub series: Vec<SeriesPoint>,
    /// Mean WIPS before the failure.
    pub pre_rate: f64,
    /// Minimum windowed WIPS in the post-failure interval.
    pub post_min_rate: f64,
    /// Mean WIPS over the tail of the run (after recovery should have
    /// completed).
    pub tail_rate: f64,
    /// Paper time of the kill.
    pub kill_at: Duration,
}

/// Runs the up-to-date-backup fail-over experiment (paper §6.3, cold /
/// warm backup cases): master + 1 active slave + 1 spare; the active
/// slave is killed mid-run and the spare is activated. The spare starts
/// with a cold cache; `warmup` determines whether and how it is warmed
/// during normal operation.
pub fn spare_failover_experiment(warmup: WarmupStrategy) -> SpareFailoverOutcome {
    let time_scale = 0.25;
    let scale = TpcwScale::small_large(); // the paper's larger 400K-customer config, 1/100
    let d = deploy_dmv(
        scale,
        time_scale,
        DmvOptions { slaves: 1, spares: 1, warmup, ..Default::default() },
    );
    // The spare subscribed to the stream but has a cold buffer cache.
    let spare_id = d.cluster.spare_ids()[0];
    d.cluster.replica(spare_id).expect("spare exists").evict_all();

    let kill_at = Duration::from_secs(60);
    let total = Duration::from_secs(140);
    let cfg = dmv_tpcw::emulator::EmulatorConfig {
        mix: dmv_tpcw::Mix::Shopping,
        n_clients: 24,
        think_time: Duration::from_millis(200),
        duration: total,
        warmup: Duration::ZERO,
        retries: 30,
        seed: SEED,
        series_window: Duration::from_secs(5),
    };
    let handle = dmv_tpcw::emulator::spawn_emulator(&d.backend, d.clock, &d.ids, scale, cfg);
    // Kill the active slave at the scheduled paper time.
    let victim = d.cluster.slave_ids()[0];
    wait_paper(d.clock, kill_at);
    d.cluster.kill_replica(victim);
    let report = handle.join();
    d.cluster.shutdown();

    let pre_rate = mean_rate(&report.series, Duration::from_secs(15), kill_at);
    let post: Vec<f64> = report
        .series
        .iter()
        .filter(|p| p.start >= kill_at && p.start < kill_at + Duration::from_secs(40))
        .map(SeriesPoint::rate)
        .collect();
    let post_min_rate = post.iter().copied().fold(f64::INFINITY, f64::min);
    let tail_rate = mean_rate(&report.series, total - Duration::from_secs(30), total);
    SpareFailoverOutcome { series: report.series, pre_rate, post_min_rate, tail_rate, kill_at }
}
