//! The paper's figures as functions.
//!
//! Each function runs one experiment, prints its series, and returns a
//! [`Figure`]: the summary numbers it measured (rows) and one verdict
//! per shape check (who wins, by roughly what factor, where the dips
//! and recoveries fall). Absolute WIPS differ from the paper (simulated
//! substrate, scaled database); the checks assert the relative results.
//! The `figs` binary (`cargo xtask figs`) runs them and writes the rows
//! and verdicts with [`to_json`].

use crate::{
    buckets, deploy, deploy_disk, deploy_dmv, deploy_tier, failover, mean_rate, print_series,
    Deployment, DmvOptions, Failover, FailoverPhases, Step, SEED,
};
use dmv_common::clock::TimeScale;
use dmv_common::config::{BufferBudget, ConcurrencyMode};
use dmv_core::cluster::{ClusterSpec, DmvCluster};
use dmv_core::scheduler::WarmupStrategy;
use dmv_pagestore::PAGE_SIZE;
use dmv_tpcw::emulator::{EmulatorConfig, EmulatorReport};
use dmv_tpcw::populate::TpcwScale;
use dmv_tpcw::schema::tpcw_schema;
use dmv_tpcw::Mix;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Duration;

/// One summary number of a figure.
#[derive(Debug)]
pub struct Row {
    /// Name, unique within the figure.
    pub name: String,
    /// Value in `unit`.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// The outcome of one shape check.
#[derive(Debug)]
pub struct Verdict {
    /// The claim checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// The measured numbers behind it.
    pub detail: String,
}

/// A figure's rows and verdicts.
#[derive(Debug)]
pub struct Figure {
    /// Short id: `F3`…`F9`, `T1`, `saturation`, `ltm`.
    pub id: &'static str,
    /// What the figure shows.
    pub title: &'static str,
    /// Summary numbers, in the order measured.
    pub rows: Vec<Row>,
    /// Shape-check verdicts, in the order evaluated.
    pub verdicts: Vec<Verdict>,
}

impl Figure {
    /// An empty figure; prints its banner.
    fn new(id: &'static str, title: &'static str) -> Self {
        println!("\n================================================================");
        println!("{id} — {title}");
        println!("================================================================");
        Figure { id, title, rows: Vec::new(), verdicts: Vec::new() }
    }

    /// Records and prints a summary number.
    fn row(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("  {name:<36} {value:>12.3} {unit}");
        self.rows.push(Row { name, value, unit });
    }

    /// Records and prints a shape-check verdict.
    fn check(&mut self, name: impl Into<String>, pass: bool, detail: impl Into<String>) {
        let (name, detail) = (name.into(), detail.into());
        println!("  [{}] {name}: {detail}", if pass { "PASS" } else { "FAIL" });
        self.verdicts.push(Verdict { name, pass, detail });
    }

    /// True when every verdict passed.
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }
}

/// Runs one figure.
pub type Run = fn() -> Figure;

/// Every figure of a full run, in run order, by id.
pub const ALL: [(&str, Run); 10] = [
    ("F3", fig3),
    ("F4", fig4),
    ("F5", fig5),
    ("F6", fig6),
    ("F7", fig7),
    ("F8", fig8),
    ("F9", fig9),
    ("T1", abort_rates),
    ("saturation", || {
        saturation(&Sweep::full(), &[ConcurrencyMode::TwoPhase, ConcurrencyMode::MvccCow])
    }),
    ("ltm", || ltm(&Sweep::full(), &[ConcurrencyMode::TwoPhase, ConcurrencyMode::MvccCow])),
];

/// The seconds-long sanity run: the MvccCow saturation and ltm cells and
/// the DMV stale fail-over at smoke size. Absolute numbers mean nothing
/// at that scale; the three verdicts survive its noise.
pub fn smoke() -> Vec<Figure> {
    let modes = [ConcurrencyMode::MvccCow];
    let mut f = Figure::new("F6", "DMV fail-over onto a stale backup at smoke size");
    let run = dmv_stale(0.1, Duration::from_secs(20), Duration::from_secs(50));
    stale_rows(&mut f, "dmv", &run);
    stages_ordered(&mut f, &run);
    vec![saturation(&Sweep::smoke(), &modes), ltm(&Sweep::smoke(), &modes), f]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn mode_name(mode: ConcurrencyMode) -> &'static str {
    match mode {
        ConcurrencyMode::TwoPhase => "2pl",
        ConcurrencyMode::MvccCow => "mvcc",
    }
}

/// A DMV cell's abort rows, in % of attempts: version conflicts and 2PL deadlocks.
fn abort_rows(f: &mut Figure, cell: &str, cluster: &DmvCluster) {
    f.row(format!("{cell}.abort_pct"), cluster.version_abort_rate() * 100.0, "%");
    f.row(format!("{cell}.deadlock_pct"), cluster.deadlock_rate() * 100.0, "%");
}

/// Figure 3 — throughput of the DMV in-memory tier (1, 2, 4, 8 slaves)
/// against a stand-alone on-disk database, for each TPC-W mix.
///
/// Paper result: with 8 slaves the in-memory tier beats InnoDB by
/// ×14.6 (browsing), ×17.6 (shopping) and ×6.5 (ordering); browsing and
/// shopping scale near-linearly with slaves while ordering scales worse
/// (master saturation from update/index work).
fn fig3() -> Figure {
    const TIME_SCALE: f64 = 0.25;
    let cfg = |mix| EmulatorConfig {
        mix,
        n_clients: 32,
        think_time: Duration::from_millis(150),
        duration: Duration::from_secs(8),
        warmup: Duration::from_secs(3),
        retries: 20,
        seed: SEED,
        series_window: Duration::from_secs(2),
    };
    let mut f = Figure::new("F3", "DMV in-memory tier vs stand-alone InnoDB (peak WIPS)");
    let scale = TpcwScale::small();
    let mut speedup8 = Vec::new();
    for mix in Mix::ALL {
        println!("\n--- {mix} mix ({}% updates) ---", (mix.update_fraction() * 100.0).round());
        // Stand-alone on-disk baseline (buffer pool ~40% of the DB).
        let report = deploy_disk(scale, TIME_SCALE, 0.4).run(cfg(mix));
        let base = report.wips;
        f.row(format!("{mix}.innodb.wips"), base, "WIPS");
        f.row(format!("{mix}.innodb.mean_ms"), ms(report.mean_latency), "ms");
        f.row(format!("{mix}.innodb.p90_ms"), ms(report.p90_latency), "ms");
        f.row(format!("{mix}.innodb.errors"), report.errors as f64, "count");
        let mut wips = Vec::new();
        for n in [1, 2, 4, 8] {
            let d = deploy_dmv(scale, TIME_SCALE, DmvOptions { slaves: n, ..Default::default() });
            let report = d.run(cfg(mix));
            f.row(format!("{mix}.dmv{n}.wips"), report.wips, "WIPS");
            f.row(format!("{mix}.dmv{n}.mean_ms"), ms(report.mean_latency), "ms");
            f.row(format!("{mix}.dmv{n}.p90_ms"), ms(report.p90_latency), "ms");
            abort_rows(&mut f, &format!("{mix}.dmv{n}"), &d.cluster);
            f.row(format!("{mix}.dmv{n}.errors"), report.errors as f64, "count");
            f.row(format!("{mix}.dmv{n}.speedup"), report.wips / base, "x");
            wips.push(report.wips);
            d.cluster.shutdown();
        }
        let (one, best) = (wips[0], wips[3]);
        f.check(
            format!("{mix}: DMV(8) beats InnoDB"),
            best > base * 2.0,
            format!("×{:.1} (paper: ×6.5–17.6)", best / base),
        );
        f.check(
            format!("{mix}: tier scales with slaves"),
            best > one * 1.5,
            format!("8 slaves ×{:.1} over 1 slave", best / one),
        );
        speedup8.push(best / base);
    }
    let (shopping8, ordering8) = (speedup8[1], speedup8[2]);
    f.check(
        "ordering speedup < shopping speedup (master saturation)",
        ordering8 < shopping8,
        format!("ordering ×{ordering8:.1} vs shopping ×{shopping8:.1}"),
    );
    f
}

/// The fail-over figures' verdict spans are summed from the driver's 1 s
/// windows into 5 s buckets.
const BUCKET: Duration = Duration::from_secs(5);

/// Figure 4 — fault tolerance with node reintegration (shopping mix).
///
/// Master + 4 slaves; the master is killed mid-run. The paper shows
/// throughput degrading gracefully by ~20 % (a slave is promoted, so one
/// fewer serves reads), then — after ~6 minutes of reboot time — the
/// failed node reintegrates as a slave: ~5 s of catch-up (selective page
/// transfer, worst case: everything since the run's start) plus a cache
/// warm-up period, after which throughput returns to normal. The
/// timeline here is compressed (kill at 40 s, 30 s "reboot") but keeps
/// the phases and their ordering.
fn fig4() -> Figure {
    let mut f = Figure::new("F4", "node reintegration under the shopping mix (master killed)");
    // Long checkpoint period = the paper's worst case: every
    // modification since the start of the run is transferred.
    let checkpoint_period = Some(Duration::from_secs(2400));
    let opts = DmvOptions { slaves: 4, checkpoint_period, ..Default::default() };
    let d = deploy_dmv(TpcwScale::small(), 0.25, opts);
    // The paper's 6-minute reboot, compressed to 30 s.
    let (kill, back, total) =
        (Duration::from_secs(40), Duration::from_secs(70), Duration::from_secs(160));
    let (c, master) = (&*d.cluster, d.cluster.master(0).id());
    let steps = [
        (kill, Step::Kill(c, master)),
        (kill, Step::Reconfigured(c, master)),
        (back, Step::Reintegrate(c, master)),
    ];
    let run = failover(&d, total, &steps);
    d.cluster.shutdown();
    let report = run.migration.expect("the master reintegrates");
    f.row("master_killed_at_s", secs(run.kill), "s");
    f.row("reintegration_at_s", secs(run.integrated.saturating_sub(report.duration)), "s");
    f.row("catchup_done_at_s", secs(run.integrated), "s");
    f.row("catchup_pages", report.pages as f64, "pages");
    f.row("catchup_kib", (report.bytes / 1024) as f64, "KiB");
    f.row("catchup_s", secs(report.duration), "s");

    let series = buckets(&run.series, BUCKET);
    print_series("throughput timeline (paper Figure 4)", &series);
    let pre = mean_rate(&series, Duration::from_secs(10), run.kill);
    let degraded = mean_rate(&series, kill + BUCKET, back);
    let recovered = mean_rate(&series, total - Duration::from_secs(30), total);
    f.row("pre_wips", pre, "WIPS");
    f.row("degraded_wips", degraded, "WIPS");
    f.row("recovered_wips", recovered, "WIPS");
    f.check(
        "service continues through master failure",
        degraded > 0.0,
        format!("{degraded:.1} WIPS while degraded"),
    );
    f.check(
        "graceful degradation (one fewer read replica)",
        degraded < pre * 0.97 && degraded > pre * 0.3,
        format!("pre {pre:.1} → degraded {degraded:.1} WIPS (paper: ~20% drop)"),
    );
    f.check(
        "catch-up is seconds, not minutes",
        report.duration < Duration::from_secs(30),
        format!("{:.1}s", secs(report.duration)),
    );
    f.check(
        "throughput recovers after reintegration + warmup",
        recovered > degraded && recovered > pre * 0.85,
        format!("recovered {recovered:.1} vs pre {pre:.1} WIPS"),
    );
    f
}

/// The DMV tier of Figures 5(c, d) and 6: master, two active slaves and
/// a stale backup, which fails as the run starts and sits out its first
/// part. At `kill` of a `total`-long run the master is killed (the worst
/// case, with master reconfiguration); the cluster's monitor promotes a
/// slave, and the stale backup is reintegrated by selective page
/// transfer.
fn dmv_stale(time_scale: f64, kill: Duration, total: Duration) -> Failover {
    let d =
        deploy_dmv(TpcwScale::small(), time_scale, DmvOptions { slaves: 3, ..Default::default() });
    let (c, stale, master) = (&*d.cluster, d.cluster.slave_ids()[2], d.cluster.master(0).id());
    let steps = [
        (Duration::ZERO, Step::Kill(c, stale)),
        (Duration::ZERO, Step::Reconfigured(c, stale)),
        (kill, Step::Kill(c, master)),
        (kill, Step::Reconfigured(c, master)),
        (kill, Step::Reintegrate(c, stale)),
    ];
    let run = failover(&d, total, &steps);
    d.cluster.shutdown();
    run
}

/// The pair of Figures 5 and 6, run once per process, killed at 80 s of
/// 260 s: the replicated on-disk tier (2 actives + a stale passive spare,
/// promoted by binlog replay), then the DMV tier ([`dmv_stale`]).
fn stale_pair() -> &'static (Failover, Failover) {
    static PAIR: OnceLock<(Failover, Failover)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let (kill, total) = (Duration::from_secs(80), Duration::from_secs(260));
        println!("\n--- (a, b) replicated InnoDB tier: 2 actives + stale passive spare ---");
        let d = deploy_tier(TpcwScale::small(), 0.25, 2, 400);
        let innodb = failover(&d, total, &[(kill, Step::Replay(&d.cluster))]);
        println!("\n--- (c, d) DMV tier: master + 2 slaves + stale backup, master killed ---");
        (innodb, dmv_stale(0.25, kill, total))
    })
}

/// Records a stale fail-over's pre-failure WIPS (from a quarter of the
/// way to the kill, in whole seconds) and its stages as `{tier}.*` rows.
fn stale_rows(f: &mut Figure, tier: &str, run: &Failover) -> (f64, FailoverPhases) {
    let pre = mean_rate(&run.series, Duration::from_secs(run.kill.as_secs() / 4), run.kill);
    let phases = run.phases(pre);
    f.row(format!("{tier}.pre_wips"), pre, "WIPS");
    f.row(format!("{tier}.recovery_s"), secs(phases.recovery), "s");
    f.row(format!("{tier}.db_update_s"), secs(phases.db_update), "s");
    f.row(format!("{tier}.cache_warmup_s"), secs(phases.cache_warmup), "s");
    f.row(format!("{tier}.total_s"), secs(phases.total), "s");
    (pre, phases)
}

/// Every stage boundary of a fail-over is an event on the emulator's
/// clock: kill < promoted ≤ integrated, all inside the run.
fn stages_ordered(f: &mut Figure, run: &Failover) {
    let (k, p, i) = (run.kill, run.promoted, run.integrated);
    let detail =
        format!("kill {k:.2?} < promoted {p:.2?} ≤ integrated {i:.2?} < end {:?}", run.total);
    f.check("fail-over stages are ordered on one clock", k < p && p <= i && i < run.total, detail);
}

/// Figure 5 — fail-over onto a *stale* backup: replicated InnoDB tier
/// (a, b) vs the DMV in-memory tier (c, d).
///
/// Paper result: the on-disk tier serves at half capacity for close to
/// 3 minutes while the spare replays the on-disk binlog; the DMV tier
/// (master killed — the worst case, with master reconfiguration)
/// completes fail-over in ~70 s, less than a third of the InnoDB time,
/// because only changed in-memory pages are transferred.
fn fig5() -> Figure {
    let mut f = Figure::new("F5", "fail-over onto a stale backup: InnoDB tier vs DMV tier");
    let (innodb, dmv) = stale_pair();
    print_series("innodb tier throughput", &buckets(&innodb.series, BUCKET));
    print_series("dmv tier throughput", &buckets(&dmv.series, BUCKET));
    let (pre, i) = stale_rows(&mut f, "innodb", innodb);
    let (_, d) = stale_rows(&mut f, "dmv", dmv);
    f.check(
        "InnoDB tier degrades but keeps serving during replay",
        pre > 0.0 && i.db_update > Duration::from_secs(1),
        format!("replay took {:.0}s", secs(i.db_update)),
    );
    f.check(
        "DMV DB-update (page transfer) beats InnoDB log replay",
        d.db_update < i.db_update,
        format!("DMV {:.1}s vs InnoDB {:.1}s", secs(d.db_update), secs(i.db_update)),
    );
    f.check(
        "DMV total fail-over < InnoDB total fail-over (paper: <1/3)",
        d.total < i.total,
        format!("DMV {:.0}s vs InnoDB {:.0}s", secs(d.total), secs(i.total)),
    );
    f
}

/// Figure 6 — fail-over stage weights: cleanup (Recovery), data
/// migration (DB Update) and buffer-cache warmup (Cache Warmup), for the
/// replicated InnoDB tier and the DMV tier.
///
/// Paper result: DB Update dominates the InnoDB fail-over (~94 s of
/// on-disk log replay); the DMV catch-up stage is much smaller (only
/// in-memory pages are transferred — long update chains collapse into
/// one page image); cache warm-up is similar for both; DMV adds a small
/// (~6 s) Recovery stage for aborting partially propagated transactions
/// and master reconfiguration.
fn fig6() -> Figure {
    let mut f = Figure::new("F6", "fail-over stage weights: Recovery / DB Update / Cache Warmup");
    let (innodb, dmv) = stale_pair();
    let (_, i) = stale_rows(&mut f, "innodb", innodb);
    let (_, d) = stale_rows(&mut f, "dmv", dmv);
    f.check(
        "DB Update dominates the InnoDB fail-over",
        i.db_update >= i.recovery && secs(i.db_update) >= secs(i.total) * 0.3,
        format!("{:.1}s of {:.1}s total", secs(i.db_update), secs(i.total)),
    );
    f.check(
        "DMV catch-up is considerably reduced vs log replay",
        secs(d.db_update) < secs(i.db_update) * 0.5,
        format!("DMV {:.1}s vs InnoDB {:.1}s", secs(d.db_update), secs(i.db_update)),
    );
    f.check(
        "DMV adds a small Recovery stage (master reconfiguration)",
        d.recovery > Duration::ZERO && d.recovery < Duration::from_secs(30),
        format!("{:.1}s (paper: ~6s)", secs(d.recovery)),
    );
    stages_ordered(&mut f, dmv);
    f
}

/// Figures 7–9 share one run: master + 1 active slave + 1 spare with a
/// cold buffer cache, kept warm by `warmup`; the active slave dies at
/// 60 s of 140 s and the cluster's monitor activates the spare. Returns
/// the figure with its rows, and the pre-failure WIPS, the lowest 5 s
/// bucket in the 40 s after the kill and the mean of the last 30 s.
fn spare_figure(
    id: &'static str,
    title: &'static str,
    warmup: WarmupStrategy,
) -> (Figure, [f64; 3]) {
    let mut f = Figure::new(id, title);
    let opts = DmvOptions { slaves: 1, spares: 1, warmup, ..Default::default() };
    // The paper's larger 400K-customer config, 1/100.
    let d = deploy_dmv(TpcwScale::small_large(), 0.25, opts);
    // The spare subscribed to the stream but has a cold buffer cache.
    let spare = d.cluster.spare_ids()[0];
    d.cluster.replica(spare).expect("spare exists").evict_all();
    let (kill, total) = (Duration::from_secs(60), Duration::from_secs(140));
    let (c, victim) = (&*d.cluster, d.cluster.slave_ids()[0]);
    let steps = [(kill, Step::Kill(c, victim)), (kill, Step::Reconfigured(c, victim))];
    let run = failover(&d, total, &steps);
    d.cluster.shutdown();

    let series = buckets(&run.series, BUCKET);
    print_series("throughput timeline", &series);
    let pre = mean_rate(&series, Duration::from_secs(15), run.kill);
    let post =
        series.iter().filter(|p| p.start >= kill && p.start < kill + Duration::from_secs(40));
    let min = post.map(|p| p.rate()).fold(f64::INFINITY, f64::min);
    let tail = mean_rate(&series, total - Duration::from_secs(30), total);
    f.row("pre_wips", pre, "WIPS");
    f.row("post_min_wips", min, "WIPS");
    f.row("tail_wips", tail, "WIPS");
    (f, [pre, min, tail])
}

fn dip(pre: f64, min: f64) -> String {
    format!("min {min:.1} vs pre {pre:.1} WIPS ({:.0}% of pre)", 100.0 * min / pre)
}

fn tail(pre: f64, end: f64) -> String {
    format!("tail {end:.1} vs pre {pre:.1} WIPS")
}

/// Figure 7 — fail-over onto an up-to-date but **cold** spare backup.
///
/// The spare receives the replication stream (no catch-up needed) but
/// serves no reads, so its buffer cache is cold. When the active slave
/// dies and the spare takes over, the paper sees a significant
/// throughput drop and more than a minute until peak throughput is
/// restored — the entire working set must be swapped in.
fn fig7() -> Figure {
    let (mut f, [pre, min, end]) =
        spare_figure("F7", "fail-over onto a cold up-to-date spare backup", WarmupStrategy::None);
    f.check("cold backup causes a significant throughput drop", min < pre * 0.75, dip(pre, min));
    f.check("throughput eventually recovers", end > pre * 0.8, tail(pre, end));
    f
}

/// Figure 8 — fail-over onto a spare kept warm by routing ~1 % of the
/// read-only workload to it.
///
/// Paper result: "the effect of the failure is almost unnoticeable due
/// to the fact that the most frequently referenced pages are in the
/// cache."
fn fig8() -> Figure {
    let (mut f, [pre, min, end]) = spare_figure(
        "F8",
        "fail-over onto a warm spare (1% query-execution warmup)",
        WarmupStrategy::QueryFraction(0.01),
    );
    f.check("failure effect nearly unnoticeable with 1% warmup", min > pre * 0.7, dip(pre, min));
    f.check("steady state restored", end > pre * 0.85, tail(pre, end));
    f
}

/// Figure 9 — fail-over onto a spare kept warm by **page-id transfer**:
/// an active slave periodically sends the identifiers of its hot
/// (buffer-resident) pages; the spare touches them so they stay swapped
/// in, without serving any of the workload.
///
/// Paper result: performance is the same as with periodic query
/// execution — seamless failure handling — while the spare's CPU remains
/// free for other work.
fn fig9() -> Figure {
    let (mut f, [pre, min, end]) = spare_figure(
        "F9",
        "fail-over onto a warm spare (page-id transfer every 100 txns)",
        WarmupStrategy::PageIdTransfer { every_reads: 100 },
    );
    f.check("page-id transfer gives seamless failure handling", min > pre * 0.7, dip(pre, min));
    f.check("steady state restored", end > pre * 0.85, tail(pre, end));
    f
}

/// Runs one abort-rate cell and returns `(total version-abort rate,
/// update-path version-abort rate, deadlock rate)`. The total folds
/// in replica-read staleness aborts (a routing/refresh property, wall-
/// clock sensitive); the update-path component is the master
/// concurrency control's own conflicts — the quantity the tier-1 gate in
/// `tests/abort_gate.rs` pins.
fn abort_cell(
    mix: Mix,
    slaves: usize,
    same_version_routing: bool,
    mode: ConcurrencyMode,
) -> (f64, f64, f64) {
    let mut spec = ClusterSpec::new(tpcw_schema(), TimeScale::new(0.25));
    spec.n_slaves = slaves;
    spec.same_version_routing = same_version_routing;
    spec.concurrency = mode;
    let d = deploy(TpcwScale::small(), spec);
    d.run(EmulatorConfig {
        mix,
        n_clients: 24,
        think_time: Duration::from_millis(150),
        duration: Duration::from_secs(10),
        warmup: Duration::from_secs(2),
        retries: 30,
        seed: SEED,
        series_window: Duration::from_secs(2),
    });
    let c = &d.cluster;
    let rates = (c.version_abort_rate(), c.update_version_abort_rate(), c.deadlock_rate());
    c.shutdown();
    rates
}

/// §6.1's text claim — "the read-only transactions aborted due to
/// version inconsistency are below 2.5 % out of the total number of
/// transactions in all experiments" — plus the same-version-routing
/// ablation: the scheduler policy that keeps aborts low (DESIGN.md
/// ablation 2).
///
/// Each mix × slave count runs under both concurrency protocols, and both
/// the update-path component and the *total* rate, the figure §6.1
/// claims, are bounded in both. The seconds-long tier-1 slice of the
/// same bounds is `tests/abort_gate.rs`.
fn abort_rates() -> Figure {
    let mut f = Figure::new("T1", "version-conflict aborts (< 2.5% in all paper experiments)");
    for mode in [ConcurrencyMode::TwoPhase, ConcurrencyMode::MvccCow] {
        let m = mode_name(mode);
        println!("\n--- {m} concurrency ---");
        for mix in Mix::ALL {
            for slaves in [2usize, 4] {
                let (rate, update_rate, deadlock_rate) = abort_cell(mix, slaves, true, mode);
                f.row(format!("{m}.{mix}.{slaves}sl.abort_pct"), rate * 100.0, "%");
                f.row(format!("{m}.{mix}.{slaves}sl.deadlock_pct"), deadlock_rate * 100.0, "%");
                f.row(format!("{m}.{mix}.{slaves}sl.update_abort_pct"), update_rate * 100.0, "%");
                for (what, r) in [("update-path", update_rate), ("total", rate)] {
                    let name = format!("{m}/{mix}/{slaves} slaves {what} under 2.5%");
                    f.check(name, r < 0.025, format!("{:.2}%", r * 100.0));
                }
            }
        }
    }
    println!("\n--- ablation: plain load balancing (no same-version preference) ---");
    let (ablated, _, ablated_deadlocks) =
        abort_cell(Mix::Ordering, 4, false, ConcurrencyMode::TwoPhase);
    let (routed, _, routed_deadlocks) =
        abort_cell(Mix::Ordering, 4, true, ConcurrencyMode::TwoPhase);
    f.row("ablation.ordering.4sl.routed_abort_pct", routed * 100.0, "%");
    f.row("ablation.ordering.4sl.routed_deadlock_pct", routed_deadlocks * 100.0, "%");
    f.row("ablation.ordering.4sl.plain_abort_pct", ablated * 100.0, "%");
    f.row("ablation.ordering.4sl.plain_deadlock_pct", ablated_deadlocks * 100.0, "%");
    f.check(
        "version-aware routing does not increase aborts",
        routed <= ablated + 0.01,
        format!("routed {:.2}% vs plain {:.2}%", routed * 100.0, ablated * 100.0),
    );
    f
}

/// Run parameters of the saturation and ltm cells. `n_clients` and
/// `think_time` are the ltm cell's; a saturation cell overrides both.
#[derive(Debug, Clone)]
struct Sweep {
    n_clients: usize,
    think_time: Duration,
    duration: Duration,
    warmup: Duration,
    time_scale: f64,
    trials: usize,
}

impl Sweep {
    /// The recorded run. Time scale 1.0: on small hosts paper-time
    /// compression turns scheduler jitter into throughput noise;
    /// uncompressed runs keep the sleep/CPU ratio high enough for
    /// repeatable numbers.
    fn full() -> Self {
        Sweep {
            n_clients: 16,
            think_time: Duration::from_millis(100),
            duration: Duration::from_secs(12),
            warmup: Duration::from_secs(4),
            time_scale: 1.0,
            trials: 3,
        }
    }

    /// The seconds-long CI run.
    fn smoke() -> Self {
        Sweep {
            n_clients: 8,
            think_time: Duration::from_millis(100),
            duration: Duration::from_secs(2),
            warmup: Duration::from_millis(500),
            time_scale: 0.1,
            trials: 1,
        }
    }

    fn emulator(&self, mix: Mix) -> EmulatorConfig {
        EmulatorConfig {
            mix,
            n_clients: self.n_clients,
            think_time: self.think_time,
            duration: self.duration,
            warmup: self.warmup,
            retries: 20,
            seed: SEED,
            series_window: Duration::from_secs(2),
        }
    }

    fn deploy(&self, mode: ConcurrencyMode, buffer_budget: BufferBudget) -> Deployment<DmvCluster> {
        let opts = DmvOptions { slaves: 2, buffer_budget, concurrency: mode, ..Default::default() };
        deploy_dmv(TpcwScale::small(), self.time_scale, opts)
    }
}

/// The saturation verdict: update throughput stays monotone to a
/// plateau as offered load rises — no cell under 0.6× its lower-load
/// neighbour. The bound is loose enough to survive smoke-scale noise
/// and still catches a contention collapse.
fn saturation_holds(update_tps: &[f64]) -> bool {
    !update_tps.is_empty() && update_tps.windows(2).all(|w| w[1] >= 0.6 * w[0])
}

/// The saturation sweep: the ordering mix on 2 slaves at 25 ms think
/// time and 16, 32 and 64 clients, each cell the median of
/// `p.trials` runs by update count (the median discards a run that
/// caught a scheduler stall). Both modes' sweeps are gated: monotone
/// update throughput and, when uncompressed, every cell's aborts under
/// the paper's 2.5 %.
fn saturation(p: &Sweep, modes: &[ConcurrencyMode]) -> Figure {
    let mut f = Figure::new("saturation", "ordering at 25 ms think, rising offered load");
    for &mode in modes {
        let m = mode_name(mode);
        let (mut tps, mut aborts) = (Vec::new(), Vec::new());
        for clients in [16, 32, 64] {
            let cell =
                Sweep { n_clients: clients, think_time: Duration::from_millis(25), ..p.clone() };
            let mut trials: Vec<(EmulatorReport, [f64; 2])> = (0..cell.trials)
                .map(|_| {
                    let d = cell.deploy(mode, BufferBudget::unbounded());
                    let report = d.run(cell.emulator(Mix::Ordering));
                    let rates = [d.cluster.version_abort_rate(), d.cluster.deadlock_rate()];
                    d.cluster.shutdown();
                    (report, rates)
                })
                .collect();
            trials.sort_by_key(|(r, _)| r.updates);
            let (r, [abort_rate, deadlock_rate]) = trials.swap_remove(trials.len() / 2);
            let update_tps = r.updates as f64 / secs(cell.duration);
            let c = format!("{m}.{clients}cl");
            f.row(format!("{c}.wips"), r.wips, "WIPS");
            f.row(format!("{c}.update_tps"), update_tps, "1/s");
            f.row(format!("{c}.update_p50_ms"), ms(r.update_p50_latency), "ms");
            f.row(format!("{c}.update_p99_ms"), ms(r.update_p99_latency), "ms");
            f.row(format!("{c}.abort_pct"), abort_rate * 100.0, "%");
            f.row(format!("{c}.deadlock_pct"), deadlock_rate * 100.0, "%");
            f.row(format!("{c}.errors"), r.errors as f64, "count");
            tps.push(update_tps);
            aborts.push(abort_rate);
        }
        let shape: Vec<String> = tps.iter().map(|t| format!("{t:.1}")).collect();
        f.check(
            format!("{m}: update throughput monotone to plateau (no cell under 0.6× its lower-load neighbour)"),
            saturation_holds(&tps),
            format!("upd/s at 16/32/64 clients: {}", shape.join(", ")),
        );
        // The paper's bound is a claim about the modeled system. A
        // compressed sweep (the smoke's time scale 0.1) offers its load
        // in a tenth of the wall time, saturates a small host's CPU and
        // aborts well over 2.5 % with or without a conflict gate, so
        // only an uncompressed sweep is held to it.
        if p.time_scale >= 1.0 {
            let pct: Vec<String> = aborts.iter().map(|a| format!("{:.2}%", a * 100.0)).collect();
            f.check(
                format!("{m}: aborts under 2.5% at every client count"),
                aborts.iter().all(|&a| a < 0.025),
                format!("aborts at 16/32/64 clients: {}", pct.join(", ")),
            );
        }
    }
    f
}

/// The ltm verdict: the resident high-water mark stays within the
/// budget plus a quarter-budget slack plus 64 pages. Dirty pages are
/// unevictable until their transaction resolves, so the mark may
/// overshoot the budget by the in-flight write set; the slack covers
/// that without masking an unbounded leak.
fn ltm_bounded(high_water_pages: u64, budget_pages: u64) -> bool {
    high_water_pages <= budget_pages + budget_pages / 4 + 64
}

/// The larger-than-memory cell: the shopping mix on 2 slaves with every
/// node's buffer budget clamped to half the populated working set, so
/// the run only completes by evicting clean pages and faulting them back
/// while epoch GC keeps the pending-diff queues drained. A first
/// unbounded deployment measures the working set. Both modes are gated.
fn ltm(p: &Sweep, modes: &[ConcurrencyMode]) -> Figure {
    let mut f = Figure::new("ltm", "shopping under a half-working-set buffer budget");
    for &mode in modes {
        let m = mode_name(mode);
        let probe = p.deploy(mode, BufferBudget::unbounded());
        let working_set = probe
            .cluster
            .memory_gauges()
            .iter()
            .map(|(_, _, resident)| resident / PAGE_SIZE as u64)
            .max()
            .unwrap_or(0);
        probe.cluster.shutdown();

        let budget = (working_set / 2).max(16);
        let d = p.deploy(mode, BufferBudget::pages(budget as usize, PAGE_SIZE));
        let r = d.run(p.emulator(Mix::Shopping));
        let (mut high_water, mut evictions, mut faults, mut pending) = (0u64, 0u64, 0u64, 0u64);
        for (id, node_pending, _) in d.cluster.memory_gauges() {
            let Some(node) = d.cluster.replica(id) else { continue };
            let store = node.db().store();
            high_water = high_water.max(store.residency_counters().high_water_pages());
            evictions += store.residency_counters().evictions();
            faults += store.fault_count();
            pending = pending.max(node_pending);
        }
        d.cluster.shutdown();

        f.row(format!("{m}.working_set_pages"), working_set as f64, "pages");
        f.row(format!("{m}.budget_pages"), budget as f64, "pages");
        f.row(format!("{m}.wips"), r.wips, "WIPS");
        f.row(format!("{m}.update_tps"), r.updates as f64 / secs(p.duration), "1/s");
        f.row(format!("{m}.update_p50_ms"), ms(r.update_p50_latency), "ms");
        f.row(format!("{m}.update_p99_ms"), ms(r.update_p99_latency), "ms");
        abort_rows(&mut f, m, &d.cluster);
        f.row(format!("{m}.high_water_pages"), high_water as f64, "pages");
        f.row(format!("{m}.evictions"), evictions as f64, "count");
        f.row(format!("{m}.faults"), faults as f64, "count");
        f.row(format!("{m}.max_pending_bytes"), pending as f64, "B");
        f.check(
            format!("{m}: resident high water within budget + budget/4 + 64 pages"),
            ltm_bounded(high_water, budget),
            format!("high water {high_water} pages, budget {budget} of {working_set}"),
        );
    }
    f
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: whole values without a fraction, others to three
/// decimals; NaN and infinities become `null`.
fn number(v: f64) -> String {
    if !v.is_finite() {
        "null".into()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// The figures as one JSON document: the host's core count, then each
/// figure's id, title, overall pass, rows and verdicts.
pub fn to_json(figures: &[Figure], cores: usize) -> String {
    let mut out = format!("{{\n  \"cores\": {cores},\n  \"figures\": [\n");
    for (i, f) in figures.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"id\": {}, \"title\": {}, \"pass\": {},\n     \"rows\": [",
            quote(f.id),
            quote(f.title),
            f.passed()
        );
        let rows: Vec<String> = f
            .rows
            .iter()
            .map(|r| {
                format!(
                    "       {{\"name\": {}, \"value\": {}, \"unit\": {}}}",
                    quote(&r.name),
                    number(r.value),
                    quote(r.unit)
                )
            })
            .collect();
        let verdicts: Vec<String> = f
            .verdicts
            .iter()
            .map(|v| {
                format!(
                    "       {{\"name\": {}, \"pass\": {}, \"detail\": {}}}",
                    quote(&v.name),
                    v.pass,
                    quote(&v.detail)
                )
            })
            .collect();
        let comma = if i + 1 < figures.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{}\n     ],\n     \"verdicts\": [\n{}\n     ]}}{comma}",
            rows.join(",\n"),
            verdicts.join(",\n")
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warm_at;
    use dmv_common::stats::{SeriesPoint, ThroughputSeries};

    /// 1 s windows holding `events[i]` events each.
    fn windows(events: &[u64]) -> Vec<SeriesPoint> {
        let width = Duration::from_secs(1);
        let at = |i: usize| width * i as u32;
        let point = |(i, &events)| SeriesPoint { start: at(i), width, events, mean_latency: width };
        events.iter().enumerate().map(point).collect()
    }

    #[test]
    fn warm_up_ends_at_the_first_of_three_windows_at_ninety_percent_of_pre() {
        let s = |n: u64| Duration::from_secs(n);
        let end = s(10);
        // Windows 2 and 3 are a blip; 5, 6 and 7 hold.
        let series = windows(&[10, 20, 95, 95, 40, 90, 100, 92, 10, 10]);
        assert_eq!(warm_at(&series, s(1), 90.0, end), s(5));
        // The part of the first window after the integration counts.
        let mid = Duration::from_millis(5_500);
        assert_eq!(warm_at(&series, mid, 90.0, end), mid);
        // Two windows left before the end are not three.
        assert_eq!(warm_at(&series, s(6), 90.0, end), end);
        // A run that never recovers reports its end.
        assert_eq!(warm_at(&windows(&[100, 10, 10, 10, 10]), s(1), 90.0, s(5)), s(5));
    }

    #[test]
    fn pre_failure_windows_close_by_the_kill() {
        // The collapse lands in the window the kill falls in.
        let series = windows(&[50, 100, 100, 100, 0, 0]);
        let kill = Duration::from_millis(4_300);
        assert_eq!(mean_rate(&series, Duration::from_secs(1), kill), 100.0);
        // One more window, and the collapse would count.
        assert!(mean_rate(&series, Duration::from_secs(1), Duration::from_secs(5)) < 100.0);
    }

    #[test]
    fn five_second_buckets_of_one_second_windows_equal_five_second_windows() {
        let horizon = Duration::from_secs(60);
        let (fine, coarse) = (
            ThroughputSeries::new(horizon, Duration::from_secs(1)),
            ThroughputSeries::new(horizon, BUCKET),
        );
        let mut at = Duration::ZERO;
        for i in 0u64..2_000 {
            at += Duration::from_micros(1_000 + (i * 7_919) % 50_000);
            fine.record(at, Duration::from_millis(3));
            coarse.record(at, Duration::from_millis(3));
        }
        assert_eq!(buckets(&fine.points(), BUCKET), coarse.points());
        let (pre, post) = (Duration::from_secs(15), Duration::from_secs(40));
        assert_eq!(
            mean_rate(&buckets(&fine.points(), BUCKET), pre, post),
            mean_rate(&coarse.points(), pre, post)
        );
    }

    #[test]
    fn a_saturation_cell_under_six_tenths_of_its_neighbour_fails() {
        assert!(saturation_holds(&[100.0, 60.0, 60.0]));
        assert!(saturation_holds(&[100.0, 150.0, 160.0]));
        assert!(!saturation_holds(&[100.0, 59.9, 60.0]));
        assert!(!saturation_holds(&[100.0, 120.0, 71.9]));
        assert!(!saturation_holds(&[]));
    }

    #[test]
    fn the_ltm_high_water_may_exceed_the_budget_by_a_quarter_plus_64_pages() {
        let budget = 380;
        let limit = budget + budget / 4 + 64;
        assert!(ltm_bounded(limit, budget));
        assert!(!ltm_bounded(limit + 1, budget));
    }

    #[test]
    fn the_json_writer_escapes_names_and_keeps_utf8() {
        let f = Figure {
            id: "F0",
            title: "t",
            rows: vec![
                Row { name: "a \"q\" \\ ×2".into(), value: 1.25, unit: "x" },
                Row { name: "n".into(), value: 380.0, unit: "pages" },
            ],
            verdicts: vec![Verdict { name: "v".into(), pass: false, detail: "d\n".into() }],
        };
        let expected = r#"{
  "cores": 2,
  "figures": [
    {"id": "F0", "title": "t", "pass": false,
     "rows": [
       {"name": "a \"q\" \\ ×2", "value": 1.250, "unit": "x"},
       {"name": "n", "value": 380, "unit": "pages"}
     ],
     "verdicts": [
       {"name": "v", "pass": false, "detail": "d\u000a"}
     ]}
  ]
}
"#;
        assert_eq!(to_json(&[f], 2), expected);
    }
}
