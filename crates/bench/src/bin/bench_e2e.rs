//! End-to-end TPC-W throughput benchmark (`cargo xtask bench-e2e`).
//!
//! Drives the TPC-W emulator against a full DMV cluster on the
//! simulated network at paper-scaled latencies, in the two cells CI's
//! verdicts read: the **saturation sweep** (ordering at 25 ms think,
//! rising client counts — update throughput must stay monotone in
//! offered load) and the **larger-than-memory cell** (shopping under a
//! half-working-set buffer budget — the resident high-water mark must
//! stay bounded). The closed-loop mix × slaves grid, the single-writer
//! probe and the 16-slave stress cell that used to run here measured
//! the load generator (16 clients × 100 ms think cap every cell at
//! 136–148 WIPS) and are gone; `examples/dmv_benchmark` is the repo's
//! throughput benchmark.
//!
//! Emits `BENCH_e2e.json` (`abort_rates` merges its rows into the same
//! file). `--smoke` shrinks the run to a seconds-long CI sanity run
//! (the numbers are meaningless at that scale; only the harness path,
//! the JSON shape and the two verdicts are exercised).
//!
//! `--mode mvcc` swaps the master's concurrency control from the
//! paper's per-page 2PL to copy-on-write page MVCC; the saturation
//! sweep is where the two separate — 2PL tips into the lock-retry
//! collapse documented in EXPERIMENTS.md.

use dmv_bench::{banner, deploy_dmv, DmvOptions, SEED};
use dmv_common::config::{BufferBudget, ConcurrencyMode};
use dmv_pagestore::PAGE_SIZE;
use dmv_tpcw::emulator::{run_emulator, EmulatorConfig, EmulatorReport};
use dmv_tpcw::populate::TpcwScale;
use dmv_tpcw::Mix;
use std::fmt::Write as _;
use std::time::Duration;

/// One saturation cell: the ordering mix on [`SLAVES`] slaves at a
/// given client count.
struct Cell {
    clients: usize,
    report: EmulatorReport,
    abort_rate: f64,
    duration: Duration,
}

/// Slaves in every cell.
const SLAVES: usize = 2;

/// Run parameters. `n_clients` and `think_time` are the ltm cell's; a
/// saturation cell overrides both ([`saturation_params`]).
#[derive(Clone)]
struct Sweep {
    n_clients: usize,
    think_time: Duration,
    duration: Duration,
    warmup: Duration,
    time_scale: f64,
    trials: usize,
    mode: ConcurrencyMode,
}

fn sweep_params(smoke: bool) -> Sweep {
    if smoke {
        Sweep {
            n_clients: 8,
            think_time: Duration::from_millis(100),
            duration: Duration::from_secs(2),
            warmup: Duration::from_millis(500),
            time_scale: 0.1,
            trials: 1,
            mode: ConcurrencyMode::TwoPhase,
        }
    } else {
        // time_scale 1.0: on small hosts paper-time compression turns
        // scheduler jitter into throughput noise; uncompressed runs keep
        // the sleep/CPU ratio high enough for repeatable numbers.
        Sweep {
            n_clients: 16,
            think_time: Duration::from_millis(100),
            duration: Duration::from_secs(12),
            warmup: Duration::from_secs(4),
            time_scale: 1.0,
            trials: 3,
            mode: ConcurrencyMode::TwoPhase,
        }
    }
}

/// The saturation sweep: ordering mix at 2 slaves, 25 ms think, rising
/// client counts. This is the regime past the conflict-collapse cliff
/// (EXPERIMENTS.md): under 2PL the 64-client cell burns the lock
/// timeout and retries until throughput drops *below* the lighter
/// cells; under MVCC update throughput must stay monotone in offered
/// load.
fn saturation_params(s: &Sweep, clients: usize) -> Sweep {
    Sweep { n_clients: clients, think_time: Duration::from_millis(25), ..s.clone() }
}

fn emulator_cfg(mix: Mix, s: &Sweep) -> EmulatorConfig {
    EmulatorConfig {
        mix,
        n_clients: s.n_clients,
        think_time: s.think_time,
        duration: s.duration,
        warmup: s.warmup,
        retries: 20,
        seed: SEED,
        series_window: Duration::from_secs(2),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Minimal JSON float: finite, plain decimal (NaN/inf become null).
fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

fn run_cell_once(s: &Sweep, scale: TpcwScale) -> Cell {
    let d = deploy_dmv(
        scale,
        s.time_scale,
        DmvOptions { slaves: SLAVES, concurrency: s.mode, ..Default::default() },
    );
    let report = run_emulator(&d.backend, d.clock, &d.ids, scale, emulator_cfg(Mix::Ordering, s));
    let abort_rate = d.cluster.version_abort_rate();
    d.cluster.shutdown();
    Cell { clients: s.n_clients, report, abort_rate, duration: s.duration }
}

/// Runs a cell `s.trials` times and keeps the median by update
/// throughput: on small shared hosts a run can catch a scheduler stall,
/// and the median discards those outliers in both directions.
fn run_cell(s: &Sweep, scale: TpcwScale) -> Cell {
    let mut trials: Vec<Cell> = (0..s.trials.max(1)).map(|_| run_cell_once(s, scale)).collect();
    trials.sort_by_key(|a| a.report.updates);
    let c = trials.remove(trials.len() / 2);
    let (report, abort_rate) = (&c.report, c.abort_rate);
    println!(
        "  {:3} clients: {:8.1} WIPS  {:7.1} upd/s  upd p50 {:6.1} ms  p99 {:7.1} ms  aborts {:.2}%",
        c.clients,
        report.wips,
        report.updates as f64 / s.duration.as_secs_f64(),
        ms(report.update_p50_latency),
        ms(report.update_p99_latency),
        abort_rate * 100.0
    );
    c
}

/// Result of the larger-than-memory cell: shopping mix with every
/// node's buffer budget clamped to half the populated working set, so
/// the run only completes by evicting clean pages and faulting them
/// back while epoch GC keeps the pending-diff queues drained.
struct LtmCell {
    working_set_pages: u64,
    budget_pages: u64,
    report: EmulatorReport,
    abort_rate: f64,
    /// Max resident-page high-water mark across nodes.
    high_water_pages: u64,
    /// Evictions summed across nodes.
    evictions: u64,
    /// Page faults summed across nodes.
    faults: u64,
    /// Max pending replication-diff bytes across nodes at run end.
    max_pending_bytes: u64,
    /// High water stayed within budget plus the dirty-page slack.
    bounded: bool,
    duration: Duration,
}

/// The larger-than-memory cell. A first unbounded deployment measures
/// the populated working set; the measured run then clamps every node
/// to half of it via [`BufferBudget`], making eviction and re-fault a
/// steady-state cost rather than a warmup transient.
/// `budget_override`: `Some(0)` runs the cell unbounded (the
/// before-numbers baseline), `Some(n)` forces an n-page budget.
fn run_ltm(s: &Sweep, scale: TpcwScale, budget_override: Option<u64>) -> LtmCell {
    let probe = deploy_dmv(
        scale,
        s.time_scale,
        DmvOptions { slaves: SLAVES, concurrency: s.mode, ..Default::default() },
    );
    let working_set_pages = probe
        .cluster
        .memory_gauges()
        .iter()
        .map(|(_, _, resident)| resident / PAGE_SIZE as u64)
        .max()
        .unwrap_or(0);
    probe.cluster.shutdown();

    let budget_pages = budget_override.unwrap_or((working_set_pages / 2).max(16));
    let budget = if budget_pages == 0 {
        BufferBudget::unbounded()
    } else {
        BufferBudget::pages(budget_pages as usize, PAGE_SIZE)
    };
    let d = deploy_dmv(
        scale,
        s.time_scale,
        DmvOptions {
            slaves: SLAVES,
            buffer_budget: budget,
            concurrency: s.mode,
            ..Default::default()
        },
    );
    let report = run_emulator(&d.backend, d.clock, &d.ids, scale, emulator_cfg(Mix::Shopping, s));
    let abort_rate = d.cluster.version_abort_rate();

    let (mut high_water, mut evictions, mut faults, mut max_pending) = (0u64, 0u64, 0u64, 0u64);
    for (id, pending, _) in d.cluster.memory_gauges() {
        let Some(r) = d.cluster.replica(id) else { continue };
        let store = r.db().store();
        high_water = high_water.max(store.residency_counters().high_water_pages());
        evictions += store.residency_counters().evictions();
        faults += store.fault_count();
        max_pending = max_pending.max(pending);
    }
    d.cluster.shutdown();

    // Dirty pages are unevictable until their transaction resolves, so
    // the high-water mark may legitimately overshoot the budget by the
    // in-flight write set; a quarter-budget slack covers that without
    // masking an unbounded leak.
    let bounded = budget_pages == 0 || high_water <= budget_pages + budget_pages / 4 + 64;
    println!(
        "  ltm (shopping, 2 slaves, budget {budget_pages}/{working_set_pages} pages): \
         {:8.1} WIPS  upd p50 {:6.1} ms  high-water {high_water} pages  \
         {evictions} evictions  {faults} faults  pending {max_pending} B  bounded={bounded}",
        report.wips,
        ms(report.update_p50_latency),
    );
    LtmCell {
        working_set_pages,
        budget_pages,
        report,
        abort_rate,
        high_water_pages: high_water,
        evictions,
        faults,
        max_pending_bytes: max_pending,
        bounded,
        duration: s.duration,
    }
}

fn ltm_json(c: &LtmCell) -> String {
    format!(
        "{{\"mix\": \"shopping\", \"slaves\": {SLAVES}, \"working_set_pages\": {}, \
         \"budget_pages\": {}, \"wips\": {}, \"update_tps\": {}, \"update_p50_ms\": {}, \
         \"update_p99_ms\": {}, \"abort_rate\": {}, \"high_water_pages\": {}, \
         \"evictions\": {}, \"faults\": {}, \"max_pending_bytes\": {}, \"bounded\": {}}}",
        c.working_set_pages,
        c.budget_pages,
        jf(c.report.wips),
        jf(c.report.updates as f64 / c.duration.as_secs_f64()),
        jf(ms(c.report.update_p50_latency)),
        jf(ms(c.report.update_p99_latency)),
        jf(c.abort_rate),
        c.high_water_pages,
        c.evictions,
        c.faults,
        c.max_pending_bytes,
        c.bounded,
    )
}

fn cell_json(c: &Cell) -> String {
    format!(
        "{{\"mix\": \"ordering\", \"slaves\": {SLAVES}, \"clients\": {}, \"wips\": {}, \"updates\": {}, \
         \"update_tps\": {}, \"update_p50_ms\": {}, \"update_p99_ms\": {}, \
         \"mean_latency_ms\": {}, \"p90_latency_ms\": {}, \"abort_rate\": {}, \
         \"errors\": {}}}",
        c.clients,
        jf(c.report.wips),
        c.report.updates,
        jf(c.report.updates as f64 / c.duration.as_secs_f64()),
        jf(ms(c.report.update_p50_latency)),
        jf(ms(c.report.update_p99_latency)),
        jf(ms(c.report.mean_latency)),
        jf(ms(c.report.p90_latency)),
        jf(c.abort_rate),
        c.report.errors,
    )
}

fn to_json(saturation: &[Cell], ltm: Option<&LtmCell>, s: &Sweep, smoke: bool) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"e2e-tpcw\",");
    let _ = writeln!(out, "  \"mode\": \"{}\",", mode_name(s.mode));
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"time_scale\": {},", jf(s.time_scale));
    let _ = writeln!(out, "  \"n_clients\": {},", s.n_clients);
    let _ = writeln!(out, "  \"duration_s\": {},", s.duration.as_secs());
    let _ = writeln!(out, "  \"trials\": {},", s.trials);
    if saturation.is_empty() {
        let _ = writeln!(out, "  \"saturation\": null,");
    } else {
        let _ = writeln!(out, "  \"saturation\": [");
        for (i, c) in saturation.iter().enumerate() {
            let comma = if i + 1 < saturation.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{comma}", cell_json(c));
        }
        let _ = writeln!(out, "  ],");
    }
    match ltm {
        Some(c) => {
            let _ = writeln!(out, "  \"ltm\": {}", ltm_json(c));
        }
        None => {
            let _ = writeln!(out, "  \"ltm\": null");
        }
    }
    out.push_str("}\n");
    out
}

fn flag_val<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

fn mode_name(mode: ConcurrencyMode) -> &'static str {
    match mode {
        ConcurrencyMode::TwoPhase => "2pl",
        ConcurrencyMode::MvccCow => "mvcc",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path =
        flag_val::<String>(&args, "--out").unwrap_or_else(|| "BENCH_e2e.json".to_string());

    let mut s = sweep_params(smoke);
    if let Some(mode) = flag_val::<String>(&args, "--mode") {
        s.mode = match mode.as_str() {
            "2pl" | "twophase" => ConcurrencyMode::TwoPhase,
            "mvcc" => ConcurrencyMode::MvccCow,
            other => panic!("unknown --mode `{other}` (expected 2pl or mvcc)"),
        };
    }
    if let Some(ts) = flag_val::<f64>(&args, "--time-scale") {
        s.time_scale = ts;
    }
    if let Some(n) = flag_val::<usize>(&args, "--clients") {
        s.n_clients = n;
    }
    if let Some(t) = flag_val::<u64>(&args, "--think-ms") {
        s.think_time = Duration::from_millis(t);
    }
    if let Some(secs) = flag_val::<u64>(&args, "--secs") {
        s.duration = Duration::from_secs(secs);
    }
    if let Some(t) = flag_val::<usize>(&args, "--trials") {
        s.trials = t;
    }
    let scale = TpcwScale::small();
    banner(
        "BENCH e2e",
        &format!(
            "TPC-W pipeline, {} concurrency{}",
            mode_name(s.mode),
            if smoke { " (smoke)" } else { "" }
        ),
    );

    let ltm_only = args.iter().any(|a| a == "--ltm-only");
    let saturation_only = args.iter().any(|a| a == "--saturation-only");

    // The saturation sweep runs in smoke mode too (shortened by the
    // smoke durations): CI asserts the monotone-to-plateau shape on it,
    // which survives smoke-scale noise even though the absolute numbers
    // do not.
    let mut saturation = Vec::new();
    if !ltm_only {
        let client_counts: Vec<usize> = flag_val::<String>(&args, "--saturation-clients")
            .map(|v| v.split(',').filter_map(|n| n.parse().ok()).collect())
            .unwrap_or_else(|| vec![16, 32, 64]);
        println!("\n--- saturation: ordering at 25 ms think, rising offered load ---");
        for clients in client_counts {
            saturation.push(run_cell(&saturation_params(&s, clients), scale));
        }
    }

    let ltm = if saturation_only {
        None
    } else {
        println!("\n--- larger-than-memory: shopping under a half-working-set budget ---");
        Some(run_ltm(&s, scale, flag_val::<u64>(&args, "--ltm-budget-pages")))
    };

    let json = to_json(&saturation, ltm.as_ref(), &s, smoke);
    std::fs::write(&out_path, &json).expect("write BENCH_e2e.json");
    println!("\nwrote {out_path}");
}
