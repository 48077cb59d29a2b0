//! The metric registry (names, units, directions, bounds) and the
//! arithmetic that turns one run's raw data into values. The registry
//! is the single source of `BENCHMARK.json`'s metric lists.

use crate::probes;
use crate::stats::{median, median_u64, percentile, quartiles, supported_percentile};
use crate::trace::Span;
use crate::workload::{
    root_span_name, Deployment, RunData, Sample, Snapshot, FAULT_LATENCY, LOG_LATENCY,
};
use dmv::common::config::NetProfile;
use dmv::tpcw::interactions::InteractionKind;
use std::collections::HashMap;

/// `(name, value)`, the unit being the registry's.
pub type Values = Vec<(String, f64)>;

/// An end-to-end metric: what a user of the tier sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "deploy + populate + finish_load, median of the run's set-ups",
    },
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "interactions committed in the measured window per second of it",
    },
    EndToEnd {
        name: "read_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.20,
        what: "median client latency of read-only interactions, retries included",
    },
    EndToEnd {
        name: "update_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.15,
        what: "median client latency of update interactions, retries included",
    },
    EndToEnd {
        name: "cpu_ms_per_txn",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "process CPU (utime + stime) over the measured window per committed interaction",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        what: "peak resident set size (VmHWM) of the benchmark process",
    },
];

/// A per-layer metric: no bound, reported by the traced run.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The traced run's own metrics: `(name, unit, better)`.
const TRACED: [(&str, &str, &str); 31] = [
    ("e2e.read_p90_ms", "ms", "lower"),
    ("e2e.update_p90_ms", "ms", "lower"),
    ("e2e.read_p99_ms", "ms", "lower"),
    ("e2e.update_p99_ms", "ms", "lower"),
    ("e2e.abort_share", "%", "lower"),
    ("tpcw.plan_us", "us", "lower"),
    ("core.session.attempts_per_txn", "count", "lower"),
    ("core.scheduler.route_us", "us", "lower"),
    ("sql.statement_us.read", "us", "lower"),
    ("sql.statement_us.update", "us", "lower"),
    ("sql.statements_per_txn", "count", "lower"),
    ("core.replica.commit_us", "us", "lower"),
    ("net.msgs_per_commit", "count", "lower"),
    ("net.bytes_per_commit", "B", "lower"),
    ("net.broadcast_us", "us", "lower"),
    ("core.applier.pending_bytes_peak", "B", "lower"),
    ("core.aborts.read_version_share", "%", "lower"),
    ("core.aborts.update_version_share", "%", "lower"),
    ("core.admission.sheds", "count", "lower"),
    ("pagestore.faults_per_txn", "count", "lower"),
    ("pagestore.evictions_per_txn", "count", "lower"),
    ("pagestore.resident_pages_peak", "count", "lower"),
    ("epoch.watermark_lag_peak", "count", "lower"),
    ("cpu.client_ms_per_txn", "ms", "lower"),
    ("cpu.replica_ms_per_txn", "ms", "lower"),
    ("cpu.gc_ms_per_txn", "ms", "lower"),
    ("cpu.other_ms_per_txn", "ms", "lower"),
    ("model.net_hop_ms_per_txn", "ms", "lower"),
    ("model.log_ms_per_txn", "ms", "lower"),
    ("model.fault_ms_per_txn", "ms", "lower"),
    ("net.writesets_per_frame", "count", "higher"),
];

/// Every per-layer metric of the traced run and the probes, in report
/// order.
pub fn per_layer() -> Vec<Layer> {
    let mut v: Vec<Layer> = TRACED
        .iter()
        .map(|&(name, unit, better)| Layer { name: name.to_owned(), unit, better })
        .collect();
    for kind in InteractionKind::ALL {
        v.push(Layer { name: format!("tpcw.{}.p50_us", kind.name()), unit: "us", better: "lower" });
    }
    v.push(Layer { name: "trace.overhead_share".to_owned(), unit: "%", better: "lower" });
    v.extend(probes::names().into_iter().map(|(name, unit)| Layer { name, unit, better: "lower" }));
    v
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sorted latencies of the measured interactions selected by `pick`.
fn latencies(data: &RunData, pick: impl Fn(&Sample) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = data.measured().filter(|s| pick(s)).map(Sample::latency_ns).collect();
    v.sort_unstable();
    v
}

/// Nearest-rank percentile in ms of whatever samples exist; NaN when
/// there are none. Whether ten samples lie beyond it is the report's
/// business ([`sample_counts`]), not a reason to print a zero.
fn pct_ms(sorted: &[u64], p: f64) -> f64 {
    percentile(sorted, p).map_or(f64::NAN, |(v, _)| ms(v))
}

/// One violation per value that is not a number: a metric the run owes
/// but could not measure fails the run instead of reading as 0.
pub fn unmeasured(values: &Values) -> Vec<String> {
    values
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(n, _)| format!("{n} could not be measured (no samples)"))
        .collect()
}

/// `(committed per second, process CPU ms per committed interaction)`
/// of each whole second of the window.
fn slices(data: &RunData) -> Vec<(f64, f64)> {
    data.cpu_series
        .windows(2)
        .filter_map(|w| {
            let ((t0, c0), (t1, c1)) = (w[0], w[1]);
            let done =
                data.samples.iter().filter(|s| s.ok && s.end_ns >= t0 && s.end_ns < t1).count();
            (done > 0).then(|| (done as f64 * 1e9 / (t1 - t0) as f64, (c1 - c0) / done as f64))
        })
        .collect()
}

fn committed(data: &RunData) -> f64 {
    data.measured().filter(|s| s.ok).count().max(1) as f64
}

/// The end-to-end metrics of one untraced run. Throughput and CPU are
/// totals over the whole window — every stall the code causes is in
/// them; host noise is taken out by medians over runs, not here.
pub fn end_to_end(data: &RunData, setup_s: f64, peak_rss_mb: f64) -> Values {
    let reads = latencies(data, |s| !s.kind.is_update());
    let updates = latencies(data, |s| s.kind.is_update());
    let txns = committed(data);
    let window_s = (data.after.t_ns - data.before.t_ns) as f64 / 1e9;
    vec![
        ("setup_s".into(), setup_s),
        ("txn_per_s".into(), txns / window_s),
        ("read_p50_ms".into(), pct_ms(&reads, 0.50)),
        ("update_p50_ms".into(), pct_ms(&updates, 0.50)),
        ("cpu_ms_per_txn".into(), (data.after.cpu_ms - data.before.cpu_ms) / txns),
        ("peak_rss_mb".into(), peak_rss_mb),
    ]
}

/// The window cut into one-second slices, for the report: how steady
/// the run was within itself (host noise and the code's own periodic
/// costs alike).
pub fn slice_summary(data: &RunData) -> String {
    let per_second = slices(data);
    let five = |pick: fn(&(f64, f64)) -> f64| {
        let mut v: Vec<f64> = per_second.iter().map(pick).collect();
        v.sort_by(f64::total_cmp);
        let [q1, q2, q3] = quartiles(&v).unwrap_or([median(&v); 3]);
        let (min, max) = (v.first().copied().unwrap_or(0.0), v.last().copied().unwrap_or(0.0));
        format!("min {min:.4} q1 {q1:.4} median {q2:.4} q3 {q3:.4} max {max:.4}")
    };
    format!(
        "{} one-second slices: txn/s {}; cpu ms/txn {}",
        per_second.len(),
        five(|s| s.0),
        five(|s| s.1)
    )
}

/// Sample counts behind the latency percentiles, for the report, and
/// per class the highest percentile with [`crate::stats::MIN_BEYOND`] samples beyond
/// it — a higher one is printed too, but it is a few data points, not
/// a metric.
pub fn sample_counts(data: &RunData) -> String {
    let describe = |what: &str, sorted: &[u64]| {
        let beyond = |p| percentile(sorted, p).map_or(0, |(_, beyond)| beyond);
        let highest = [(0.99, "p99"), (0.90, "p90"), (0.50, "p50")]
            .into_iter()
            .find(|&(p, _)| supported_percentile(sorted, p).is_some())
            .map_or("none", |(_, name)| name);
        format!(
            "{} {what} ({} beyond p90, {} beyond p99, supports {highest})",
            sorted.len(),
            beyond(0.90),
            beyond(0.99)
        )
    };
    format!(
        "samples: {}, {}",
        describe("reads", &latencies(data, |s| !s.kind.is_update())),
        describe("updates", &latencies(data, |s| s.kind.is_update()))
    )
}

fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
}

fn median_us(spans: &[Span], name: &str) -> f64 {
    median_u64(&durations_of(spans, name)) / 1e3
}

/// The per-layer metrics of one traced run (everything except the
/// probes).
pub fn traced_layers(dep: &Deployment, data: &RunData) -> Values {
    let (a, b) = (&data.before, &data.after);
    let txns = committed(data);
    let spans = &data.spans;
    let roots = spans.iter().filter(|s| s.parent == 0).count().max(1) as f64;
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let statements = count("sql.statement.read") + count("sql.statement.update");
    let updates = (b.updates - a.updates).max(1) as f64;
    let reads = (b.reads - a.reads) as f64;
    // Attempts as the schedulers count them (TxnStats::attempts).
    let aborts = (b.version_aborts - a.version_aborts)
        + (b.deadlock_aborts - a.deadlock_aborts)
        + (b.failure_aborts - a.failure_aborts);
    let attempts = ((b.commits - a.commits) + aborts).max(1) as f64;
    let update_aborts = (b.update_version_aborts - a.update_version_aborts) as f64;
    let read_aborts = (b.version_aborts - a.version_aborts) as f64 - update_aborts;
    let thread_ms = |group: &str| {
        let at = |s: &Snapshot| s.thread_cpu_ms.get(group).copied().unwrap_or(0.0);
        (at(b) - at(a)).max(0.0) / txns
    };
    // Injected delay on the clients' critical path, from the
    // configuration and counts alone: two client hops per transaction,
    // and per update the serialized fan-out plus one propagation each
    // way before the ack can arrive.
    let net = NetProfile::lan_2007();
    let hop = |bytes: usize| net.transfer_time(bytes).as_secs_f64() * 1e3;
    let fanout_ms = net.per_kib.as_secs_f64() * 1e3 * (b.net_bytes - a.net_bytes) as f64 / 1024.0;
    let model_net = (reads * (hop(256) + hop(512))
        + updates * (hop(256) + hop(128) + 2.0 * net.latency.as_secs_f64() * 1e3)
        + fanout_ms)
        / txns;
    let counts = dep.traced.as_ref().map(|t| &t.counts);
    let load =
        |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::SeqCst) as f64;
    let frames = counts.map_or(0.0, |c| load(&c.writeset_frames)).max(1.0);
    let sets = counts.map_or(0.0, |c| load(&c.writesets));
    let reads_sorted = latencies(data, |s| !s.kind.is_update());
    let updates_sorted = latencies(data, |s| s.kind.is_update());

    let mut v: Values = vec![
        ("e2e.read_p90_ms".into(), pct_ms(&reads_sorted, 0.90)),
        ("e2e.update_p90_ms".into(), pct_ms(&updates_sorted, 0.90)),
        ("e2e.read_p99_ms".into(), pct_ms(&reads_sorted, 0.99)),
        ("e2e.update_p99_ms".into(), pct_ms(&updates_sorted, 0.99)),
        ("e2e.abort_share".into(), 100.0 * aborts as f64 / attempts),
        ("tpcw.plan_us".into(), median_us(spans, "tpcw.plan")),
        ("core.session.attempts_per_txn".into(), count("core.replica.execute") / roots),
        ("core.scheduler.route_us".into(), median_us(spans, "core.scheduler.route")),
        ("sql.statement_us.read".into(), median_us(spans, "sql.statement.read")),
        ("sql.statement_us.update".into(), median_us(spans, "sql.statement.update")),
        ("sql.statements_per_txn".into(), statements / roots),
        ("core.replica.commit_us".into(), median_us(spans, "core.replica.commit")),
        ("net.msgs_per_commit".into(), (b.net_msgs - a.net_msgs) as f64 / updates),
        ("net.bytes_per_commit".into(), (b.net_bytes - a.net_bytes) as f64 / updates),
        ("net.broadcast_us".into(), median_us(spans, "net.broadcast")),
        ("core.applier.pending_bytes_peak".into(), data.peaks.pending_bytes as f64),
        ("core.aborts.read_version_share".into(), 100.0 * read_aborts / attempts),
        ("core.aborts.update_version_share".into(), 100.0 * update_aborts / attempts),
        ("core.admission.sheds".into(), (b.admission_sheds - a.admission_sheds) as f64),
        ("pagestore.faults_per_txn".into(), (b.faults - a.faults) as f64 / txns),
        ("pagestore.evictions_per_txn".into(), (b.evictions - a.evictions) as f64 / txns),
        ("pagestore.resident_pages_peak".into(), data.peaks.resident_pages as f64),
        ("epoch.watermark_lag_peak".into(), data.peaks.watermark_lag as f64),
        ("cpu.client_ms_per_txn".into(), thread_ms("client")),
        ("cpu.replica_ms_per_txn".into(), thread_ms("replica")),
        ("cpu.gc_ms_per_txn".into(), thread_ms("gc")),
        ("cpu.other_ms_per_txn".into(), thread_ms("other")),
        ("model.net_hop_ms_per_txn".into(), model_net),
        ("model.log_ms_per_txn".into(), updates * LOG_LATENCY.as_secs_f64() * 1e3 / txns),
        (
            "model.fault_ms_per_txn".into(),
            (b.faults - a.faults) as f64 * FAULT_LATENCY.as_secs_f64() * 1e3 / txns,
        ),
        ("net.writesets_per_frame".into(), sets / frames),
    ];
    // Per-kind medians use every measured interaction: the exact
    // latency capture runs in traced and untraced slices alike, and the
    // rare kinds need every sample they can get.
    let mut by_kind: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for s in data.measured() {
        by_kind.entry(root_span_name(s.kind)).or_default().push(s.latency_ns());
    }
    for kind in InteractionKind::ALL {
        let lat = by_kind.get(root_span_name(kind)).map_or(f64::NAN, |l| median_u64(l) / 1e3);
        v.push((format!("tpcw.{}.p50_us", kind.name()), lat));
    }
    v.push(("trace.overhead_share".into(), 100.0 * trace_overhead(data)));
    v
}

/// `1 − traced rate / untraced rate` over the alternating slices of a
/// traced run (completions by their end time).
fn trace_overhead(data: &RunData) -> f64 {
    let (w0, w1) = (data.before.t_ns, data.after.t_ns);
    let on_ns: u64 = data.traced_slices.iter().map(|(s, e)| e - s).sum();
    let off_ns = (w1 - w0).saturating_sub(on_ns);
    if on_ns == 0 || off_ns == 0 {
        return 0.0;
    }
    let in_on = |t: u64| data.traced_slices.iter().any(|&(s, e)| t >= s && t < e);
    let (mut on, mut off) = (0u64, 0u64);
    for s in data.measured().filter(|s| s.ok) {
        if in_on(s.end_ns) {
            on += 1;
        } else {
            off += 1;
        }
    }
    if off == 0 {
        return 0.0;
    }
    1.0 - (on as f64 / on_ns as f64) / (off as f64 / off_ns as f64)
}

/// Self time per span name, as microseconds per traced interaction,
/// largest first: where a transaction's wall time goes.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let own = crate::trace::self_times(spans);
    let roots = spans.iter().filter(|s| s.parent == 0).count().max(1) as f64;
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        // Every interaction kind's own time is the client loop's.
        let name = if s.parent == 0 { "tpcw.<interaction>" } else { s.name };
        *by_name.entry(name).or_default() += own[&s.id];
    }
    let mut rows: Vec<_> =
        by_name.into_iter().map(|(n, ns)| (n, ns as f64 / 1e3 / roots)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_measurement_is_a_violation_not_a_zero() {
        assert!(pct_ms(&[], 0.5).is_nan());
        // Two samples still give a p99: the larger one, not 0.
        assert_eq!(pct_ms(&[1_000_000, 3_000_000], 0.99), 3.0);
        let values: Values = vec![("a".into(), 1.0), ("b".into(), f64::NAN)];
        assert_eq!(unmeasured(&values), ["b could not be measured (no samples)"]);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_manifest_limits() {
        let layers = per_layer();
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(layers.len() <= 128 && END_TO_END.len() <= 16);
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
