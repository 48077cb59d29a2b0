//! Measurement utilities: atomic counters, a log-bucketed latency
//! histogram, and a windowed throughput series recorder.
//!
//! All types are thread-safe and lock-free on the hot path, so client
//! emulator threads can record into shared instances without perturbing
//! the measured system.

use dmv_check::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one; returns the previous value.
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
    }

    /// Resets to zero, returning the old value.
    pub fn reset(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed) // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
    }
}

/// Number of logarithmic buckets in [`LatencyHistogram`]; covers 1 µs to
/// ~1.2 h of paper time with ~9 % relative resolution.
const HIST_BUCKETS: usize = 256;

/// Thread-safe log-bucketed histogram of durations.
///
/// Buckets grow geometrically from 1 µs, giving bounded relative error on
/// percentile queries without per-record allocation.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    const GROWTH: f64 = 1.09;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    fn bucket_of(micros: u64) -> usize {
        if micros <= 1 {
            return 0;
        }
        let idx = (micros as f64).ln() / Self::GROWTH.ln();
        (idx as usize).min(HIST_BUCKETS - 1)
    }

    fn bucket_upper(idx: usize) -> u64 {
        Self::GROWTH.powi(idx as i32 + 1) as u64
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros() as u64;
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
        self.sum_micros.fetch_add(us, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
        self.max_micros.fetch_max(us, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
    }

    /// Mean of recorded samples, or zero if empty.
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_micros.load(Ordering::Relaxed) / n) // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
    }

    /// Maximum recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros.load(Ordering::Relaxed)) // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
    }

    /// Approximate `p`-th percentile (`0.0..=1.0`), or zero if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> Duration {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let target = ((n as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
            if seen >= target {
                return Duration::from_micros(Self::bucket_upper(i));
            }
        }
        self.max()
    }

    /// Clears all samples.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
        }
        self.count.store(0, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
        self.sum_micros.store(0, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
        self.max_micros.store(0, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
    }
}

/// One point of a throughput time series: events in `[start, start+width)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Window start, in paper time since the experiment epoch.
    pub start: Duration,
    /// Window width.
    pub width: Duration,
    /// Events recorded in the window.
    pub events: u64,
    /// Mean latency of events in the window (paper time).
    pub mean_latency: Duration,
}

impl SeriesPoint {
    /// Event rate over the window, per paper second.
    pub fn rate(&self) -> f64 {
        self.events as f64 / self.width.as_secs_f64()
    }
}

/// Windowed throughput/latency series, keyed by paper time.
///
/// Used by the fail-over experiments to report throughput "averaged over
/// 20 second intervals" as the paper does.
#[derive(Debug)]
pub struct ThroughputSeries {
    width: Duration,
    counts: Vec<AtomicU64>,
    lat_sums: Vec<AtomicU64>,
    overflow: AtomicU64,
}

impl ThroughputSeries {
    /// Creates a series covering `[0, horizon)` of paper time with windows
    /// of `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `horizon < width`.
    pub fn new(horizon: Duration, width: Duration) -> Self {
        assert!(!width.is_zero(), "window width must be positive");
        assert!(horizon >= width, "horizon must cover at least one window");
        let n = horizon.as_nanos().div_ceil(width.as_nanos()) as usize;
        ThroughputSeries {
            width,
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            lat_sums: (0..n).map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
        }
    }

    /// Records an event completed at paper time `at` with latency `lat`.
    /// Events past the horizon are counted in an overflow bucket.
    pub fn record(&self, at: Duration, lat: Duration) {
        let idx = (at.as_nanos() / self.width.as_nanos()) as usize;
        if idx < self.counts.len() {
            self.counts[idx].fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
                                                              // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
            self.lat_sums[idx].fetch_add(lat.as_micros() as u64, Ordering::Relaxed);
        } else {
            self.overflow.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
        }
    }

    /// Events recorded past the horizon.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed) // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
    }

    /// Snapshot of all windows.
    pub fn points(&self) -> Vec<SeriesPoint> {
        self.counts
            .iter()
            .zip(&self.lat_sums)
            .enumerate()
            .map(|(i, (c, l))| {
                let events = c.load(Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
                let sum = l.load(Ordering::Relaxed); // relaxed-ok: independent stats cell; readers tolerate torn cross-cell views
                SeriesPoint {
                    start: self.width * i as u32,
                    width: self.width,
                    events,
                    mean_latency: Duration::from_micros(sum.checked_div(events).unwrap_or(0)),
                }
            })
            .collect()
    }
}

/// Aggregate transaction outcome counters for one experiment run.
#[derive(Debug, Default)]
pub struct TxnStats {
    /// Committed transactions.
    pub commits: Counter,
    /// Aborts due to version inconsistency (the paper's < 2.5 % metric).
    pub version_aborts: Counter,
    /// The subset of [`TxnStats::version_aborts`] raised on the *update*
    /// path — under `ConcurrencyMode::MvccCow` these are master-side
    /// first-committer-wins conflicts; under 2PL the locks make every
    /// validation pass, so this stays zero. Counted in addition to
    /// `version_aborts` (never added into [`TxnStats::attempts`]), it
    /// isolates the concurrency-control component from replica-read
    /// routing staleness, which no master protocol controls.
    pub update_version_aborts: Counter,
    /// Aborts that broke a 2PL deadlock (`DmvError::Deadlock`).
    pub deadlock_aborts: Counter,
    /// Aborts due to node failure during execution.
    pub failure_aborts: Counter,
    /// Read-only transactions executed.
    pub reads: Counter,
    /// Update transactions executed.
    pub updates: Counter,
    /// The subset of [`TxnStats::updates`] that waited for the §4.6 log
    /// insert: the ones that committed a write. An update that wrote
    /// nothing has no query to log.
    pub log_inserts: Counter,
    /// Committed write batches a backend feed gave up on (a
    /// non-retryable error, or ten retryable ones in a row), counted
    /// once per backend that did not apply the batch.
    pub feed_drops: Counter,
    /// Backoff retries consumed by client sessions (each counted when
    /// the session sleeps before re-submitting a retryable abort).
    pub retries: Counter,
    /// Transactions that exhausted their whole retry budget and
    /// surfaced the abort to the caller.
    pub retry_exhausted: Counter,
    /// Nothing increments this; the next `benchmark` PR removes it with its `core.admission.sheds` row.
    pub admission_sheds: Counter,
}

impl TxnStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total attempted transactions (commits + all aborts).
    pub fn attempts(&self) -> u64 {
        self.commits.get()
            + self.version_aborts.get()
            + self.deadlock_aborts.get()
            + self.failure_aborts.get()
    }

    /// Fraction of attempts aborted for version inconsistency.
    pub fn version_abort_rate(&self) -> f64 {
        let a = self.attempts();
        if a == 0 {
            0.0
        } else {
            self.version_aborts.get() as f64 / a as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.inc(), 0);
        c.add(5);
        assert_eq!(c.get(), 6);
        assert_eq!(c.reset(), 6);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_percentiles_ordered() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i * 10));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(0.5);
        let p90 = h.percentile(0.9);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50:?} {p90:?} {p99:?}");
        // p50 of uniform 10..10000us should be near 5000us (within bucket error)
        let p50us = p50.as_micros() as f64;
        assert!((4000.0..6500.0).contains(&p50us), "p50 {p50us}");
    }

    #[test]
    fn histogram_mean_and_max() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(300));
        assert_eq!(h.mean(), Duration::from_micros(200));
        assert_eq!(h.max(), Duration::from_micros(300));
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), Duration::ZERO);
    }

    #[test]
    #[should_panic]
    fn percentile_out_of_range_panics() {
        LatencyHistogram::new().percentile(1.5);
    }

    #[test]
    fn series_windows() {
        let s = ThroughputSeries::new(Duration::from_secs(10), Duration::from_secs(2));
        s.record(Duration::from_millis(100), Duration::from_millis(5));
        s.record(Duration::from_millis(1900), Duration::from_millis(15));
        s.record(Duration::from_secs(5), Duration::from_millis(10));
        s.record(Duration::from_secs(11), Duration::from_millis(10)); // overflow
        let pts = s.points();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].events, 2);
        assert_eq!(pts[0].mean_latency, Duration::from_millis(10));
        assert_eq!(pts[2].events, 1);
        assert_eq!(pts[0].rate(), 1.0);
        assert_eq!(s.overflow(), 1);
    }

    #[test]
    #[should_panic]
    fn series_zero_width_panics() {
        let _ = ThroughputSeries::new(Duration::from_secs(1), Duration::ZERO);
    }

    #[test]
    fn txn_stats_abort_rate() {
        let t = TxnStats::new();
        for _ in 0..97 {
            t.commits.inc();
        }
        for _ in 0..3 {
            t.version_aborts.inc();
        }
        assert_eq!(t.attempts(), 100);
        assert!((t.version_abort_rate() - 0.03).abs() < 1e-9);
    }
}
