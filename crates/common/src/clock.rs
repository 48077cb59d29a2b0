//! Time scaling between *paper time* and wall-clock time.
//!
//! The paper's experiments run for tens of minutes on a 19-node physical
//! cluster. This reproduction compresses them: every modeled latency (disk
//! access, network hop, client think time, checkpoint interval, ...) is
//! specified in **paper time** and multiplied by a global [`TimeScale`]
//! before it is actually slept, so a 40-minute experiment completes in tens
//! of wall seconds while all *ratios* between modeled costs are preserved.
//! Results are reported de-scaled, i.e. back in paper time, so they can be
//! compared with the paper's figures directly.
//!
//! This is also the only module that puts a thread to sleep:
//! [`sleep_wall`], [`sleep_until`] and [`SimClock::sleep_paper`] are the
//! workspace's timed sleeps (the `modeled-wait` lint rejects
//! `thread::sleep` anywhere else). The first [`SimClock::new`] in a
//! process sets the process's Linux *timer slack* to 1 ns: with the
//! default 50 µs the kernel may run every timed wait up to 50 µs late
//! to batch wake-ups, and on a modeled 120 µs hop it does. Threads
//! spawned after that, from the thread-group leader, inherit it.

use parking_lot::Once;
use std::time::{Duration, Instant};

/// The one sanctioned wall-clock instant type. Everything outside this
/// module names `WallInstant` (or calls [`wall_now`]/[`wall_deadline`])
/// instead of `std::time::Instant`, so the `cargo xtask lint`
/// wall-clock rule makes ad-hoc timing sources grep-able and keeps
/// simnet time-scaling the single authority on elapsed time.
pub type WallInstant = Instant;

/// Reads the wall clock. The only sanctioned `Instant::now()` outside
/// tests; use sparingly — paper-time measurements go through
/// [`SimClock`].
pub fn wall_now() -> WallInstant {
    Instant::now()
}

/// A wall-clock deadline `timeout` from now, for handing to blocking
/// waits such as `Condvar::wait_until`.
pub fn wall_deadline(timeout: Duration) -> WallInstant {
    Instant::now() + timeout
}

/// Sleeps for `d` of wall time.
pub fn sleep_wall(d: Duration) {
    std::thread::sleep(d);
}

/// Sleeps until `deadline`; returns at once if it has passed.
pub fn sleep_until(deadline: WallInstant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Sets the process's timer slack to 1 ns, once per process. The file
/// holds the thread-group leader's slack, which every thread it spawns
/// afterwards copies. The write may fail — not Linux, no procfs, a
/// read-only `/proc`, or a non-leader caller without `CAP_SYS_NICE` —
/// and then waits just keep the default slack.
fn tighten_timer_slack() {
    static SLACK: Once = Once::new();
    SLACK.call_once(|| {
        let _ = std::fs::write("/proc/self/timerslack_ns", "1");
    });
}

/// Multiplier mapping paper time to wall time (`wall = paper * factor`).
///
/// ```
/// use dmv_common::clock::TimeScale;
/// use std::time::Duration;
///
/// let s = TimeScale::new(0.01); // 1 paper-second = 10 wall-ms
/// assert_eq!(s.to_wall(Duration::from_secs(1)), Duration::from_millis(10));
/// assert_eq!(s.to_paper(Duration::from_millis(10)), Duration::from_secs(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeScale {
    factor: f64,
}

impl TimeScale {
    /// Creates a time scale with the given wall/paper factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn new(factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "time scale must be positive");
        TimeScale { factor }
    }

    /// Identity scale: paper time == wall time.
    pub fn realtime() -> Self {
        TimeScale { factor: 1.0 }
    }

    /// The wall/paper factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Converts a paper-time duration to wall time.
    pub fn to_wall(&self, paper: Duration) -> Duration {
        Duration::from_secs_f64(paper.as_secs_f64() * self.factor)
    }

    /// Converts a wall-clock duration back to paper time.
    pub fn to_paper(&self, wall: Duration) -> Duration {
        Duration::from_secs_f64(wall.as_secs_f64() / self.factor)
    }

    /// Convenience: `secs` of paper time as a wall duration.
    pub fn paper_secs(&self, secs: f64) -> Duration {
        self.to_wall(Duration::from_secs_f64(secs))
    }

    /// Convenience: `ms` of paper time as a wall duration.
    pub fn paper_millis(&self, ms: f64) -> Duration {
        self.paper_secs(ms / 1e3)
    }

    /// Convenience: `us` of paper time as a wall duration.
    pub fn paper_micros(&self, us: f64) -> Duration {
        self.paper_secs(us / 1e6)
    }
}

impl Default for TimeScale {
    fn default() -> Self {
        TimeScale::realtime()
    }
}

/// A clock measuring elapsed **paper time** since an epoch, and able to
/// sleep for paper-time durations.
///
/// Cheap to clone; all clones share the same epoch and scale.
#[derive(Debug, Clone, Copy)]
pub struct SimClock {
    epoch: Instant,
    scale: TimeScale,
}

impl SimClock {
    /// Starts a clock now with the given scale. The first call in a
    /// process also tightens the process's timer slack (module doc).
    pub fn new(scale: TimeScale) -> Self {
        tighten_timer_slack();
        SimClock { epoch: Instant::now(), scale }
    }

    /// The clock's time scale.
    pub fn scale(&self) -> TimeScale {
        self.scale
    }

    /// Paper time elapsed since the clock was created.
    pub fn now_paper(&self) -> Duration {
        self.scale.to_paper(self.epoch.elapsed())
    }

    /// Sleeps for `paper` of paper time (i.e. the scaled wall duration).
    ///
    /// Sub-microsecond scaled durations are skipped rather than slept, so
    /// very small modeled costs do not dominate with scheduler noise.
    pub fn sleep_paper(&self, paper: Duration) {
        let wall = self.scale.to_wall(paper);
        if wall >= Duration::from_micros(1) {
            sleep_wall(wall);
        }
    }

    /// Sleeps for `secs` paper seconds.
    pub fn sleep_paper_secs(&self, secs: f64) {
        self.sleep_paper(Duration::from_secs_f64(secs));
    }
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::new(TimeScale::realtime())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_roundtrip() {
        let s = TimeScale::new(0.05);
        let d = Duration::from_millis(1234);
        let back = s.to_paper(s.to_wall(d));
        let err = back.as_secs_f64() - d.as_secs_f64();
        assert!(err.abs() < 1e-9, "roundtrip error {err}");
    }

    #[test]
    fn paper_conversions() {
        let s = TimeScale::new(0.1);
        assert_eq!(s.paper_secs(2.0), Duration::from_millis(200));
        assert_eq!(s.paper_millis(50.0), Duration::from_millis(5));
        assert_eq!(s.paper_micros(100.0), Duration::from_micros(10));
    }

    #[test]
    #[should_panic]
    fn zero_scale_rejected() {
        let _ = TimeScale::new(0.0);
    }

    #[test]
    #[should_panic]
    fn negative_scale_rejected() {
        let _ = TimeScale::new(-1.0);
    }

    #[test]
    fn clock_advances_in_paper_time() {
        let c = SimClock::new(TimeScale::new(0.001)); // 1 paper-s = 1 wall-ms
        std::thread::sleep(Duration::from_millis(5));
        let p = c.now_paper();
        assert!(p >= Duration::from_secs(4), "paper time was {p:?}");
    }

    #[test]
    fn sleep_paper_sleeps_scaled() {
        let c = SimClock::new(TimeScale::new(0.001));
        let t0 = Instant::now();
        c.sleep_paper_secs(2.0); // = 2 wall-ms
        let el = t0.elapsed();
        assert!(el >= Duration::from_millis(2));
        assert!(el < Duration::from_millis(500), "slept too long: {el:?}");
    }

    #[test]
    fn a_clock_tightens_the_process_timer_slack() {
        const SLACK: &str = "/proc/self/timerslack_ns";
        if std::fs::metadata(SLACK).is_err() {
            return; // no procfs: nothing to tighten
        }
        let _ = SimClock::new(TimeScale::realtime());
        let slack = std::fs::read_to_string(SLACK).expect("read timer slack");
        if slack.trim() != "1" {
            // A host that refuses the write (a non-leader thread without
            // CAP_SYS_NICE, a read-only /proc) refuses it here too;
            // anywhere else the clock should have written it.
            let refused = std::fs::write(SLACK, "1").is_err();
            assert!(refused, "timer slack is {} ns after SimClock::new", slack.trim());
        }
    }

    #[test]
    fn sleep_until_waits_for_the_deadline_and_not_for_a_past_one() {
        let deadline = wall_deadline(Duration::from_millis(2));
        sleep_until(deadline);
        assert!(Instant::now() >= deadline);
        let t0 = Instant::now();
        sleep_until(t0 - Duration::from_millis(1));
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn tiny_sleeps_are_skipped() {
        let c = SimClock::new(TimeScale::new(1e-9));
        let t0 = Instant::now();
        c.sleep_paper_secs(1.0); // scaled to 1ns -> skipped
        assert!(t0.elapsed() < Duration::from_millis(50));
    }
}
