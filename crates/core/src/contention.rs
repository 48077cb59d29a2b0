//! Contention management: conflict-heat tracking, hot-class update
//! serialization and the deterministic retry backoff.
//!
//! At saturation the copy-on-write MVCC master's first-committer-wins
//! validation turns every hot-page race into an abort and a blind retry —
//! wasted work that climbs with offered load. (Under 2PL the page locks
//! already make writers take turns.) This module is the feedback loop
//! that keeps the high-load cells monotone (EXPERIMENTS.md "Overload
//! ablation": with it off, 64-client aborts go from 4 % to 15 %):
//!
//! 1. **Conflict-heat tracker** — every MVCC validation failure, the
//!    heat map's only feed, deposits one unit of heat on the conflicted
//!    table; heat decays exponentially with half-life
//!    [`HEAT_HALF_LIFE`] in *paper* time, so decay is identical at
//!    every `TimeScale`. Heat therefore approximates the current
//!    conflict *rate*, not cumulative history.
//! 2. **Hot-class serialization** — an update whose declared table set
//!    is hot is funneled through one of [`N_CLASSES`] heat-class queues
//!    (plain mutexes) before it executes, so conflicting writers take
//!    turns instead of racing to validation where all but one must
//!    abort. Cold updates pay one decayed heat lookup and proceed
//!    unserialized.
//! 3. **Retry backoff** — clients space retries of retryable aborts with
//!    one seeded equal-jitter [`Backoff`] stream.
//!
//! None of the values below is configurable: no caller ever needed a
//! second setting, so they are constants rather than a config struct.
//!
//! Determinism: heat timestamps come from the cluster [`SimClock`]
//! (paper time) and backoff jitter from the seeded stream, so a
//! single-threaded deterministic-simulation schedule observes identical
//! heat values, identical delays and an identical trace on every run.

use dmv_common::clock::SimClock;
use dmv_common::ids::TableId;
use dmv_common::rng::Backoff;
// Shimmed primitives: parking_lot/std in normal builds, model-checked
// under `--cfg dmv_check` (see crates/check).
use dmv_check::sync::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Exponential-decay half-life of conflict heat (paper time). A
/// sustained conflict rate of `r`/s settles at heat
/// `r·T/ln 2 ≈ 2.89·r` for this `T`.
const HEAT_HALF_LIFE: Duration = Duration::from_secs(2);
/// Table heat at which updates over that table take turns: ≈ 8
/// sustained conflicts/s on one table. The brake must only engage at
/// genuine pathology — serializing at the heat a healthy cell emits (a
/// few conflicts/s) forfeits the multi-writer master's parallelism.
const HOT_THRESHOLD: f64 = 24.0;
/// Heat-class queues for hot-update serialization.
const N_CLASSES: usize = 8;
/// Bounds of every retry backoff delay (paper time).
const BACKOFF_BASE: Duration = Duration::from_micros(300);
const BACKOFF_CAP: Duration = Duration::from_millis(8);
/// Seed of the backoff jitter stream.
const BACKOFF_SEED: u64 = 0xB0FF;

/// One decaying heat accumulator: `value` as of `at` (paper time).
#[derive(Debug, Clone, Copy, Default)]
struct Heat {
    value: f64,
    at: Duration,
}

impl Heat {
    /// The value decayed to `now`.
    fn decayed(&self, now: Duration) -> f64 {
        let dt = now.saturating_sub(self.at).as_secs_f64();
        self.value * 0.5f64.powf(dt / HEAT_HALF_LIFE.as_secs_f64())
    }

    /// Decays to `now`, then deposits one unit.
    fn record(&mut self, now: Duration) {
        self.value = self.decayed(now) + 1.0;
        self.at = now;
    }
}

/// The shared contention manager: one per cluster, consulted by every
/// scheduler (hot-class serialization, backoff delays) and fed by every
/// master (validation failures).
pub struct ContentionManager {
    clock: SimClock,
    heat: Mutex<HashMap<TableId, Heat>>,
    /// Heat-class serialization queues: hot updates lock
    /// `class_queues[hash(tables) % N_CLASSES]` for their whole
    /// execution, so same-class writers take turns. Plain mutexes — FIFO
    /// enough under parking_lot, and exactly one serialization point
    /// per class.
    class_queues: [Mutex<()>; N_CLASSES],
    /// The deterministic equal-jitter delay stream shared by every
    /// session of this cluster.
    backoff: Mutex<Backoff>,
}

impl ContentionManager {
    /// A manager whose heat decays on the given cluster clock.
    pub fn new(clock: SimClock) -> Arc<Self> {
        let mgr = Arc::new(ContentionManager {
            clock,
            heat: Mutex::new(HashMap::new()),
            class_queues: std::array::from_fn(|_| Mutex::new(())),
            backoff: Mutex::new(Backoff::new(BACKOFF_BASE, BACKOFF_CAP, BACKOFF_SEED)),
        });
        dmv_check::race::label(&mgr.heat, "contention.heat");
        dmv_check::race::label(&mgr.backoff, "contention.backoff");
        mgr
    }

    /// Records one conflict on `table`: an MVCC first-committer-wins
    /// validation failure on one of its pages, reported by the master.
    pub fn record_table_conflict(&self, table: TableId) {
        let now = self.clock.now_paper();
        self.heat.lock().entry(table).or_default().record(now);
    }

    /// If the update's table set is hot, locks its heat-class queue for
    /// the update's whole execution (serializing same-class writers);
    /// cold updates get `None` and race as before.
    pub fn serialize_if_hot(&self, tables: &[TableId]) -> Option<MutexGuard<'_, ()>> {
        let now = self.clock.now_paper();
        let hottest = {
            let heat = self.heat.lock();
            tables.iter().filter_map(|t| heat.get(t)).map(|h| h.decayed(now)).fold(0.0, f64::max)
        };
        if hottest < HOT_THRESHOLD {
            return None;
        }
        // Stable class assignment: same table set → same queue, across
        // schedulers and runs (FNV over the sorted declared set — the
        // scheduler's conflict-class info arrives pre-sorted per
        // transaction type).
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for t in tables {
            hash = (hash ^ u64::from(t.0)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Some(self.class_queues[(hash % N_CLASSES as u64) as usize].lock())
    }

    /// The next equal-jitter backoff delay for retry number `attempt`
    /// (1-based), drawn from the shared deterministic stream. The
    /// caller sleeps it in paper time (`SimClock::sleep_paper`).
    pub fn backoff_delay(&self, attempt: usize) -> Duration {
        self.backoff.lock().delay(attempt)
    }
}

impl std::fmt::Debug for ContentionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContentionManager")
            .field("tracked_tables", &self.heat.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::clock::TimeScale;
    use std::sync::mpsc;

    /// A manager on a clock so compressed (1 wall second = 1 paper µs)
    /// that every conflict of a test lands at one paper instant: no
    /// assertion depends on how fast the test thread runs.
    fn mgr() -> Arc<ContentionManager> {
        ContentionManager::new(SimClock::new(TimeScale::new(1e6)))
    }

    #[test]
    fn heat_accumulates_and_decays() {
        let t0 = Duration::from_secs(10);
        let mut h = Heat::default();
        assert_eq!(h.decayed(t0), 0.0, "untouched table is cold");
        for _ in 0..4 {
            h.record(t0);
        }
        assert_eq!(h.decayed(t0), 4.0, "4 conflicts at one instant are 4 heat");
        assert_eq!(h.decayed(t0 + HEAT_HALF_LIFE), 2.0);
        let cooled = h.decayed(t0 + 6 * HEAT_HALF_LIFE);
        assert!(cooled < 0.5, "6 half-lives must cool 4 heat below 0.5, got {cooled}");
        h.record(t0 + HEAT_HALF_LIFE);
        assert_eq!(h.decayed(t0 + HEAT_HALF_LIFE), 3.0, "record decays first, then deposits");
        assert_eq!(h.decayed(Duration::ZERO), 3.0, "a clock reading before `at` does not heat");
    }

    #[test]
    fn hot_tables_serialize_cold_tables_race() {
        let m = mgr();
        let hot = TableId(1);
        assert!(m.serialize_if_hot(&[hot]).is_none(), "cold table must not queue");
        for _ in 0..23 {
            m.record_table_conflict(hot);
        }
        assert!(m.serialize_if_hot(&[hot]).is_none(), "23 conflicts sit below HOT_THRESHOLD");
        m.record_table_conflict(hot);
        m.record_table_conflict(hot);
        let guard = m.serialize_if_hot(&[hot]);
        assert!(guard.is_some(), "25 conflicts at one instant cross HOT_THRESHOLD");
        // A disjoint cold set is unaffected even while the hot class is
        // held, and an empty set is never hot.
        assert!(m.serialize_if_hot(&[TableId(7)]).is_none());
        assert!(m.serialize_if_hot(&[]).is_none());
    }

    #[test]
    fn same_class_writers_take_turns() {
        let m = mgr();
        let hot = TableId(1);
        for _ in 0..25 {
            m.record_table_conflict(hot);
        }
        let first = m.serialize_if_hot(&[hot]).expect("hot");
        let (started, entered) = (mpsc::channel(), mpsc::channel());
        let second = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                started.0.send(()).expect("main is listening");
                let _turn = m.serialize_if_hot(&[hot]).expect("still hot");
                entered.0.send(()).expect("main is listening");
            })
        };
        started.1.recv().expect("second thread runs");
        // In correct code this wait always times out, whatever the
        // host's speed: the second caller sends only once it owns the
        // class queue. The timeout only bounds how long a broken gate
        // gets to show itself.
        let early = entered.1.recv_timeout(Duration::from_millis(50));
        assert!(early.is_err(), "second writer entered beside the first");
        drop(first);
        entered.1.recv().expect("second writer enters once the first guard drops");
        second.join().expect("second thread");
    }

    #[test]
    fn backoff_stream_is_deterministic_and_bounded() {
        let (a, b) = (mgr(), mgr());
        for attempt in 1..=10 {
            let d = a.backoff_delay(attempt);
            assert_eq!(d, b.backoff_delay(attempt), "same seed, same stream");
            assert!((BACKOFF_BASE..=BACKOFF_CAP).contains(&d));
        }
    }
}
