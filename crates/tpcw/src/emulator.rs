//! The TPC-W client emulator.
//!
//! Emulates N concurrent browsers with negative-exponential think time
//! (as the TPC-W remote browser emulator specifies), measures WIPS (web
//! interactions per second — the standard TPC-W metric) and
//! client-perceived latency, excludes a warm-up period, and records a
//! windowed throughput series for the fail-over timelines.

use crate::backend::Backend;
use crate::interactions::{plan, ClientState, IdAllocator};
use crate::mix::Mix;
use crate::populate::TpcwScale;
use dmv_common::clock::SimClock;
use dmv_common::rng::{derive, neg_exp};
use dmv_common::stats::{LatencyHistogram, SeriesPoint, ThroughputSeries};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Emulator parameters. All durations are paper time.
#[derive(Debug, Clone)]
pub struct EmulatorConfig {
    /// Workload mix.
    pub mix: Mix,
    /// Concurrent emulated browsers.
    pub n_clients: usize,
    /// Mean think time (TPC-W specifies 7 s; scaled runs usually use a
    /// smaller value to reach interesting load with fewer threads).
    pub think_time: Duration,
    /// Measured duration (after warm-up).
    pub duration: Duration,
    /// Warm-up period excluded from the summary statistics.
    pub warmup: Duration,
    /// Retries per interaction for retryable aborts.
    pub retries: usize,
    /// Workload seed.
    pub seed: u64,
    /// Width of the throughput-series windows (the paper uses 20 s).
    pub series_window: Duration,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        EmulatorConfig {
            mix: Mix::Shopping,
            n_clients: 8,
            think_time: Duration::from_secs(1),
            duration: Duration::from_secs(60),
            warmup: Duration::from_secs(5),
            retries: 10,
            seed: 42,
            series_window: Duration::from_secs(20),
        }
    }
}

/// Results of an emulator run.
#[derive(Debug, Clone)]
pub struct EmulatorReport {
    /// Interactions completed in the measured window.
    pub interactions: u64,
    /// Update-class interactions completed in the measured window.
    pub updates: u64,
    /// Interactions that failed after all retries.
    pub errors: u64,
    /// Web interactions per paper second over the measured window.
    pub wips: f64,
    /// Mean client-perceived latency (paper time, includes retries).
    pub mean_latency: Duration,
    /// 90th percentile latency.
    pub p90_latency: Duration,
    /// Median latency of update-class interactions only (paper time).
    pub update_p50_latency: Duration,
    /// 99th percentile latency of update-class interactions only.
    pub update_p99_latency: Duration,
    /// Full-run throughput series (window start is relative to the run
    /// start, i.e. including warm-up).
    pub series: Vec<SeriesPoint>,
}

struct Shared {
    series: ThroughputSeries,
    hist: LatencyHistogram,
    update_hist: LatencyHistogram,
    interactions: AtomicU64,
    updates: AtomicU64,
    errors: AtomicU64,
}

/// A running emulator; join to collect the report.
pub struct EmulatorHandle {
    threads: Vec<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
    cfg: EmulatorConfig,
}

impl EmulatorHandle {
    /// Waits for all clients to finish and builds the report.
    pub fn join(self) -> EmulatorReport {
        for t in self.threads {
            let _ = t.join();
        }
        let s = &self.shared;
        let interactions = s.interactions.load(Ordering::Relaxed); // relaxed-ok: benchmark tally; aggregated only after worker join()
        EmulatorReport {
            interactions,
            updates: s.updates.load(Ordering::Relaxed), // relaxed-ok: benchmark tally; aggregated only after worker join()
            errors: s.errors.load(Ordering::Relaxed), // relaxed-ok: benchmark tally; aggregated only after worker join()
            wips: interactions as f64 / self.cfg.duration.as_secs_f64(),
            mean_latency: s.hist.mean(),
            p90_latency: s.hist.percentile(0.9),
            update_p50_latency: s.update_hist.percentile(0.5),
            update_p99_latency: s.update_hist.percentile(0.99),
            series: s.series.points(),
        }
    }
}

impl std::fmt::Debug for EmulatorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmulatorHandle").field("clients", &self.threads.len()).finish()
    }
}

/// An embeddable single-step TPC-W client: one emulated browser whose
/// interactions are issued one at a time by an external driver, with no
/// think time and no background thread. Deterministic-simulation
/// harnesses use this to interleave TPC-W traffic with fault events on
/// a single thread, so the schedule alone fixes the interleaving.
pub struct StepDriver {
    rng: rand::rngs::SmallRng,
    state: ClientState,
    ids: Arc<IdAllocator>,
    scale: TpcwScale,
    mix: Mix,
    steps: u64,
}

impl StepDriver {
    /// A driver for emulated browser `client`, seeded exactly like the
    /// threaded emulator's client threads.
    pub fn new(seed: u64, client: u64, ids: Arc<IdAllocator>, scale: TpcwScale, mix: Mix) -> Self {
        let mut rng = derive(seed, client);
        let state = ClientState::new(rng.gen_range(1..=(scale.customers as i64)));
        StepDriver { rng, state, ids, scale, mix, steps: 0 }
    }

    /// Plans and runs one interaction against `backend`, returning the
    /// interaction kind and the outcome. Mirrors the threaded emulator's
    /// loop body (including the cart-bound checkout rule), with the step
    /// counter standing in for elapsed paper time in `o_date` values.
    pub fn step(
        &mut self,
        backend: &Backend,
        retries: usize,
    ) -> (crate::interactions::InteractionKind, dmv_common::error::DmvResult<()>) {
        let mut kind = self.mix.sample(&mut self.rng);
        if kind == crate::interactions::InteractionKind::ShoppingCart {
            if let Some((_, lines)) = &self.state.cart {
                if lines.len() >= 8 {
                    kind = crate::interactions::InteractionKind::BuyConfirm;
                }
            }
        }
        let now_date = 13_000 + self.steps as i64;
        self.steps += 1;
        let mut interaction =
            plan(kind, &mut self.rng, &mut self.state, &self.ids, self.scale, now_date);
        (kind, backend.run(&mut interaction, retries))
    }
}

impl std::fmt::Debug for StepDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepDriver").field("steps", &self.steps).finish()
    }
}

/// Starts the emulator in the background (the caller may inject faults
/// on its own schedule before joining).
pub fn spawn_emulator(
    backend: &Backend,
    clock: SimClock,
    ids: &Arc<IdAllocator>,
    scale: TpcwScale,
    cfg: EmulatorConfig,
) -> EmulatorHandle {
    let horizon = cfg.warmup + cfg.duration + cfg.duration / 4 + cfg.series_window;
    let shared = Arc::new(Shared {
        series: ThroughputSeries::new(horizon, cfg.series_window),
        hist: LatencyHistogram::new(),
        update_hist: LatencyHistogram::new(),
        interactions: AtomicU64::new(0),
        updates: AtomicU64::new(0),
        errors: AtomicU64::new(0),
    });
    let start = clock.now_paper();
    let mut threads = Vec::with_capacity(cfg.n_clients);
    for client in 0..cfg.n_clients {
        let backend = backend.clone();
        let shared = Arc::clone(&shared);
        let ids = Arc::clone(ids);
        let cfg = cfg.clone();
        let handle = std::thread::Builder::new()
            .name(format!("tpcw-client-{client}"))
            .spawn(move || {
                let mut rng = derive(cfg.seed, client as u64);
                let mut state = ClientState::new(rng.gen_range(1..=(scale.customers as i64)));
                let warmup_end = cfg.warmup;
                let run_end = cfg.warmup + cfg.duration;
                loop {
                    let now = clock.now_paper() - start.min(clock.now_paper());
                    if now >= run_end {
                        break;
                    }
                    // Think time.
                    let think = neg_exp(&mut rng, cfg.think_time.as_secs_f64());
                    clock.sleep_paper(Duration::from_secs_f64(think));
                    let t0 = clock.now_paper() - start;
                    if t0 >= run_end {
                        break;
                    }
                    let mut kind = cfg.mix.sample(&mut rng);
                    // A browser session's cart is bounded: once it grows
                    // past 8 lines the client checks out instead of
                    // adding more (real TPC-W sessions are short-lived).
                    if kind == crate::interactions::InteractionKind::ShoppingCart {
                        if let Some((_, lines)) = &state.cart {
                            if lines.len() >= 8 {
                                kind = crate::interactions::InteractionKind::BuyConfirm;
                            }
                        }
                    }
                    let now_date = 13_000 + t0.as_secs() as i64;
                    let mut interaction = plan(kind, &mut rng, &mut state, &ids, scale, now_date);
                    let res = backend.run(&mut interaction, cfg.retries);
                    let t1 = clock.now_paper() - start;
                    let latency = t1.saturating_sub(t0);
                    match res {
                        Ok(()) => {
                            shared.series.record(t1, latency);
                            if t0 >= warmup_end && t1 <= run_end {
                                shared.interactions.fetch_add(1, Ordering::Relaxed); // relaxed-ok: benchmark tally; aggregated only after worker join()
                                if kind.is_update() {
                                    // relaxed-ok: benchmark tally; aggregated only after worker join()
                                    shared.updates.fetch_add(1, Ordering::Relaxed);
                                    shared.update_hist.record(latency);
                                }
                                shared.hist.record(latency);
                            }
                        }
                        Err(_) => {
                            shared.errors.fetch_add(1, Ordering::Relaxed); // relaxed-ok: benchmark tally; aggregated only after worker join()
                        }
                    }
                }
            })
            .expect("spawn client");
        threads.push(handle);
    }
    EmulatorHandle { threads, shared, cfg }
}

/// Runs the emulator to completion.
pub fn run_emulator(
    backend: &Backend,
    clock: SimClock,
    ids: &Arc<IdAllocator>,
    scale: TpcwScale,
    cfg: EmulatorConfig,
) -> EmulatorReport {
    spawn_emulator(backend, clock, ids, scale, cfg).join()
}
