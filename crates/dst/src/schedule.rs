//! Schedule grammar and the seeded schedule generator.
//!
//! A schedule is a cluster shape plus a linear list of [`Event`]s. The
//! driver executes events one at a time on a single thread, so the
//! schedule *is* the interleaving: the same schedule always produces
//! the same trace. Events are either workload operations (bank
//! transfers/reads or TPC-W interactions) or fault actions (kill a
//! node, crash a master mid-broadcast, partition, latency spike,
//! backend stall, reintegration).
//!
//! The generator draws from three [`dmv_common::rng::derive`] streams
//! (shape, workload, faults) and tracks feasibility: kills are followed
//! by a forced `detect` within two events, partitions are healed within
//! three, and the cluster always keeps at least one live slave so reads
//! and reintegration have somewhere to go.

use dmv_common::rng::derive;
use rand::Rng;
use std::fmt;

/// Which workload the schedule interleaves with faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two-table bank (transfers + counters) checked against an exact
    /// model with per-version snapshots.
    Bank,
    /// TPC-W interactions via [`dmv_tpcw::StepDriver`], checked with
    /// convergence/digest oracles.
    Tpcw,
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::Bank => write!(f, "bank"),
            Workload::Tpcw => write!(f, "tpcw"),
        }
    }
}

/// Cluster shape and workload sizing for one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Workload kind.
    pub workload: Workload,
    /// Active slaves at start.
    pub n_slaves: usize,
    /// Spare backups at start.
    pub n_spares: usize,
    /// On-disk persistence backends.
    pub n_backends: usize,
    /// Conflict classes (1 = single master, 2 = accounts/counters split).
    pub n_classes: usize,
    /// Bank accounts.
    pub n_accounts: i64,
    /// Bank counters.
    pub n_counters: i64,
    /// Emulated clients (rng streams / TPC-W browsers).
    pub n_clients: u64,
}

impl ScheduleConfig {
    /// The default bank shape used by hand-written schedules.
    pub fn bank() -> Self {
        ScheduleConfig {
            workload: Workload::Bank,
            n_slaves: 2,
            n_spares: 0,
            n_backends: 1,
            n_classes: 2,
            n_accounts: 10,
            n_counters: 4,
            n_clients: 2,
        }
    }
}

/// One schedule step. Workload events carry the acting client so each
/// client keeps its own deterministic rng stream and tag history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Move `amount` between two accounts (writes the accounts table).
    Transfer { client: u64, from: i64, to: i64, amount: i64 },
    /// Add `amount` to one account.
    Deposit { client: u64, acct: i64, amount: i64 },
    /// Increment one counter (writes the counters table — the second
    /// conflict class when `n_classes == 2`).
    Bump { client: u64, ctr: i64 },
    /// Read-only scan of both tables, checked against the model at the
    /// scheduler-assigned tag.
    Read { client: u64 },
    /// Read at a tag `back` committed versions behind the latest,
    /// directly against a slave: must return exactly the old snapshot
    /// or abort with a version conflict — never future data.
    StaleRead { client: u64, back: u64 },
    /// One TPC-W interaction from this client's step driver.
    Tpcw { client: u64 },
    /// Fail-stop the `nth` live slave.
    KillSlave { nth: usize },
    /// Fail-stop the master of conflict class `class`.
    KillMaster { class: usize },
    /// Arm a crash on the class master's `sends`-th outbound message,
    /// then issue one update so it fires mid-broadcast: some replicas
    /// receive the write-set, the rest never do, and the commit is
    /// never acknowledged.
    KillMasterMid { class: usize, sends: u32 },
    /// Like `KillMasterMid`, but the crash lands inside a *batched*
    /// broadcast: the group-commit flusher is held while two concurrent
    /// updates (accounts + counters, so their page locks never
    /// conflict) coalesce into one `WriteSetBatch` frame, then released
    /// with the crash armed on the `sends`-th outbound send. Some
    /// replicas enqueue the whole batch, the rest none of it, and
    /// neither commit is acknowledged — fail-over must discard the
    /// partial batch on every survivor (all-or-nothing). Only generated
    /// for single-class bank schedules (both probe tables share one
    /// master).
    KillMasterMidBatch { class: usize, sends: u32 },
    /// Crash the class master at the commit-validation point: the armed
    /// trigger (`ReplicaNode::arm_kill_mid_validation`) fires after the
    /// next update transaction's validation and install and before the
    /// version bump or any broadcast. Nothing reaches the
    /// wire, so the scheduler's committed watermark must not advance and
    /// fail-over has nothing to discard — the probe update aborts with
    /// `NodeFailed`.
    KillMasterMidValidation { class: usize },
    /// Run one failure-detector sweep (promotion, spare activation).
    Detect,
    /// Reintegrate the oldest detected-dead node via page migration.
    Reintegrate,
    /// Integrate a brand-new node (full-state migration).
    IntegrateFresh,
    /// Partition the class master from its `nth` live slave.
    Partition { class: usize, nth: usize },
    /// Heal all partitions; stale slaves that missed write-sets are
    /// killed and reintegrated (dropped diffs are never redelivered).
    HealAll,
    /// Network-wide latency spike (paper-time micros).
    LatencySpike { micros: u64 },
    /// End the latency spike.
    LatencyNormal,
    /// Stall every on-disk backend (the async feed must absorb it).
    BackendStall,
    /// Resume the backends.
    BackendResume,
    /// Clamp every live replica's buffer budget to `pages` resident
    /// pages and keep it clamped for the rest of the run. From this
    /// event on the harness runs a GC sweep plus the bounded-memory and
    /// GC-safety oracles after every event.
    MemPressure { pages: u32 },
    /// Burst of `n` conflicting counter updates from one client, each
    /// run under a small retry budget, followed by the retry-budget
    /// oracle: no transaction may exceed its retry budget (every burst
    /// update eventually commits). Hand-written schedules only (not
    /// generated), so adding it reshuffles no existing corpus seed.
    Surge { client: u64, ctr: i64, n: u32 },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Transfer { client, from, to, amount } => {
                write!(f, "transfer client={client} from={from} to={to} amount={amount}")
            }
            Event::Deposit { client, acct, amount } => {
                write!(f, "deposit client={client} acct={acct} amount={amount}")
            }
            Event::Bump { client, ctr } => write!(f, "bump client={client} ctr={ctr}"),
            Event::Read { client } => write!(f, "read client={client}"),
            Event::StaleRead { client, back } => {
                write!(f, "stale-read client={client} back={back}")
            }
            Event::Tpcw { client } => write!(f, "tpcw client={client}"),
            Event::KillSlave { nth } => write!(f, "kill-slave nth={nth}"),
            Event::KillMaster { class } => write!(f, "kill-master class={class}"),
            Event::KillMasterMid { class, sends } => {
                write!(f, "kill-master-mid class={class} sends={sends}")
            }
            Event::KillMasterMidBatch { class, sends } => {
                write!(f, "kill-master-mid-batch class={class} sends={sends}")
            }
            Event::KillMasterMidValidation { class } => {
                write!(f, "kill-master-mid-validation class={class}")
            }
            Event::Detect => write!(f, "detect"),
            Event::Reintegrate => write!(f, "reintegrate"),
            Event::IntegrateFresh => write!(f, "integrate-fresh"),
            Event::Partition { class, nth } => write!(f, "partition class={class} nth={nth}"),
            Event::HealAll => write!(f, "heal-all"),
            Event::LatencySpike { micros } => write!(f, "latency-spike micros={micros}"),
            Event::LatencyNormal => write!(f, "latency-normal"),
            Event::BackendStall => write!(f, "backend-stall"),
            Event::BackendResume => write!(f, "backend-resume"),
            Event::MemPressure { pages } => write!(f, "mem-pressure pages={pages}"),
            Event::Surge { client, ctr, n } => {
                write!(f, "surge client={client} ctr={ctr} n={n}")
            }
        }
    }
}

impl Event {
    /// Parses the `Display` form back (repro files).
    ///
    /// # Errors
    ///
    /// A description of the malformed line.
    pub fn parse(line: &str) -> Result<Event, String> {
        let mut words = line.split_whitespace();
        let head = words.next().ok_or_else(|| "empty event line".to_string())?;
        let mut kv = std::collections::HashMap::new();
        for w in words {
            let (k, v) = w.split_once('=').ok_or_else(|| format!("bad field `{w}`"))?;
            kv.insert(k.to_string(), v.to_string());
        }
        let get = |k: &str| -> Result<i64, String> {
            kv.get(k)
                .ok_or_else(|| format!("`{head}` missing field `{k}`"))?
                .parse::<i64>()
                .map_err(|e| format!("`{head}` field `{k}`: {e}"))
        };
        Ok(match head {
            "transfer" => Event::Transfer {
                client: get("client")? as u64,
                from: get("from")?,
                to: get("to")?,
                amount: get("amount")?,
            },
            "deposit" => Event::Deposit {
                client: get("client")? as u64,
                acct: get("acct")?,
                amount: get("amount")?,
            },
            "bump" => Event::Bump { client: get("client")? as u64, ctr: get("ctr")? },
            "read" => Event::Read { client: get("client")? as u64 },
            "stale-read" => {
                Event::StaleRead { client: get("client")? as u64, back: get("back")? as u64 }
            }
            "tpcw" => Event::Tpcw { client: get("client")? as u64 },
            "kill-slave" => Event::KillSlave { nth: get("nth")? as usize },
            "kill-master" => Event::KillMaster { class: get("class")? as usize },
            "kill-master-mid" => {
                Event::KillMasterMid { class: get("class")? as usize, sends: get("sends")? as u32 }
            }
            "kill-master-mid-batch" => Event::KillMasterMidBatch {
                class: get("class")? as usize,
                sends: get("sends")? as u32,
            },
            "kill-master-mid-validation" => {
                Event::KillMasterMidValidation { class: get("class")? as usize }
            }
            "detect" => Event::Detect,
            "reintegrate" => Event::Reintegrate,
            "integrate-fresh" => Event::IntegrateFresh,
            "partition" => {
                Event::Partition { class: get("class")? as usize, nth: get("nth")? as usize }
            }
            "heal-all" => Event::HealAll,
            "latency-spike" => Event::LatencySpike { micros: get("micros")? as u64 },
            "latency-normal" => Event::LatencyNormal,
            "backend-stall" => Event::BackendStall,
            "backend-resume" => Event::BackendResume,
            "mem-pressure" => Event::MemPressure { pages: get("pages")? as u32 },
            "surge" => Event::Surge {
                client: get("client")? as u64,
                ctr: get("ctr")?,
                n: get("n")? as u32,
            },
            other => return Err(format!("unknown event `{other}`")),
        })
    }
}

/// A complete, runnable schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Generator seed (also seeds the per-client workload streams).
    pub seed: u64,
    /// Cluster shape.
    pub config: ScheduleConfig,
    /// The event list, executed in order.
    pub events: Vec<Event>,
}

/// Generator feasibility state: what faults are currently legal.
struct GenState {
    alive_slaves: usize,
    spares: usize,
    dead_pool: usize,
    /// Events since an undetected kill (forces `detect` promptly).
    kill_age: Option<usize>,
    partitions: usize,
    /// Events since the oldest open partition.
    partition_age: usize,
    spiking: bool,
    stalled: bool,
    /// A mem-pressure budget is already active (it persists, so one per
    /// schedule is enough to put the whole tail under pressure).
    pressured: bool,
}

/// Generates the schedule for `seed`: cluster shape, then an event list
/// in which roughly a quarter of the events are faults.
pub fn for_seed(seed: u64) -> Schedule {
    let mut shape = derive(seed, 0xD5);
    let workload = if shape.gen_range(0..5) == 0 { Workload::Tpcw } else { Workload::Bank };
    let config = match workload {
        Workload::Bank => ScheduleConfig {
            workload,
            n_slaves: shape.gen_range(2..=3),
            n_spares: shape.gen_range(0..=1),
            n_backends: if shape.gen_range(0..4) == 0 { 2 } else { 1 },
            n_classes: shape.gen_range(1..=2),
            n_accounts: shape.gen_range(6..=14),
            n_counters: shape.gen_range(2..=5),
            n_clients: shape.gen_range(2..=4),
        },
        Workload::Tpcw => ScheduleConfig {
            workload,
            n_slaves: 2,
            n_spares: shape.gen_range(0..=1),
            n_backends: 1,
            n_classes: 1,
            n_accounts: 0,
            n_counters: 0,
            n_clients: shape.gen_range(2..=3),
        },
    };
    let n_events = match workload {
        Workload::Bank => shape.gen_range(36..=48),
        Workload::Tpcw => shape.gen_range(20..=26),
    };
    let mut ops = derive(seed, 0xA1);
    let mut faults = derive(seed, 0xF7);
    let mut st = GenState {
        alive_slaves: config.n_slaves,
        spares: config.n_spares,
        dead_pool: 0,
        kill_age: None,
        partitions: 0,
        partition_age: 0,
        spiking: false,
        stalled: false,
        pressured: false,
    };
    let mut events = Vec::with_capacity(n_events);
    while events.len() < n_events {
        // Forced repairs keep every generated schedule feasible.
        if st.kill_age.is_some_and(|a| a >= 2) {
            events.push(detect(&mut st));
            continue;
        }
        if st.partitions > 0 && st.partition_age >= 3 {
            events.push(heal_all(&mut st));
            continue;
        }
        if let Some(a) = st.kill_age.as_mut() {
            *a += 1;
        }
        if st.partitions > 0 {
            st.partition_age += 1;
        }
        let fault_roll = faults.gen_range(0..100);
        if fault_roll < 28 {
            if let Some(ev) = gen_fault(&config, &mut st, &mut faults) {
                events.push(ev);
                continue;
            }
        }
        events.push(gen_op(&config, &mut ops));
    }
    // Leave the cluster repaired: pending kills detected, partitions
    // healed, spike/stall cleared (the harness drains again anyway).
    if st.kill_age.is_some() {
        events.push(detect(&mut st));
    }
    if st.partitions > 0 {
        events.push(heal_all(&mut st));
    }
    if st.spiking {
        events.push(Event::LatencyNormal);
    }
    if st.stalled {
        events.push(Event::BackendResume);
    }
    Schedule { seed, config, events }
}

fn detect(st: &mut GenState) -> Event {
    st.kill_age = None;
    Event::Detect
}

fn heal_all(st: &mut GenState) -> Event {
    // Healed-but-stale slaves get killed and reintegrated by the
    // harness, so they come back as live slaves.
    st.partitions = 0;
    st.partition_age = 0;
    Event::HealAll
}

fn gen_op(config: &ScheduleConfig, rng: &mut rand::rngs::SmallRng) -> Event {
    let client = rng.gen_range(0..config.n_clients);
    if config.workload == Workload::Tpcw {
        return Event::Tpcw { client };
    }
    match rng.gen_range(0..10) {
        0..=2 => {
            let from = rng.gen_range(0..config.n_accounts);
            let to = (from + rng.gen_range(1..config.n_accounts)) % config.n_accounts;
            Event::Transfer { client, from, to, amount: rng.gen_range(1..=9) }
        }
        3..=4 => Event::Deposit {
            client,
            acct: rng.gen_range(0..config.n_accounts),
            amount: rng.gen_range(1..=20),
        },
        5..=6 => Event::Bump { client, ctr: rng.gen_range(0..config.n_counters) },
        7..=8 => Event::Read { client },
        _ => Event::StaleRead { client, back: rng.gen_range(1..=3) },
    }
}

/// Picks a feasible fault, or `None` when none is currently legal.
fn gen_fault(
    config: &ScheduleConfig,
    st: &mut GenState,
    rng: &mut rand::rngs::SmallRng,
) -> Option<Event> {
    // The kill budget: a promotion consumes a slave (minus any spare
    // that auto-activates), and reads/reintegration need one live slave
    // at all times.
    for _ in 0..8 {
        match rng.gen_range(0..8) {
            0 if st.alive_slaves >= 2 && st.kill_age.is_none() && st.partitions == 0 => {
                let nth = rng.gen_range(0..st.alive_slaves);
                if st.spares > 0 {
                    st.spares -= 1;
                } else {
                    st.alive_slaves -= 1;
                }
                st.dead_pool += 1;
                st.kill_age = Some(0);
                return Some(Event::KillSlave { nth });
            }
            1 if st.alive_slaves >= 2 && st.kill_age.is_none() && st.partitions == 0 => {
                // A kill is always detected before the next kill, and
                // detection promotes a slave, so the class master is
                // back before this arm can fire again.
                let class = rng.gen_range(0..config.n_classes);
                if st.spares > 0 {
                    st.spares -= 1;
                } else {
                    st.alive_slaves -= 1;
                }
                st.dead_pool += 1;
                st.kill_age = Some(0);
                let mid = rng.gen_range(0..2) == 0;
                return Some(if mid {
                    // The batched variant needs both probe tables on one
                    // master, so it is only legal for single-class bank
                    // shapes. With ≥2 live targets a one-frame batch
                    // broadcast makes ≥2 sends, so sends ∈ 1..=2 always
                    // fires mid-broadcast.
                    if config.workload == Workload::Bank
                        && config.n_classes == 1
                        && rng.gen_range(0..2) == 0
                    {
                        Event::KillMasterMidBatch { class, sends: rng.gen_range(1..=2) }
                    } else {
                        Event::KillMasterMid { class, sends: rng.gen_range(1..=3) }
                    }
                } else {
                    Event::KillMaster { class }
                });
            }
            2 if st.dead_pool > 0 && st.alive_slaves >= 1 && st.kill_age.is_none() => {
                st.dead_pool -= 1;
                st.alive_slaves += 1;
                return Some(Event::Reintegrate);
            }
            3 if st.alive_slaves >= 1 && st.kill_age.is_none() && rng.gen_range(0..3) == 0 => {
                st.alive_slaves += 1;
                return Some(Event::IntegrateFresh);
            }
            4 if st.alive_slaves >= 2 && st.partitions == 0 && st.kill_age.is_none() => {
                st.partitions += 1;
                st.partition_age = 0;
                return Some(Event::Partition {
                    class: rng.gen_range(0..config.n_classes),
                    nth: rng.gen_range(0..st.alive_slaves),
                });
            }
            5 => {
                return Some(if st.spiking {
                    st.spiking = false;
                    Event::LatencyNormal
                } else {
                    st.spiking = true;
                    Event::LatencySpike { micros: [2_000u64, 5_000][rng.gen_range(0..2)] }
                });
            }
            6 if config.n_backends > 0 => {
                return Some(if st.stalled {
                    st.stalled = false;
                    Event::BackendResume
                } else {
                    st.stalled = true;
                    Event::BackendStall
                });
            }
            7 if !st.pressured => {
                st.pressured = true;
                return Some(Event::MemPressure { pages: rng.gen_range(3..=8) });
            }
            _ => continue,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            assert_eq!(for_seed(seed), for_seed(seed), "seed {seed}");
        }
    }

    #[test]
    fn events_round_trip_through_display() {
        for seed in 0..50 {
            for ev in for_seed(seed).events {
                let line = ev.to_string();
                assert_eq!(Event::parse(&line), Ok(ev), "line `{line}`");
            }
        }
    }

    /// The validation-point kill is hand-written-schedule-only (adding
    /// it to the generator would reshuffle every curated corpus seed),
    /// so the generated-seed sweep above never covers it — round-trip
    /// it explicitly.
    #[test]
    fn mid_validation_kill_round_trips_through_display() {
        let ev = Event::KillMasterMidValidation { class: 1 };
        let line = ev.to_string();
        assert_eq!(line, "kill-master-mid-validation class=1");
        assert_eq!(Event::parse(&line), Ok(ev), "line `{line}`");
    }

    #[test]
    fn generator_emits_batched_mid_kill() {
        let found = (0..200).any(|seed| {
            let s = for_seed(seed);
            s.events.iter().any(|e| matches!(e, Event::KillMasterMidBatch { .. }))
        });
        assert!(found, "no seed in 0..200 generates kill-master-mid-batch");
    }

    #[test]
    fn batched_mid_kill_only_targets_single_class_bank_shapes() {
        for seed in 0..200 {
            let s = for_seed(seed);
            if s.events.iter().any(|e| matches!(e, Event::KillMasterMidBatch { .. })) {
                assert_eq!(s.config.workload, Workload::Bank, "seed {seed}");
                assert_eq!(s.config.n_classes, 1, "seed {seed}");
            }
        }
    }

    /// Like the validation-point kill, `surge` is hand-written-only —
    /// round-trip it explicitly since no generated seed covers it.
    #[test]
    fn surge_round_trips_through_display() {
        let ev = Event::Surge { client: 0, ctr: 1, n: 6 };
        let line = ev.to_string();
        assert_eq!(line, "surge client=0 ctr=1 n=6");
        assert_eq!(Event::parse(&line), Ok(ev), "line `{line}`");
    }

    #[test]
    fn generator_emits_mem_pressure() {
        let found = (0..200).any(|seed| {
            let s = for_seed(seed);
            s.events.iter().any(|e| matches!(e, Event::MemPressure { .. }))
        });
        assert!(found, "no seed in 0..200 generates mem-pressure");
    }

    #[test]
    fn mem_pressure_parses_from_its_display_form() {
        let ev = Event::MemPressure { pages: 5 };
        assert_eq!(Event::parse(&ev.to_string()), Ok(ev));
    }

    #[test]
    fn kills_are_detected_within_two_events() {
        for seed in 0..50 {
            let s = for_seed(seed);
            let mut age: Option<usize> = None;
            for ev in &s.events {
                match ev {
                    Event::KillSlave { .. }
                    | Event::KillMaster { .. }
                    | Event::KillMasterMid { .. }
                    | Event::KillMasterMidBatch { .. } => age = Some(0),
                    Event::Detect => age = None,
                    _ => {
                        if let Some(a) = age.as_mut() {
                            *a += 1;
                            assert!(*a <= 3, "seed {seed}: undetected kill lingered");
                        }
                    }
                }
            }
            assert_eq!(age, None, "seed {seed}: schedule ends with an undetected kill");
        }
    }
}
