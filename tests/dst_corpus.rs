//! Fixed-seed corpus for the deterministic fault-schedule explorer.
//!
//! Each seed is one full simulation run: a generated schedule of
//! workload operations and fault events driven against a real cluster
//! on the simulated network, with every consistency oracle checked.
//! The seeds are chosen for coverage — between them they exercise every
//! event kind (master/slave kills, mid-broadcast crashes, partitions
//! with heal+resync, reintegration, fresh-node integration, latency
//! spikes, backend stalls) over both workloads.
//!
//! A failing seed prints its oracle violations; reproduce it verbosely
//! with `cargo xtask dst --seed <N>` and shrink it with the explorer.

use dmv_common::config::ConcurrencyMode;
use dmv_dst::harness::{run_schedule, run_schedule_in_mode, run_schedule_with_gc_mutation};
use dmv_dst::repro::{from_repro, to_repro};
use dmv_dst::schedule::{for_seed, Event, Schedule, ScheduleConfig, Workload};

const MODES: [ConcurrencyMode; 2] = [ConcurrencyMode::TwoPhase, ConcurrencyMode::MvccCow];

/// Every corpus seed runs under both concurrency protocols: the faults,
/// oracles and trace shape are protocol-independent, so the MVCC master
/// must pass exactly the schedules the 2PL master passes.
fn check_seed(seed: u64) {
    let s = for_seed(seed);
    for mode in MODES {
        let r = run_schedule_in_mode(&s, mode);
        assert!(
            r.passed(),
            "seed {seed} under {mode:?} failed {} oracle(s):\n  {}\ntrace:\n{}",
            r.failures.len(),
            r.failures.join("\n  "),
            r.trace_text()
        );
        assert!(r.commits + r.reads > 0, "seed {seed} under {mode:?} exercised no workload");
    }
}

// Bank-workload seeds: exact-prefix/gapless oracles against the model.
// Seed 2 is historical — its schedule caught the migrate-at-version-0
// bug (fresh-integrated nodes served empty scans) and shrank it to a
// single `integrate-fresh` event.
#[test]
fn seed_2_fresh_integration_after_master_kill() {
    check_seed(2);
}

#[test]
fn seed_3_mid_broadcast_crash_with_reintegration() {
    check_seed(3);
}

#[test]
fn seed_9_master_kill_without_backend_faults() {
    check_seed(9);
}

#[test]
fn seed_11_every_fault_kind_in_one_schedule() {
    check_seed(11);
}

#[test]
fn seed_19_mid_broadcast_crash_plus_partitions() {
    check_seed(19);
}

#[test]
fn seed_24_fresh_integration_and_both_kill_kinds() {
    check_seed(24);
}

#[test]
fn seed_34_partition_churn_with_stalled_backends() {
    check_seed(34);
}

// TPC-W-workload seeds: convergence/digest oracles over the full schema.
#[test]
fn seed_4_tpcw_mid_broadcast_crash() {
    assert_eq!(for_seed(4).config.workload, Workload::Tpcw);
    check_seed(4);
}

#[test]
fn seed_5_tpcw_fresh_integration() {
    check_seed(5);
}

#[test]
fn seed_39_tpcw_partition_and_heal() {
    check_seed(39);
}

/// Hand-written schedule for the group-commit fail-over hazard: two
/// concurrent updates coalesce into one `WriteSetBatch` frame and the
/// master dies on the second of two sends — the first slave enqueues
/// the whole batch, the second never sees it. Neither commit was
/// acknowledged, so fail-over must discard the whole batch on every
/// survivor (§4.2 all-or-nothing); the reads before and after the kill
/// pin the surviving state to the model.
fn mid_batch_crash_schedule() -> Schedule {
    let config = ScheduleConfig { n_classes: 1, ..ScheduleConfig::bank() };
    Schedule {
        seed: 777,
        config,
        events: vec![
            Event::Deposit { client: 0, acct: 0, amount: 7 },
            Event::Bump { client: 1, ctr: 0 },
            Event::Read { client: 0 },
            Event::KillMasterMidBatch { class: 0, sends: 2 },
            Event::Detect,
            Event::Read { client: 1 },
            Event::Reintegrate,
            Event::Deposit { client: 0, acct: 1, amount: 3 },
            Event::Bump { client: 1, ctr: 1 },
            Event::Read { client: 0 },
        ],
    }
}

#[test]
fn fixed_mid_batch_crash_is_all_or_nothing() {
    let s = mid_batch_crash_schedule();
    let r = run_schedule(&s);
    assert!(
        r.passed(),
        "mid-batch crash schedule failed {} oracle(s):\n  {}\ntrace:\n{}",
        r.failures.len(),
        r.failures.join("\n  "),
        r.trace_text()
    );
    // The kill must actually have fired mid-broadcast — a silently
    // disarmed trigger would make this schedule test nothing.
    let kill_line = r
        .trace
        .iter()
        .find(|l| l.contains("kill-master-mid-batch"))
        .expect("trace records the mid-batch kill");
    assert!(kill_line.contains("fired=true"), "trigger never fired: {kill_line}");
    assert!(kill_line.contains("abort=NodeFailed"), "commits survived the crash: {kill_line}");
    // Determinism: the crash lands on the same send of the same frame
    // every run.
    let r2 = run_schedule(&s);
    assert_eq!(r.trace_text(), r2.trace_text(), "mid-batch schedule is not deterministic");
}

#[test]
fn mid_batch_schedule_round_trips_through_repro_files() {
    let s = mid_batch_crash_schedule();
    let back = from_repro(&to_repro(&s)).unwrap();
    assert_eq!(back.config, s.config);
    assert_eq!(back.events, s.events, "mid-batch repro round-trip drift");
}

/// Hand-written memory-pressure schedule: a 4-page buffer budget clamps
/// mid-run while clients keep reading (each read pins its snapshot in
/// the epoch manager until that client's next read), updates push the
/// committed vector past the pins, and a slave is killed and
/// reintegrated under the budget. From the `mem-pressure` event on, the
/// harness runs a GC sweep plus the bounded-memory and GC-safety
/// oracles after every event, and the end-of-run drain requires every
/// pending queue to empty once the pins are released.
fn mem_pressure_schedule() -> Schedule {
    Schedule {
        seed: 888,
        config: ScheduleConfig::bank(),
        events: vec![
            Event::Deposit { client: 0, acct: 0, amount: 5 },
            Event::Read { client: 0 },
            Event::MemPressure { pages: 4 },
            Event::Transfer { client: 1, from: 0, to: 1, amount: 2 },
            Event::Bump { client: 0, ctr: 0 },
            Event::Transfer { client: 1, from: 2, to: 3, amount: 1 },
            Event::Read { client: 1 },
            Event::StaleRead { client: 0, back: 2 },
            Event::Deposit { client: 0, acct: 4, amount: 9 },
            Event::Bump { client: 1, ctr: 1 },
            Event::KillSlave { nth: 0 },
            Event::Detect,
            Event::Reintegrate,
            Event::Read { client: 0 },
            Event::Deposit { client: 1, acct: 2, amount: 2 },
            Event::Read { client: 1 },
        ],
    }
}

#[test]
fn fixed_mem_pressure_is_bounded_and_gc_safe() {
    let s = mem_pressure_schedule();
    let r = run_schedule(&s);
    assert!(
        r.passed(),
        "mem-pressure schedule failed {} oracle(s):\n  {}\ntrace:\n{}",
        r.failures.len(),
        r.failures.join("\n  "),
        r.trace_text()
    );
    // Determinism: GC sweeps and evictions must not leak racy state
    // into the trace.
    let r2 = run_schedule(&s);
    assert_eq!(r.trace_text(), r2.trace_text(), "mem-pressure schedule is not deterministic");
}

/// The deliberate-mutation check from the epoch design: arm the
/// `set_ignore_pins_for_test` hook so reclamation ignores pinned
/// readers, and the GC-safety oracle must catch the watermark running
/// past a pinned tag. If this test ever fails, the oracle has lost the
/// power to detect premature reclamation.
#[test]
fn gc_mutation_ignoring_pins_is_caught_by_the_safety_oracle() {
    let s = mem_pressure_schedule();
    let r = run_schedule_with_gc_mutation(&s);
    assert!(!r.passed(), "mutated GC passed every oracle — the GC-safety oracle is toothless");
    assert!(
        r.failures.iter().any(|f| f.contains("GC safety violated")),
        "mutation tripped the wrong oracle(s):\n  {}",
        r.failures.join("\n  ")
    );
}

#[test]
fn mem_pressure_schedule_round_trips_through_repro_files() {
    let s = mem_pressure_schedule();
    let back = from_repro(&to_repro(&s)).unwrap();
    assert_eq!(back.config, s.config);
    assert_eq!(back.events, s.events, "mem-pressure repro round-trip drift");
}

/// Hand-written contention-surge schedule: a burst of updates all
/// hammering one counter row under a small per-transaction retry
/// budget, bracketed by reads that pin the surviving state to the
/// model. The `surge` event's built-in oracle requires that no burst
/// transaction exceeds its retry budget; a second surge after a slave
/// kill checks the same holds across a reconfiguration.
fn surge_schedule() -> Schedule {
    Schedule {
        seed: 999,
        config: ScheduleConfig::bank(),
        events: vec![
            Event::Deposit { client: 0, acct: 0, amount: 5 },
            Event::Read { client: 0 },
            Event::Surge { client: 1, ctr: 0, n: 6 },
            Event::Read { client: 1 },
            Event::Bump { client: 0, ctr: 1 },
            Event::KillSlave { nth: 0 },
            Event::Detect,
            Event::Surge { client: 0, ctr: 0, n: 4 },
            Event::Read { client: 0 },
        ],
    }
}

#[test]
fn fixed_surge_respects_retry_budget_and_is_deterministic() {
    let s = surge_schedule();
    for mode in MODES {
        let r = run_schedule_in_mode(&s, mode);
        assert!(
            r.passed(),
            "surge schedule under {mode:?} failed {} oracle(s):\n  {}\ntrace:\n{}",
            r.failures.len(),
            r.failures.join("\n  "),
            r.trace_text()
        );
        // Every burst update must have committed (driver-serialized, so
        // the budget is never actually consumed — but the oracle runs).
        for (surge, committed) in [("n=6", "committed=6"), ("n=4", "committed=4")] {
            let line = r
                .trace
                .iter()
                .find(|l| l.contains("surge") && l.contains(surge))
                .unwrap_or_else(|| panic!("trace records the {surge} surge"));
            assert!(line.contains(committed), "burst lost an update: {line}");
        }
        // Determinism: the backoff draws must leak no entropy into the
        // trace.
        let r2 = run_schedule_in_mode(&s, mode);
        assert_eq!(r.trace_text(), r2.trace_text(), "surge schedule is not deterministic");
    }
}

#[test]
fn surge_schedule_round_trips_through_repro_files() {
    let s = surge_schedule();
    let back = from_repro(&to_repro(&s)).unwrap();
    assert_eq!(back.config, s.config);
    assert_eq!(back.events, s.events, "surge repro round-trip drift");
}

/// Same seed ⇒ byte-identical trace: the whole point of the harness,
/// and it must hold under *both* concurrency protocols. One bank and
/// one TPC-W schedule, each run twice per mode in-process (the MVCC
/// commit sequencer must leak no CSN or validation-order entropy into
/// the trace).
#[test]
fn repeated_runs_are_byte_identical() {
    for seed in [3u64, 4] {
        let s = for_seed(seed);
        for mode in MODES {
            let r1 = run_schedule_in_mode(&s, mode);
            let r2 = run_schedule_in_mode(&s, mode);
            assert_eq!(
                r1.trace_text(),
                r2.trace_text(),
                "seed {seed} under {mode:?} produced two different traces"
            );
        }
    }
}

/// Hand-written schedule for the validation-point crash: the master
/// dies after commit validation (MVCC install / 2PL pre-commit entry)
/// and before the version bump or any broadcast. The probe must abort
/// `NodeFailed`, the committed watermark must not advance (the reads
/// around the kill pin the surviving state to the model), and fail-over
/// must find nothing to discard.
fn mid_validation_crash_schedule() -> Schedule {
    Schedule {
        seed: 999,
        config: ScheduleConfig::bank(),
        events: vec![
            Event::Deposit { client: 0, acct: 0, amount: 7 },
            Event::Bump { client: 1, ctr: 0 },
            Event::Read { client: 0 },
            Event::KillMasterMidValidation { class: 0 },
            Event::Detect,
            Event::Read { client: 1 },
            Event::Deposit { client: 0, acct: 1, amount: 3 },
            Event::Reintegrate,
            Event::KillMasterMidValidation { class: 1 },
            Event::Detect,
            Event::Bump { client: 1, ctr: 1 },
            Event::Read { client: 0 },
        ],
    }
}

#[test]
fn fixed_mid_validation_crash_commits_nothing() {
    let s = mid_validation_crash_schedule();
    for mode in MODES {
        let r = run_schedule_in_mode(&s, mode);
        assert!(
            r.passed(),
            "mid-validation crash under {mode:?} failed {} oracle(s):\n  {}\ntrace:\n{}",
            r.failures.len(),
            r.failures.join("\n  "),
            r.trace_text()
        );
        let kill_lines: Vec<&String> =
            r.trace.iter().filter(|l| l.contains("kill-master-mid-validation")).collect();
        assert_eq!(kill_lines.len(), 2, "both validation kills must appear in the trace");
        for line in kill_lines {
            assert!(line.contains("fired=true"), "{mode:?}: trigger never fired: {line}");
            assert!(
                line.contains("abort=NodeFailed"),
                "{mode:?}: probe survived the validation-point crash: {line}"
            );
        }
        // Determinism within the mode.
        let r2 = run_schedule_in_mode(&s, mode);
        assert_eq!(
            r.trace_text(),
            r2.trace_text(),
            "mid-validation schedule is not deterministic under {mode:?}"
        );
    }
}

#[test]
fn mid_validation_schedule_round_trips_through_repro_files() {
    let s = mid_validation_crash_schedule();
    let back = from_repro(&to_repro(&s)).unwrap();
    assert_eq!(back.config, s.config);
    assert_eq!(back.events, s.events, "mid-validation repro round-trip drift");
}

/// Hand-written schedule for fail-over after a partition: the master is
/// cut off from one slave, so two deposits complete on the ack time-out
/// and only the other slave holds them. Then the master dies. Promoting
/// the slave that missed them restarts the class from stale pages; the
/// one holding every acknowledged commit must be promoted. The generator
/// never kills a master while a partition is open, so no seed reaches
/// this. Every deposit goes to account 0: the slave left behind keeps
/// its hole (only reintegration repairs one, see DESIGN.md "Membership
/// and reconfiguration"), and the next diff of the same row covers it.
fn partition_then_master_kill_schedule() -> Schedule {
    Schedule {
        seed: 1_111,
        config: ScheduleConfig { n_classes: 1, ..ScheduleConfig::bank() },
        events: vec![
            Event::Deposit { client: 0, acct: 0, amount: 1 },
            Event::Read { client: 0 },
            Event::Partition { class: 0, nth: 0 },
            Event::Deposit { client: 0, acct: 0, amount: 2 },
            Event::Deposit { client: 1, acct: 0, amount: 3 },
            Event::KillMaster { class: 0 },
            Event::Detect,
            Event::Deposit { client: 0, acct: 0, amount: 4 },
            Event::HealAll,
            Event::Read { client: 1 },
            Event::Deposit { client: 1, acct: 0, amount: 5 },
            Event::Read { client: 0 },
        ],
    }
}

#[test]
fn fixed_partition_then_master_kill_promotes_the_slave_with_every_commit() {
    let s = partition_then_master_kill_schedule();
    for mode in MODES {
        let r = run_schedule_in_mode(&s, mode);
        assert!(
            r.passed(),
            "partition-then-master-kill under {mode:?} failed {} oracle(s):\n  {}\ntrace:\n{}",
            r.failures.len(),
            r.failures.join("\n  "),
            r.trace_text()
        );
    }
}

/// Generated schedules survive the repro round-trip, so any failure the
/// explorer persists replays the exact same events.
#[test]
fn corpus_schedules_round_trip_through_repro_files() {
    for seed in [2u64, 3, 4, 5, 9, 11, 19, 24, 34, 39] {
        let s = for_seed(seed);
        let back = from_repro(&to_repro(&s)).unwrap();
        assert_eq!(back.seed, s.seed);
        assert_eq!(back.config, s.config);
        assert_eq!(back.events, s.events, "seed {seed} repro round-trip drift");
    }
}
