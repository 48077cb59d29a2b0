//! Model tests for the real DMV hot-path primitives, now built on the
//! `dmv_check::sync` shims.
//!
//! Run with `RUSTFLAGS="--cfg dmv_check" cargo test -p dmv-check`.
//!
//! Each test explores every interleaving (within the preemption bound)
//! of a small scenario against the *actual* production types —
//! `AtomicVersionVector`, `PendingApplier`, `Throttle` — not copies.

#![cfg(dmv_check)]

use std::sync::Arc;
use std::time::Duration;

use dmv_check::sync::atomic::{AtomicU64, Ordering};
use dmv_check::sync::Mutex;
use dmv_check::{model_result, thread, ModelOptions};
use dmv_common::clock::{wall_deadline, SimClock, TimeScale};
use dmv_common::ids::{NodeId, TableId};
use dmv_common::throttle::Throttle;
use dmv_common::version::{AtomicVersionVector, VersionVector};
use dmv_core::{AckTracker, PendingApplier};
use dmv_pagestore::{PageStore, Residency};

fn vv(entries: &[u64]) -> VersionVector {
    VersionVector::from_entries(entries.to_vec())
}

/// `AtomicVersionVector::snapshot` must be linearizable. A writer merges
/// the totally-ordered chain `[1,1]`, `[2,2]`; every instantaneous state
/// satisfies `s0 >= s1 && s0 - s1 <= 1` (entry 0 advances first within
/// one merge). A *torn* snapshot such as `[0,1]` — entry 0 read before a
/// merge, entry 1 after — inverts that order and is a vector no commit
/// ever produced. Reverting the double-collect loop in `snapshot` to a
/// single collect makes this test fail.
#[test]
fn snapshot_is_linearizable_under_chain_merge() {
    let report = model_result(ModelOptions::default(), || {
        let av = Arc::new(AtomicVersionVector::new(2));
        let writer = {
            let av = Arc::clone(&av);
            thread::spawn(move || {
                av.merge(&vv(&[1, 1]));
                av.merge(&vv(&[2, 2]));
            })
        };
        let s = av.snapshot();
        let (s0, s1) = (s.entries()[0], s.entries()[1]);
        assert!(s0 >= s1 && s0 - s1 <= 1, "torn snapshot: {s}");
        writer.join().expect("join writer");
    })
    .expect("snapshot must be linearizable");
    assert!(report.exhausted, "bounded space should be fully explored");
}

/// Permanent record of the PR-1 bug: the naive single-collect snapshot
/// (reimplemented here over the same shimmed atomics) IS torn, and the
/// checker finds the interleaving. If the checker ever loses the power
/// to catch this class of bug, this test fails.
#[test]
fn single_collect_snapshot_is_caught_as_torn() {
    let failure = model_result(ModelOptions::default(), || {
        let av: Arc<[AtomicU64; 2]> = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let writer = {
            let av = Arc::clone(&av);
            thread::spawn(move || {
                // One chain merge [1,1], entry 0 first — exactly what
                // AtomicVersionVector::merge does.
                av[0].fetch_max(1, Ordering::SeqCst);
                av[1].fetch_max(1, Ordering::SeqCst);
            })
        };
        // BUG (deliberate): single collect, no agreement check.
        let s0 = av[0].load(Ordering::SeqCst);
        let s1 = av[1].load(Ordering::SeqCst);
        assert!(s0 >= s1, "torn snapshot: [{s0},{s1}]");
        writer.join().expect("join writer");
    })
    .expect_err("single-collect snapshot must be caught");
    assert!(failure.message.contains("torn snapshot"), "got: {}", failure.message);
}

/// The commit hand-off chain (replica.rs `execute_update_with`): holding
/// `commit_seq` across version-bump *and* broadcast-channel acquisition
/// guarantees write-sets enter the channel in version order (FIFO).
#[test]
fn commit_handoff_is_fifo_version_ordered() {
    let report = model_result(ModelOptions::default(), || {
        let seq = Arc::new(Mutex::new(()));
        let dbv = Arc::new(Mutex::new(VersionVector::new(1)));
        let bcast = Arc::new(Mutex::new(Vec::<VersionVector>::new()));
        let committer = |seq: Arc<Mutex<()>>,
                         dbv: Arc<Mutex<VersionVector>>,
                         bcast: Arc<Mutex<Vec<VersionVector>>>| {
            move || {
                // Same shape as replica.rs: seq -> dbversion (bump,
                // clone, drop) -> bcast, send, then release seq before
                // the channel lock.
                let seq_guard = seq.lock();
                let tag = {
                    let mut dbv = dbv.lock();
                    dbv.bump(TableId(0));
                    dbv.clone()
                };
                let bcast_guard = bcast.lock();
                drop(seq_guard);
                let mut log = bcast_guard;
                log.push(tag);
            }
        };
        let t1 = thread::spawn(committer(Arc::clone(&seq), Arc::clone(&dbv), Arc::clone(&bcast)));
        committer(Arc::clone(&seq), Arc::clone(&dbv), Arc::clone(&bcast))();
        t1.join().expect("join committer");
        let log = bcast.lock();
        assert_eq!(log.len(), 2);
        assert!(
            log[1].strictly_dominates(&log[0]),
            "broadcast order inverted: {} then {}",
            log[0],
            log[1]
        );
    })
    .expect("commit hand-off is FIFO");
    assert!(report.exhausted);
}

/// Companion: WITHOUT the hand-off (dropping `commit_seq` before taking
/// the broadcast lock) version order inverts, and the checker proves the
/// lock chain is load-bearing by finding the inversion.
#[test]
fn commit_without_handoff_inverts_order() {
    let failure = model_result(ModelOptions::default(), || {
        let seq = Arc::new(Mutex::new(()));
        let dbv = Arc::new(Mutex::new(VersionVector::new(1)));
        let bcast = Arc::new(Mutex::new(Vec::<VersionVector>::new()));
        let committer = |seq: Arc<Mutex<()>>,
                         dbv: Arc<Mutex<VersionVector>>,
                         bcast: Arc<Mutex<Vec<VersionVector>>>| {
            move || {
                let seq_guard = seq.lock();
                let tag = {
                    let mut dbv = dbv.lock();
                    dbv.bump(TableId(0));
                    dbv.clone()
                };
                // BUG (deliberate): release the commit lock before
                // entering the broadcast channel.
                drop(seq_guard);
                bcast.lock().push(tag);
            }
        };
        let t1 = thread::spawn(committer(Arc::clone(&seq), Arc::clone(&dbv), Arc::clone(&bcast)));
        committer(Arc::clone(&seq), Arc::clone(&dbv), Arc::clone(&bcast))();
        t1.join().expect("join committer");
        let log = bcast.lock();
        assert!(
            log[1].strictly_dominates(&log[0]),
            "broadcast order inverted: {} then {}",
            log[0],
            log[1]
        );
    })
    .expect_err("missing hand-off must be caught");
    assert!(failure.message.contains("inverted"), "got: {}", failure.message);
}

/// The applier's waiter protocol (`wait_received_for` vs
/// `notify_waiters`) must not lose wakeups: a reader that increments
/// `waiters` and re-checks under `wait_lock` always sees either the
/// version advance or the notify. A lost wakeup would park the reader
/// forever — reported by the checker as a deadlock.
#[test]
fn applier_wait_received_has_no_lost_wakeup() {
    let report = model_result(ModelOptions { preemptions: 2, ..Default::default() }, || {
        let store = Arc::new(PageStore::new(Residency::free()));
        let applier = Arc::new(PendingApplier::new(store, 1, Duration::from_secs(5)));
        let reader = {
            let applier = Arc::clone(&applier);
            thread::spawn(move || {
                applier.wait_received(&vv(&[1])).expect("version arrives");
            })
        };
        applier.advance_received(&vv(&[1]));
        reader.join().expect("join reader");
    })
    .expect("waiter protocol loses no wakeups");
    assert!(report.exhausted);
}

/// Two concurrent waiters, one advance covering both tags: `notify_all`
/// must wake both (a `notify_one` here would strand one waiter).
#[test]
fn applier_advance_wakes_all_waiters() {
    let report = model_result(ModelOptions { preemptions: 1, ..Default::default() }, || {
        let store = Arc::new(PageStore::new(Residency::free()));
        let applier = Arc::new(PendingApplier::new(store, 1, Duration::from_secs(5)));
        let spawn_reader = |applier: &Arc<PendingApplier>| {
            let applier = Arc::clone(applier);
            thread::spawn(move || {
                applier.wait_received(&vv(&[1])).expect("version arrives");
            })
        };
        let r1 = spawn_reader(&applier);
        let r2 = spawn_reader(&applier);
        applier.advance_received(&vv(&[1]));
        r1.join().expect("join reader 1");
        r2.join().expect("join reader 2");
    })
    .expect("advance wakes every waiter");
    assert!(report.exhausted);
}

/// The master's cumulative-ack watermark protocol (`AckTracker::wait`
/// vs `record` and `acked_by_all`) must not lose wakeups: a committer
/// that registers in `waiters` and re-checks its predicate under
/// `wait_lock` always sees either the watermark advance or the notify. A lost wakeup would park
/// the commit for its full ack timeout on every coalesced batch —
/// exactly the stall the group-commit path exists to remove.
#[test]
fn ack_watermark_wait_has_no_lost_wakeup() {
    let report = model_result(ModelOptions { preemptions: 2, ..Default::default() }, || {
        let tracker = Arc::new(AckTracker::new());
        let committer = {
            let tracker = Arc::clone(&tracker);
            thread::spawn(move || {
                let ok = tracker.wait(
                    wall_deadline(Duration::from_secs(5)),
                    Duration::from_secs(5),
                    || tracker.watermark(NodeId(1)) >= 1,
                );
                assert!(ok, "ack wait missed a recorded watermark");
            })
        };
        tracker.record(NodeId(1), 1);
        tracker.acked_by_all(1);
        committer.join().expect("join committer");
    })
    .expect("ack watermark protocol loses no wakeups");
    assert!(report.exhausted);
}

/// A departing peer must wake parked committers (the ack-leak fix):
/// `remove` runs concurrently with a committer waiting on that peer's
/// watermark, and the committer's "is the peer still a target?"
/// re-check must always observe the removal.
#[test]
fn ack_peer_removal_wakes_parked_committers() {
    let report = model_result(ModelOptions { preemptions: 2, ..Default::default() }, || {
        let tracker = Arc::new(AckTracker::new());
        tracker.set_floor(NodeId(1), 0);
        let committer = {
            let tracker = Arc::clone(&tracker);
            thread::spawn(move || {
                let ok = tracker.wait(
                    wall_deadline(Duration::from_secs(5)),
                    Duration::from_secs(5),
                    || tracker.watermark(NodeId(1)) >= 1 || !tracker.has_peer(NodeId(1)),
                );
                assert!(ok, "ack wait missed the peer removal");
            })
        };
        tracker.remove(NodeId(1));
        committer.join().expect("join committer");
    })
    .expect("peer removal wakes every parked committer");
    assert!(report.exhausted);
}

/// The group-commit coalescer (replica.rs `flush_batches`): the commit
/// seq is assigned and the write-set enqueued under the same
/// `commit_seq` guard, and the single flusher drains batch-by-batch
/// until the queue is empty. Every write-set is flushed exactly once,
/// in commit-seq order, regardless of which committer becomes the
/// flusher.
#[test]
fn batch_flush_is_fifo_and_lossless() {
    struct Coalescer {
        seq: Mutex<u64>,
        batch: Mutex<(Vec<u64>, bool)>, // (queue, in_flight)
        log: Mutex<Vec<u64>>,
    }
    let commit = |c: &Arc<Coalescer>| {
        // Same shape as replica.rs: seq assignment and the queue push
        // happen under the commit_seq guard; the take-over check rides
        // along, and the flush loop runs after the guard drops.
        let take_over = {
            let mut seq = c.seq.lock();
            *seq += 1;
            let my = *seq;
            let mut b = c.batch.lock();
            b.0.push(my);
            let t = !b.1;
            if t {
                b.1 = true;
            }
            t
        };
        if take_over {
            loop {
                let frame = {
                    let mut b = c.batch.lock();
                    if b.0.is_empty() {
                        b.1 = false;
                        break;
                    }
                    std::mem::take(&mut b.0)
                };
                c.log.lock().extend(frame);
            }
        }
    };
    let report = model_result(ModelOptions::default(), move || {
        let c = Arc::new(Coalescer {
            seq: Mutex::new(0),
            batch: Mutex::new((Vec::new(), false)),
            log: Mutex::new(Vec::new()),
        });
        let t1 = {
            let c = Arc::clone(&c);
            thread::spawn(move || commit(&c))
        };
        commit(&c);
        t1.join().expect("join committer");
        let log = c.log.lock();
        assert_eq!(log.len(), 2, "a write-set was never flushed: {:?}", &*log);
        assert!(log.windows(2).all(|w| w[0] < w[1]), "flush order inverted: {:?}", &*log);
    })
    .expect("single-flusher drain is FIFO and lossless");
    assert!(report.exhausted);
}

/// Companion: WITHOUT the final re-check (the flusher clears
/// `in_flight` after one drain instead of looping until the queue is
/// empty), a write-set pushed during the drain sees `in_flight == true`,
/// declines take-over, and is never broadcast. The checker proves the
/// loop-until-empty invariant is load-bearing by finding the lost
/// write-set.
#[test]
fn batch_flush_without_requeue_check_loses_writes() {
    let failure = model_result(ModelOptions::default(), || {
        let seq = Arc::new(Mutex::new(0u64));
        let batch = Arc::new(Mutex::new((Vec::<u64>::new(), false)));
        let log = Arc::new(Mutex::new(Vec::<u64>::new()));
        let commit = |seq: &Arc<Mutex<u64>>,
                      batch: &Arc<Mutex<(Vec<u64>, bool)>>,
                      log: &Arc<Mutex<Vec<u64>>>| {
            let take_over = {
                let mut seq = seq.lock();
                *seq += 1;
                let my = *seq;
                let mut b = batch.lock();
                b.0.push(my);
                let t = !b.1;
                if t {
                    b.1 = true;
                }
                t
            };
            if take_over {
                // BUG (deliberate): one drain, then surrender the
                // flusher role without rechecking the queue.
                let frame = std::mem::take(&mut batch.lock().0);
                log.lock().extend(frame);
                batch.lock().1 = false;
            }
        };
        let t1 = {
            let (seq, batch, log) = (Arc::clone(&seq), Arc::clone(&batch), Arc::clone(&log));
            thread::spawn(move || commit(&seq, &batch, &log))
        };
        commit(&seq, &batch, &log);
        t1.join().expect("join committer");
        let log = log.lock();
        assert_eq!(log.len(), 2, "a write-set was never flushed: {:?}", &*log);
    })
    .expect_err("the lost write-set must be caught");
    assert!(failure.message.contains("never flushed"), "got: {}", failure.message);
}

/// Throttle conservation: with one permit and competing chargers, every
/// charge completes (no lost wakeup on the permit condvar) and the
/// permit survives (a follow-up charge also completes). Over-issue is
/// impossible by construction here — `permits: usize` would underflow
/// and panic under the checker if the wait loop ever admitted a charger
/// without a permit.
#[test]
fn throttle_single_permit_is_conserved() {
    let report = model_result(ModelOptions { preemptions: 1, ..Default::default() }, || {
        // Scale 1e-9: modeled charge durations scale below 1us and the
        // clock skips the sleep entirely — no wall-clock in the model.
        let clock = SimClock::new(TimeScale::new(1e-9));
        let throttle = Throttle::new(clock, 1);
        let t1 = {
            let throttle = throttle.clone();
            thread::spawn(move || throttle.charge(Duration::from_secs(1)))
        };
        let t2 = {
            let throttle = throttle.clone();
            thread::spawn(move || throttle.charge(Duration::from_secs(1)))
        };
        t1.join().expect("join charger 1");
        t2.join().expect("join charger 2");
        // Permit conservation: a final charge still completes.
        throttle.charge(Duration::from_secs(1));
    })
    .expect("throttle conserves permits and loses no wakeups");
    assert!(report.exhausted);
}
