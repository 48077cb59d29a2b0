//! Model tests for the per-page 2PL lock manager (`dmv-memdb`).
//!
//! Run with `RUSTFLAGS="--cfg dmv_check" cargo test -p dmv-check`.
//!
//! A 2PL wait ends only when the lock is granted or when the request
//! would close a cycle, so a lost wake-up hangs instead of timing out —
//! and the checker reports a hang as a deadlock with its schedule. These
//! tests explore every interleaving (within the preemption bound) of the
//! *real* [`LockManager`]: a release racing a waiter's enqueue, the two
//! shapes of a two-transaction deadlock, the arrival order an S request
//! keeps behind a queued X, and a deliberate-bug twin with the cycle
//! check switched off, which the checker must catch.

#![cfg(dmv_check)]

use std::sync::Arc;

use dmv_check::sync::Mutex;
use dmv_check::{model_result, thread, ModelOptions};
use dmv_common::error::DmvError;
use dmv_common::ids::{NodeId, PageId, TableId, TxnId};
use dmv_memdb::{LockManager, LockMode};

const S: LockMode = LockMode::Shared;
const X: LockMode = LockMode::Exclusive;

fn page(n: u32) -> PageId {
    PageId::heap(TableId(0), n)
}

fn txn(n: u64) -> TxnId {
    TxnId::new(NodeId(0), n)
}

/// Asks for `mode` on `page`; on `Deadlock` aborts (releases `holds`)
/// and returns false, else releases `holds` and `page` and returns true.
fn ask_then_end(m: &LockManager, t: TxnId, page: PageId, mode: LockMode, holds: &[PageId]) -> bool {
    match m.acquire(t, page, mode) {
        Ok(()) => {
            m.release_all(t, holds.iter().copied().chain([page]));
            true
        }
        Err(e) => {
            assert_eq!(e, DmvError::Deadlock(t), "a wait ends granted or in a deadlock");
            m.release_all(t, holds.iter().copied());
            false
        }
    }
}

/// A holder releasing while a waiter enqueues: in every interleaving the
/// waiter is granted (no lost wake-up) and the table ends empty enough
/// that the lock can be taken again at once.
#[test]
fn a_release_racing_an_enqueue_never_loses_the_wake_up() {
    let report = model_result(ModelOptions::default(), || {
        let m = Arc::new(LockManager::default());
        m.acquire(txn(1), page(0), X).expect("a free page");
        let waiter = {
            let m = Arc::clone(&m);
            thread::spawn(move || ask_then_end(&m, txn(2), page(0), X, &[]))
        };
        m.release_all(txn(1), [page(0)]);
        assert!(waiter.join().expect("join waiter"), "the waiter is granted");
        m.acquire(txn(3), page(0), X).expect("the page is free again");
    })
    .expect("no interleaving loses a wake-up");
    assert!(report.exhausted, "bounded space should be fully explored");
}

/// Two S holders of one page both upgrade to X: in every interleaving
/// exactly one gets `Deadlock` and the other is granted.
#[test]
fn two_upgrading_readers_deadlock_and_exactly_one_is_granted() {
    let report = model_result(ModelOptions::default(), || {
        let m = Arc::new(LockManager::default());
        m.acquire(txn(1), page(0), S).expect("shared");
        m.acquire(txn(2), page(0), S).expect("shared");
        let other = {
            let m = Arc::clone(&m);
            thread::spawn(move || ask_then_end(&m, txn(2), page(0), X, &[page(0)]))
        };
        let mine = ask_then_end(&m, txn(1), page(0), X, &[page(0)]);
        let theirs = other.join().expect("join upgrader");
        assert!(mine != theirs, "exactly one upgrade is granted: {mine} {theirs}");
    })
    .expect("an upgrade deadlock is found in every interleaving");
    assert!(report.exhausted, "bounded space should be fully explored");
}

/// Two transactions that each hold X on one page ask for the other's:
/// in every interleaving exactly one gets `Deadlock` and the other is
/// granted.
#[test]
fn two_pages_taken_in_opposite_orders_deadlock_and_exactly_one_is_granted() {
    let report = model_result(ModelOptions::default(), || {
        let m = Arc::new(LockManager::default());
        m.acquire(txn(1), page(0), X).expect("a free page");
        m.acquire(txn(2), page(1), X).expect("a free page");
        let other = {
            let m = Arc::clone(&m);
            thread::spawn(move || ask_then_end(&m, txn(2), page(0), X, &[page(1)]))
        };
        let mine = ask_then_end(&m, txn(1), page(1), X, &[page(0)]);
        let theirs = other.join().expect("join rival");
        assert!(mine != theirs, "exactly one is granted: {mine} {theirs}");
    })
    .expect("a two-page deadlock is found in every interleaving");
    assert!(report.exhausted, "bounded space should be fully explored");
}

/// An X request queued behind an S holder is granted before an S
/// request that arrives after it, though that S is compatible with the
/// holder. The test learns that the X request is queued from the lock
/// manager itself: the X requester (txn 2) also holds page 1 X, so the
/// S holder (txn 1) asking for page 1 gets `Deadlock` at once exactly
/// when txn 2 already waits for it. Only then does the S request of txn
/// 3 arrive; otherwise txn 2 is the victim and there is nothing to check.
#[test]
fn a_queued_exclusive_is_granted_before_a_later_shared() {
    let report = model_result(ModelOptions::default(), || {
        let m = Arc::new(LockManager::default());
        let granted = Arc::new(Mutex::new(Vec::new()));
        m.acquire(txn(1), page(0), S).expect("shared");
        m.acquire(txn(2), page(1), X).expect("a free page");
        let ask = |t: u64, mode: LockMode, mut holds: Vec<PageId>| {
            let (m, granted) = (Arc::clone(&m), Arc::clone(&granted));
            thread::spawn(move || {
                let ok = m.acquire(txn(t), page(0), mode).is_ok();
                if ok {
                    granted.lock().push(t);
                    holds.push(page(0));
                }
                m.release_all(txn(t), holds);
                ok
            })
        };
        let writer = ask(2, X, vec![page(1)]);
        match m.acquire(txn(1), page(1), S) {
            Err(_) => {
                let reader = ask(3, S, Vec::new());
                m.release_all(txn(1), [page(0)]);
                assert!(writer.join().expect("join writer"));
                assert!(reader.join().expect("join reader"));
                assert_eq!(*granted.lock(), [2, 3], "the later S passed the queued X");
            }
            Ok(()) => {
                assert!(!writer.join().expect("join writer"), "txn 2 was the victim");
                m.release_all(txn(1), [page(0), page(1)]);
            }
        }
    })
    .expect("an S request never passes a queued X");
    assert!(report.exhausted, "bounded space should be fully explored");
}

/// Bug twin: with the cycle check switched off, two upgrading readers
/// wait for each other for ever, and the checker reports the hang.
#[test]
fn without_the_cycle_check_an_upgrade_deadlock_hangs_and_is_caught() {
    let result = model_result(ModelOptions::default(), || {
        let m = Arc::new(LockManager::default());
        m.set_skip_cycle_check_for_test(true);
        m.acquire(txn(1), page(0), S).expect("shared");
        m.acquire(txn(2), page(0), S).expect("shared");
        let other = {
            let m = Arc::clone(&m);
            thread::spawn(move || ask_then_end(&m, txn(2), page(0), X, &[page(0)]))
        };
        ask_then_end(&m, txn(1), page(0), X, &[page(0)]);
        other.join().expect("join upgrader");
    });
    let failure = result.expect_err("the checker must catch the hang");
    assert!(failure.message.contains("deadlock"), "unexpected failure: {}", failure.message);
}
