//! Model tests for the copy-on-write page MVCC manager (`dmv-memdb`).
//!
//! Run with `RUSTFLAGS="--cfg dmv_check" cargo test -p dmv-check`.
//!
//! The protocol's safety argument is first-committer-wins validation
//! under the sharded commit sequencer: of two committers whose page
//! sets overlap, exactly one installs; disjoint committers never
//! interfere; an updater whose reads straddle a rival's multi-page
//! install fails validation. (The manager keeps no page history and
//! serves no snapshots — versions exist on the slaves.) These tests
//! explore every interleaving (within the preemption bound) against
//! the *real* [`MvccManager`], plus two deliberate-bug twins —
//! validation skipped entirely, and first-committer-wins inverted to
//! last-committer-wins — proving the validation rule is load-bearing,
//! not decorative.

#![cfg(dmv_check)]

use std::sync::Arc;

use dmv_check::{model_result, thread, ModelOptions};
use dmv_common::error::DmvError;
use dmv_common::ids::{PageId, PageSpace, TableId};
use dmv_memdb::mvcc::Install;
use dmv_memdb::MvccManager;
use dmv_pagestore::store::{PageCell, PageStore, Residency};

/// A fresh page of `store`; a spawned thread finds its cell again with
/// [`cell`].
fn page(store: &PageStore) -> PageId {
    store.allocate(TableId(0), PageSpace::Heap).0
}

fn cell(store: &PageStore, id: PageId) -> &PageCell {
    store.get(id).expect("allocated page")
}

/// Read-modify-write of byte 0, retried until the commit validates —
/// the canonical lost-update shape. Returns the number of attempts.
fn bump(m: &MvccManager, id: PageId, cell: &PageCell) -> usize {
    let mut attempts = 0;
    loop {
        attempts += 1;
        let (stamp, mut img) = m.read_latest(id, cell);
        Arc::make_mut(&mut img)[0] += 1;
        match m.commit(&[(id, stamp)], &[Install { id, cell, image: &img }]) {
            Ok(_) => return attempts,
            Err(e) => assert!(
                matches!(e, DmvError::VersionConflict { .. }),
                "only retryable version conflicts may abort an MVCC commit: {e:?}"
            ),
        }
    }
}

/// One read-modify-write with **no** retry; conflicts are surrendered.
fn bump_once(m: &MvccManager, id: PageId, cell: &PageCell) {
    let (stamp, mut img) = m.read_latest(id, cell);
    Arc::make_mut(&mut img)[0] += 1;
    let _ = m.commit(&[(id, stamp)], &[Install { id, cell, image: &img }]);
}

/// Two committers on disjoint pages: in every interleaving both commit
/// on the first attempt — the sharded sequencer gives them nothing to
/// wait on and validation nothing to reject.
#[test]
fn disjoint_writers_both_commit() {
    let report = model_result(ModelOptions::default(), || {
        let m = Arc::new(MvccManager::new());
        let store = Arc::new(PageStore::new(Residency::free()));
        let p1 = page(&store);
        let p2 = page(&store);
        let writer = {
            let (m, store) = (Arc::clone(&m), Arc::clone(&store));
            thread::spawn(move || bump(&m, p2, cell(&store, p2)))
        };
        let a1 = bump(&m, p1, cell(&store, p1));
        let a2 = writer.join().expect("join writer");
        assert_eq!((a1, a2), (1, 1), "disjoint committers must not conflict");
        assert_eq!(cell(&store, p1).latch.read().data()[0], 1);
        assert_eq!(cell(&store, p2).latch.read().data()[0], 1);
    })
    .expect("disjoint commits are conflict-free in every interleaving");
    assert!(report.exhausted, "bounded space should be fully explored");
}

/// Two committers racing a read-modify-write of the same page: in every
/// interleaving exactly one wins each validation round, no update is
/// lost (final value 2), and the loser's abort is a retryable
/// `VersionConflict` — commit-validation atomicity.
#[test]
fn overlapping_writers_exactly_one_wins() {
    let report = model_result(ModelOptions::default(), || {
        let m = Arc::new(MvccManager::new());
        let store = Arc::new(PageStore::new(Residency::free()));
        let p = page(&store);
        let writer = {
            let (m, store) = (Arc::clone(&m), Arc::clone(&store));
            thread::spawn(move || bump(&m, p, cell(&store, p)))
        };
        let c = cell(&store, p);
        bump(&m, p, c);
        writer.join().expect("join writer");
        assert_eq!(c.latch.read().data()[0], 2, "an update was lost");
        assert_eq!(m.stamp_of(p), 2, "exactly two commits must validate");
    })
    .expect("first-committer-wins loses no update in any interleaving");
    assert!(report.exhausted, "bounded space should be fully explored");
}

/// A committer that writes **two** pages racing an updater that reads
/// both and commits a write derived from them: in every interleaving —
/// including reads landing between the committer's two page installs —
/// the updater either fails validation or saw both pages old or both
/// new, never half of one transaction (the heap-row-without-its-index-
/// entry shape). The master keeps no snapshots; this is the one path
/// that can observe a multi-page commit mid-install, and validation
/// under the sequencer is what turns the torn read into an abort.
#[test]
fn multi_page_commit_is_atomic_to_validated_updaters() {
    let report = model_result(ModelOptions::default(), || {
        let m = Arc::new(MvccManager::new());
        let store = Arc::new(PageStore::new(Residency::free()));
        let p1 = page(&store);
        let p2 = page(&store);
        let p3 = page(&store);
        let writer = {
            let (m, store) = (Arc::clone(&m), Arc::clone(&store));
            thread::spawn(move || {
                let (c1, c2) = (cell(&store, p1), cell(&store, p2));
                let (s1, mut i1) = m.read_latest(p1, c1);
                let (s2, mut i2) = m.read_latest(p2, c2);
                Arc::make_mut(&mut i1)[0] = 1;
                Arc::make_mut(&mut i2)[0] = 1;
                m.commit(
                    &[(p1, s1), (p2, s2)],
                    &[
                        Install { id: p1, cell: c1, image: &i1 },
                        Install { id: p2, cell: c2, image: &i2 },
                    ],
                )
                .expect("the updater writes neither page");
            })
        };
        let (c1, c2, c3) = (cell(&store, p1), cell(&store, p2), cell(&store, p3));
        let (s1, i1) = m.read_latest(p1, c1);
        let (s2, i2) = m.read_latest(p2, c2);
        let (s3, mut i3) = m.read_latest(p3, c3);
        Arc::make_mut(&mut i3)[0] = 10 * i1[0] + i2[0];
        let committed = m
            .commit(&[(p1, s1), (p2, s2), (p3, s3)], &[Install { id: p3, cell: c3, image: &i3 }])
            .is_ok();
        writer.join().expect("join writer");
        if committed {
            assert_eq!(i1[0], i2[0], "an updater that saw half of a two-page commit validated");
            assert_eq!(c3.latch.read().data()[0], 11 * i1[0]);
        } else {
            assert_eq!(c3.latch.read().data()[0], 0, "a failed validation installed anyway");
        }
    })
    .expect("validation never passes a torn read of a two-page commit");
    assert!(report.exhausted, "bounded space should be fully explored");
}

/// Deliberate mutation 1: validation skipped entirely. The same racing
/// read-modify-write now loses an update in some interleaving — the
/// checker must find it. Proves `overlapping_writers_exactly_one_wins`
/// is testing the validation rule, not an accident of scheduling.
#[test]
fn skipped_validation_mutation_caught() {
    let failure = model_result(ModelOptions::default(), || {
        let m = Arc::new(MvccManager::new());
        m.set_skip_validation_for_test(true);
        let store = Arc::new(PageStore::new(Residency::free()));
        let p = page(&store);
        let writer = {
            let (m, store) = (Arc::clone(&m), Arc::clone(&store));
            thread::spawn(move || bump_once(&m, p, cell(&store, p)))
        };
        let c = cell(&store, p);
        bump_once(&m, p, c);
        writer.join().expect("join writer");
        assert_eq!(c.latch.read().data()[0], 2, "an update was lost");
    })
    .expect_err("skipping validation must lose an update in some interleaving");
    assert!(failure.message.contains("update was lost"), "got: {}", failure.message);
}

/// Deliberate mutation 2: first-committer-wins inverted — a committer
/// whose read stamps are stale installs anyway instead of aborting.
/// The stale install clobbers the winner and the checker catches the
/// lost update.
#[test]
fn last_committer_wins_mutation_caught() {
    let failure = model_result(ModelOptions::default(), || {
        let m = Arc::new(MvccManager::new());
        m.set_last_committer_wins_for_test(true);
        let store = Arc::new(PageStore::new(Residency::free()));
        let p = page(&store);
        let writer = {
            let (m, store) = (Arc::clone(&m), Arc::clone(&store));
            thread::spawn(move || bump_once(&m, p, cell(&store, p)))
        };
        let c = cell(&store, p);
        bump_once(&m, p, c);
        writer.join().expect("join writer");
        assert_eq!(c.latch.read().data()[0], 2, "an update was lost");
    })
    .expect_err("last-committer-wins must lose an update in some interleaving");
    assert!(failure.message.contains("update was lost"), "got: {}", failure.message);
}
