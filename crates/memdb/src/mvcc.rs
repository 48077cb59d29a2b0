//! The install every update transaction commits through, in both
//! concurrency modes, and the first-committer-wins validation that is
//! how `ConcurrencyMode::MvccCow` finds conflicts.
//!
//! Each update transaction copies the committed image of every page it
//! touches into private buffers ([`crate::Txn`] keeps the base and the
//! copy-on-write working copy), mutates only the copies, and commits
//! through this manager. Under `MvccCow` writers take no page locks and
//! validation is what orders them; under `TwoPhase` the page locks a
//! writer holds from first touch to commit have already ordered it, so
//! validation passes by construction. Either way the commit is:
//!
//! 1. the committer locks the **sharded commit sequencer** — one mutex
//!    per page-hash shard, acquired in ascending shard order, covering
//!    every page the transaction *read or wrote* — so transactions with
//!    disjoint page sets validate and install fully in parallel;
//! 2. **first-committer-wins validation**: every page's current commit
//!    stamp must equal the stamp observed when the transaction first
//!    read it; any mismatch aborts the committer with a retryable
//!    [`DmvError::VersionConflict`] (the earlier committer already won);
//! 3. **install**: a fresh commit stamp is drawn from the global
//!    counter and, per written page, the private copy overwrites the
//!    page's committed image and the stamp becomes the page's stamp,
//!    under one hold of the page's shard lock.
//!
//! The master keeps **no page history**: one current image and one
//! commit stamp per page. "Multiversion" means the slaves, where the
//! replication layer's applier creates the version a tagged reader asks
//! for (paper §2.2); every read-only transaction of a running cluster
//! is tagged and routed there. What guards a multi-page commit on the
//! master is validation: an updater that read one page before a rival's
//! install and another after it holds a stale stamp and aborts. An
//! untagged local read ([`crate::TxnMode::ReadLocal`]) is a latched
//! read of each page's committed image with no cross-page snapshot —
//! the stand-alone, quiescent contract it has in both modes.

use dmv_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use dmv_check::sync::{Mutex, MutexGuard};
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::PageId;
use dmv_pagestore::store::PageCell;
use std::collections::HashMap;

/// Number of sequencer/page-state shards. Power of two so the
/// Fibonacci hash can use a shift.
pub const MVCC_SHARDS: usize = 16;

/// The page read-set of a transaction at validation time: page id plus
/// the commit stamp observed when the transaction first read it.
pub type ReadStamp = (PageId, u64);

/// A page install request: the page, its cell and the new image.
pub struct Install<'a> {
    /// Page being installed.
    pub id: PageId,
    /// Its cell in the page store.
    pub cell: &'a PageCell,
    /// The committer's private copy-on-write image.
    pub image: &'a [u8],
}

/// Commit sequencer and page stamps shared by all update transactions
/// of one [`crate::MemDb`].
pub struct MvccManager {
    /// Last assigned commit stamp.
    csn: AtomicU64,
    /// Sharded commit sequencer: a committer holds the sequencer shard
    /// of every page it read or wrote (ascending shard order) across
    /// validation and install, so overlapping committers serialize and
    /// disjoint ones run in parallel.
    seq: [Mutex<()>; MVCC_SHARDS],
    /// Commit stamp of each page's committed image (absent: never
    /// installed, stamp `0`). Taken one shard at a time, under the
    /// sequencer on the commit path and bare on read paths.
    pages: [Mutex<HashMap<PageId, u64>>; MVCC_SHARDS],
    /// Test hook: skip commit validation entirely.
    skip_validation: AtomicBool,
    /// Test hook: a conflicting committer overwrites instead of aborting.
    last_committer_wins: AtomicBool,
}

impl Default for MvccManager {
    fn default() -> Self {
        Self::new()
    }
}

impl MvccManager {
    /// Creates an empty manager (no committed stamps).
    pub fn new() -> Self {
        let m = MvccManager {
            csn: AtomicU64::new(0),
            seq: std::array::from_fn(|_| Mutex::new(())),
            pages: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            skip_validation: AtomicBool::new(false),
            last_committer_wins: AtomicBool::new(false),
        };
        for s in &m.seq {
            dmv_check::race::label(s, "mvcc_seq");
        }
        for s in &m.pages {
            dmv_check::race::label(s, "mvcc_pages");
        }
        m
    }

    /// Reads the committed image of `id` and the stamp it was committed
    /// at, copying the bytes out under the page's shard lock so the
    /// stamp and the image are consistent.
    pub fn read_latest(&self, id: PageId, cell: &PageCell) -> (u64, Vec<u8>) {
        let st = self.pages[id.shard(MVCC_SHARDS)].lock();
        let stamp = st.get(&id).copied().unwrap_or(0);
        // The latch is a real lock even under the model checker: its
        // guard must die before the shard unlock, a scheduling point.
        let image = cell.latch.read().data().to_vec();
        drop(st);
        (stamp, image)
    }

    /// The current commit stamp of `id` (`0` if never installed).
    pub fn stamp_of(&self, id: PageId) -> u64 {
        self.pages[id.shard(MVCC_SHARDS)].lock().get(&id).copied().unwrap_or(0)
    }

    /// Validates and installs one transaction's writes: first-committer-
    /// wins over the read set, then stamp + cell overwrite per written
    /// page, all under the sequencer shards covering the transaction's
    /// page set. Returns the new commit stamp.
    ///
    /// # Errors
    ///
    /// [`DmvError::VersionConflict`] naming the first invalidated page if
    /// any read page was committed past the observed stamp (the
    /// transaction lost first-committer-wins and must retry).
    pub fn commit(&self, reads: &[ReadStamp], writes: &[Install<'_>]) -> DmvResult<u64> {
        let _guards = self.lock_sequencer(reads.iter().map(|(id, _)| *id));
        if !self.skip_validation.load(Ordering::Acquire) {
            for &(id, stamp) in reads {
                let found = self.stamp_of(id);
                if found != stamp && !self.last_committer_wins.load(Ordering::Acquire) {
                    return Err(DmvError::VersionConflict { page: id, wanted: stamp, found });
                }
            }
        }
        let stamp = self.csn.fetch_add(1, Ordering::AcqRel) + 1;
        for w in writes {
            let mut st = self.pages[w.id.shard(MVCC_SHARDS)].lock();
            // The overwrite and the stamp happen under one hold of the
            // shard lock, which `read_latest` takes too: a rival's base
            // is never a new image under an old stamp.
            w.cell.latch.write().data_mut().copy_from_slice(w.image);
            st.insert(w.id, stamp);
            // Dirty under the shard lock, atomically with the stamp, so a
            // pipelined rival's [`MvccManager::clear_dirty_if_current`]
            // and this set can't interleave the wrong way round.
            w.cell.set_dirty(true);
        }
        Ok(stamp)
    }

    /// Clears `cell`'s dirty flag only if `stamp` is still the page's
    /// newest install, under the page's shard lock. With pipelined
    /// committers of the same page, an earlier committer's post-ack
    /// bookkeeping must not un-dirty a later install that has not been
    /// checkpointed yet.
    pub fn clear_dirty_if_current(&self, id: PageId, cell: &PageCell, stamp: u64) {
        let st = self.pages[id.shard(MVCC_SHARDS)].lock();
        if st.get(&id).copied().unwrap_or(0) == stamp {
            cell.set_dirty(false);
        }
    }

    /// Locks the sequencer shards covering `ids` in ascending shard
    /// order (sorted acquisition keeps the shard mutexes deadlock-free;
    /// both the static lock-order lint and the `dmv_race` detector see
    /// only same-rank `mvcc_seq` → `mvcc_seq` nesting).
    fn lock_sequencer(&self, ids: impl Iterator<Item = PageId>) -> Vec<MutexGuard<'_, ()>> {
        let mut shards: Vec<usize> = ids.map(|id| id.shard(MVCC_SHARDS)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards.into_iter().map(|s| self.seq[s].lock()).collect()
    }

    /// Test hook: disable commit validation entirely. A deliberate
    /// lost-update bug — the dmv-check model suite must catch it.
    pub fn set_skip_validation_for_test(&self, on: bool) {
        self.skip_validation.store(on, Ordering::Release);
    }

    /// Test hook: invert first-committer-wins so a conflicting
    /// committer overwrites instead of aborting. The model suite must
    /// catch this too.
    pub fn set_last_committer_wins_for_test(&self, on: bool) {
        self.last_committer_wins.store(on, Ordering::Release);
    }
}

impl std::fmt::Debug for MvccManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvccManager").field("csn", &self.csn.load(Ordering::Acquire)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::ids::{PageSpace, TableId};
    use dmv_pagestore::store::{PageStore, Residency};
    use std::sync::Arc;

    fn store() -> Arc<PageStore> {
        Arc::new(PageStore::new(Residency::free()))
    }

    fn poke(m: &MvccManager, id: PageId, cell: &PageCell, byte: u8) -> DmvResult<u64> {
        let (stamp, mut img) = m.read_latest(id, cell);
        img[0] = byte;
        m.commit(&[(id, stamp)], &[Install { id, cell, image: &img }])
    }

    #[test]
    fn disjoint_commits_both_succeed() {
        let m = MvccManager::new();
        let s = store();
        let (p1, c1) = s.allocate(TableId(0), PageSpace::Heap);
        let (p2, c2) = s.allocate(TableId(0), PageSpace::Heap);
        assert!(poke(&m, p1, &c1, 1).is_ok());
        assert!(poke(&m, p2, &c2, 2).is_ok());
        assert_eq!(c1.latch.read().data()[0], 1);
        assert_eq!(c2.latch.read().data()[0], 2);
    }

    #[test]
    fn overlapping_commit_loses_first_committer_wins() {
        let m = MvccManager::new();
        let s = store();
        let (p, c) = s.allocate(TableId(0), PageSpace::Heap);
        let (stale_stamp, mut stale_img) = m.read_latest(p, &c);
        poke(&m, p, &c, 7).unwrap();
        stale_img[0] = 9;
        let err = m
            .commit(&[(p, stale_stamp)], &[Install { id: p, cell: &c, image: &stale_img }])
            .unwrap_err();
        assert!(matches!(err, DmvError::VersionConflict { .. }));
        assert!(err.is_retryable());
        assert_eq!(c.latch.read().data()[0], 7, "loser must not clobber the winner");
    }

    #[test]
    fn stamp_guarded_dirty_clear_spares_later_install() {
        let m = MvccManager::new();
        let s = store();
        let (p, c) = s.allocate(TableId(0), PageSpace::Heap);
        let first = poke(&m, p, &c, 1).unwrap();
        let second = poke(&m, p, &c, 2).unwrap();
        assert!(c.is_dirty());
        // The first committer's late bookkeeping must not un-dirty the
        // second committer's un-checkpointed install...
        m.clear_dirty_if_current(p, &c, first);
        assert!(c.is_dirty(), "stale stamp cleared a later install's dirty flag");
        // ...but the newest install's own clear goes through.
        m.clear_dirty_if_current(p, &c, second);
        assert!(!c.is_dirty());
    }
}
