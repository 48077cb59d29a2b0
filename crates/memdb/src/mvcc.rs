//! Copy-on-write page MVCC: the multi-writer alternative to the
//! paper's per-page 2PL master (`ConcurrencyMode::MvccCow`).
//!
//! Writers never take page locks. Each update transaction copies the
//! committed image of every page it touches into private buffers
//! ([`crate::Txn`] keeps the base and the copy-on-write working copy),
//! mutates only the copies, and commits through this manager:
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
//!    counter, the reverse diff restoring every written page's
//!    superseded image is pushed onto that page's [`VersionChain`], and
//!    the private copy becomes the page's committed image.
//!
//! Snapshot readers never block writers and never abort: they register
//! a snapshot stamp and read, per page, the image as of that stamp —
//! the page cell if its stamp qualifies, otherwise walked back from it
//! through the chain (step 3 pushes the reverse step and overwrites the
//! cell under one hold of the page's shard lock, so a snapshot never
//! observes a torn hand-off). Snapshots begin at the
//! **visible** stamp — the highest stamp up to which *every* commit has
//! finished installing all of its pages — not at the raw CSN counter,
//! so a snapshot can never land in the middle of a multi-page install
//! and observe half of one transaction (heap row without its index
//! entry). Commits publish their stamp into `visible` only contiguously:
//! a commit that finishes while an earlier stamp is still installing
//! parks its stamp until the gap closes.
//!
//! Chains are pruned by [`MvccManager::prune`] on the epoch GC sweep,
//! bounded by the snapshot floor alone: only local snapshot reads walk
//! them — tagged reads go through the replication layer's `ReadGate`.

use dmv_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use dmv_check::sync::{Mutex, MutexGuard};
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::PageId;
use dmv_common::version::VersionVector;
use dmv_pagestore::diff::PageDiff;
use dmv_pagestore::store::PageCell;
use dmv_pagestore::versions::VersionChain;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Number of sequencer/page-state shards. Power of two so the
/// Fibonacci hash can use a shift.
pub const MVCC_SHARDS: usize = 16;

/// Per-page MVCC state.
#[derive(Default)]
struct PageMvcc {
    /// Commit stamp of the current committed image in the page cell
    /// (`0` if the page has never been MVCC-committed).
    last_stamp: u64,
    /// Reverse steps back from the cell's image, stamped with the
    /// commit stamps they lead between (`0` is the load-time image).
    chain: VersionChain,
}

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

/// Copy-on-write page-MVCC state shared by all transactions of one
/// [`crate::MemDb`].
pub struct MvccManager {
    /// Last assigned commit stamp.
    csn: AtomicU64,
    /// Highest stamp up to which **every** commit has fully installed
    /// all of its pages. Snapshots begin here rather than at `csn`:
    /// between a commit's stamp draw and its last page install, the
    /// raw counter already covers a half-installed transaction.
    visible: AtomicU64,
    /// Stamps whose installs finished while an earlier stamp was still
    /// installing — parked until the gap closes so `visible` only ever
    /// advances over contiguous, fully-installed prefixes.
    installed: Mutex<BTreeSet<u64>>,
    /// Sharded commit sequencer: a committer holds the sequencer shard
    /// of every page it read or wrote (ascending shard order) across
    /// validation and install, so overlapping committers serialize and
    /// disjoint ones run in parallel.
    seq: [Mutex<()>; MVCC_SHARDS],
    /// Sharded per-page state (commit stamps + version chains). Taken
    /// one shard at a time, under the sequencer on the commit path and
    /// bare on read paths.
    pages: [Mutex<HashMap<PageId, PageMvcc>>; MVCC_SHARDS],
    /// Registered snapshot stamps → number of open readers at each.
    snaps: Mutex<BTreeMap<u64, usize>>,
    /// Test hook: skip commit validation entirely (lost-update bug the
    /// model suite must catch).
    skip_validation: AtomicBool,
    /// Test hook: invert first-committer-wins — a conflicting committer
    /// overwrites instead of aborting (the model suite must catch this
    /// too).
    last_committer_wins: AtomicBool,
}

impl Default for MvccManager {
    fn default() -> Self {
        Self::new()
    }
}

impl MvccManager {
    /// Creates an empty manager (no committed stamps, no chains).
    pub fn new() -> Self {
        let m = MvccManager {
            csn: AtomicU64::new(0),
            visible: AtomicU64::new(0),
            installed: Mutex::new(BTreeSet::new()),
            seq: std::array::from_fn(|_| Mutex::new(())),
            pages: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            snaps: Mutex::new(BTreeMap::new()),
            skip_validation: AtomicBool::new(false),
            last_committer_wins: AtomicBool::new(false),
        };
        for s in &m.seq {
            dmv_check::race::label(s, "mvcc_seq");
        }
        for s in &m.pages {
            dmv_check::race::label(s, "mvcc_pages");
        }
        dmv_check::race::label(&m.installed, "mvcc_installed");
        dmv_check::race::label(&m.snaps, "mvcc_snaps");
        m
    }

    /// Reads the committed image of `id` and the stamp it was committed
    /// at, copying the bytes out under the page's shard lock so the
    /// stamp and the image are consistent.
    pub fn read_latest(&self, id: PageId, cell: &PageCell) -> (u64, Vec<u8>) {
        let st = self.pages[id.shard(MVCC_SHARDS)].lock();
        let stamp = st.get(&id).map_or(0, |e| e.last_stamp);
        // The latch is a real lock even under the model checker: its
        // guard must die before the shard unlock, a scheduling point.
        let image = cell.latch.read().data().to_vec();
        drop(st);
        (stamp, image)
    }

    /// The current commit stamp of `id` (`0` if never MVCC-committed).
    pub fn stamp_of(&self, id: PageId) -> u64 {
        self.pages[id.shard(MVCC_SHARDS)].lock().get(&id).map_or(0, |e| e.last_stamp)
    }

    /// Registers a snapshot at the newest fully-installed commit stamp;
    /// images reachable from it are protected from pruning until
    /// [`MvccManager::end_snapshot`].
    ///
    /// The stamp is read and registered under one hold of the `snaps`
    /// lock — the same lock [`MvccManager::prune`] computes its
    /// reachability floor under — so a concurrent prune either sees
    /// this snapshot registered or finishes before the stamp is chosen;
    /// it can never reap an image between the two.
    pub fn begin_snapshot(&self) -> u64 {
        let mut snaps = self.snaps.lock();
        let snap = self.visible.load(Ordering::Acquire);
        *snaps.entry(snap).or_insert(0) += 1;
        snap
    }

    /// Releases a snapshot registered by [`MvccManager::begin_snapshot`].
    pub fn end_snapshot(&self, snap: u64) {
        let mut snaps = self.snaps.lock();
        if let Some(n) = snaps.get_mut(&snap) {
            *n -= 1;
            if *n == 0 {
                snaps.remove(&snap);
            }
        }
    }

    /// Reads the image of `id` as of the registered snapshot `snap`: the
    /// page cell's image walked back through the page's chain until its
    /// stamp is at or below the snapshot. A page first committed after
    /// the snapshot walks back to the image it was created over.
    pub fn read_at(&self, id: PageId, cell: &PageCell, snap: u64) -> Vec<u8> {
        let st = self.pages[id.shard(MVCC_SHARDS)].lock();
        let page = cell.latch.read();
        let never_committed = PageMvcc::default();
        let e = st.get(&id).unwrap_or(&never_committed);
        // unwrap-ok: prune's cutoff keeps every step a registered snapshot can reach (model-checked in crates/check/tests/mvcc.rs)
        e.chain.image_at(page.data(), e.last_stamp, snap).expect("snapshot outlived its steps")
    }

    /// Validates and installs one transaction's writes: first-committer-
    /// wins over the read set, then reverse-step push + cell overwrite per
    /// written page, all under the sequencer shards covering the
    /// transaction's page set. Returns the new commit stamp.
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
            let e = st.entry(w.id).or_default();
            let mut page = w.cell.latch.write();
            // The step back to the superseded image and the overwrite
            // happen under one hold of the shard lock, which snapshot
            // readers take too: they see both or neither.
            let rev = PageDiff::compute(w.image, page.data());
            e.chain.push(stamp, e.last_stamp, rev, usize::MAX);
            page.data_mut().copy_from_slice(w.image);
            drop(page);
            e.last_stamp = stamp;
            // Dirty under the shard lock, atomically with the stamp, so
            // a pipelined rival's stamp-guarded clear
            // ([`MvccManager::clear_dirty_if_current`]) and this set
            // can't interleave the wrong way round.
            w.cell.set_dirty(true);
        }
        // Publish visibility: commits holding disjoint sequencer shards
        // finish in any order, so `visible` advances only over the
        // contiguous prefix of fully-installed stamps (module docs).
        let mut done = self.installed.lock();
        done.insert(stamp);
        let mut vis = self.visible.load(Ordering::Acquire);
        while done.remove(&(vis + 1)) {
            vis += 1;
        }
        self.visible.store(vis, Ordering::Release);
        Ok(stamp)
    }

    /// Clears `cell`'s dirty flag only if `stamp` is still the page's
    /// newest install, under the page's shard lock. With pipelined
    /// committers of the same page, an earlier committer's post-ack
    /// bookkeeping must not un-dirty a later install that has not been
    /// checkpointed yet.
    pub fn clear_dirty_if_current(&self, id: PageId, cell: &PageCell, stamp: u64) {
        let st = self.pages[id.shard(MVCC_SHARDS)].lock();
        if st.get(&id).map_or(0, |e| e.last_stamp) == stamp {
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

    /// Prunes the chain steps no snapshot can reach, returning how many
    /// were freed: a step goes once the stamp it leads back *from* is
    /// `<=` every registered snapshot and `<=` the visible stamp (future
    /// snapshots start at `visible`, so a step under a not-yet-published
    /// commit may still be needed). The GC sweep's epoch watermark is
    /// not consulted: it bounds what *tagged* readers need, and those
    /// never read these chains.
    pub fn prune(&self, _watermark: &VersionVector) -> usize {
        // Floor read under the `snaps` lock (see `begin_snapshot`): a
        // snapshot missing from the map here will start at a stamp `>=`
        // the `visible` we read — above everything we reclaim.
        let cutoff = {
            let snaps = self.snaps.lock();
            let min_snap = snaps.keys().next().copied().unwrap_or(u64::MAX);
            min_snap.min(self.visible.load(Ordering::Acquire))
        };
        self.pages
            .iter()
            .map(|shard| shard.lock().values_mut().map(|e| e.chain.prune(cutoff)).sum::<usize>())
            .sum()
    }

    /// Total chain steps currently retained (diagnostics, pruning tests).
    pub fn chain_entries(&self) -> usize {
        self.pages.iter().map(|s| s.lock().values().map(|e| e.chain.len()).sum::<usize>()).sum()
    }

    /// Number of registered snapshots (diagnostics).
    pub fn active_snapshots(&self) -> usize {
        self.snaps.lock().values().sum()
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
        f.debug_struct("MvccManager")
            .field("csn", &self.csn.load(Ordering::Acquire))
            .field("chain_entries", &self.chain_entries())
            .finish()
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
    fn snapshot_reads_are_stable_across_commits() {
        let m = MvccManager::new();
        let s = store();
        let (p, c) = s.allocate(TableId(0), PageSpace::Heap);
        poke(&m, p, &c, 3).unwrap();
        let snap = m.begin_snapshot();
        assert_eq!(m.read_at(p, &c, snap)[0], 3);
        poke(&m, p, &c, 4).unwrap();
        assert_eq!(m.read_at(p, &c, snap)[0], 3, "snapshot must not see the later commit");
        m.end_snapshot(snap);
        let snap2 = m.begin_snapshot();
        assert_eq!(m.read_at(p, &c, snap2)[0], 4);
        m.end_snapshot(snap2);
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

    #[test]
    fn snapshots_begin_at_the_published_stamp() {
        let m = MvccManager::new();
        let s = store();
        let (p, c) = s.allocate(TableId(0), PageSpace::Heap);
        let stamp = poke(&m, p, &c, 9).unwrap();
        // Commit fully installed and published: a fresh snapshot starts
        // at its stamp and reads its image.
        let snap = m.begin_snapshot();
        assert_eq!(snap, stamp);
        assert_eq!(m.read_at(p, &c, snap)[0], 9);
        m.end_snapshot(snap);
    }

    #[test]
    fn page_created_after_the_snapshot_reads_as_its_pre_creation_image() {
        let m = MvccManager::new();
        let s = store();
        let (other, oc) = s.allocate(TableId(0), PageSpace::Heap);
        poke(&m, other, &oc, 1).unwrap();
        let snap = m.begin_snapshot();
        let (p, c) = s.allocate(TableId(0), PageSpace::Heap);
        poke(&m, p, &c, 8).unwrap();
        poke(&m, p, &c, 9).unwrap();
        assert!(m.read_at(p, &c, snap).iter().all(|&b| b == 0), "walked back past creation");
        m.end_snapshot(snap);
    }

    #[test]
    fn prune_respects_snapshots() {
        let m = MvccManager::new();
        let s = store();
        let (p, c) = s.allocate(TableId(0), PageSpace::Heap);
        poke(&m, p, &c, 1).unwrap();
        let snap = m.begin_snapshot();
        poke(&m, p, &c, 2).unwrap();
        poke(&m, p, &c, 3).unwrap();
        assert_eq!(m.chain_entries(), 3);
        // The snapshot at stamp 1 pins the two steps above it; the step
        // back to the load-time image is free.
        let any = VersionVector::new(1);
        assert_eq!(m.prune(&any), 1);
        assert_eq!(m.read_at(p, &c, snap)[0], 1, "pinned image survives pruning");
        m.end_snapshot(snap);
        assert_eq!(m.prune(&any), 2);
        assert_eq!(m.chain_entries(), 0, "everything reclaimable once snapshots close");
    }
}
