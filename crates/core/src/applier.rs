//! Lazy version materialization — the heart of Dynamic Multiversioning.
//!
//! Each slave keeps, per page, a FIFO queue of the byte diffs it has
//! received from the master(s) but not yet applied. When a read-only
//! transaction tagged with version vector `V` first touches a page, the
//! applier applies exactly the queued diffs with version `≤ V[table]`,
//! leaving later diffs queued: "the appropriate version for each
//! individual data item is created dynamically and lazily at that slave
//! replica, when needed by an in-progress read-only transaction".
//!
//! A page that has already been upgraded past `V[table]` (by a reader
//! with a newer tag) is *rewound*: every diff a reader applies pushes
//! its reverse step onto the page's [`VersionChain`] — this applier is
//! the chain's one owner; a master keeps no history — and a tagged read
//! past whose tag the page has moved re-materializes its version from it
//! ([`ReadGate::read_version_at`]). This is the "multiversion" in
//! multiversion replication — without it, any two in-flight reads with
//! different tags that share a slave force an abort, and §6.1's < 2.5 %
//! bound is unreachable under load. Only when the chain does not reach
//! the tag (see [`VersionChain::image_at`]) does the read abort with
//! `VersionConflict`; the scheduler keeps even those rare by
//! same-version routing.
//!
//! # Hot-path structure
//!
//! The applier sits on both sides of the replication hot path: the
//! receiver thread enqueues every incoming write-set while reader
//! threads concurrently gate page accesses. Three choices keep those
//! sides from serializing each other:
//!
//! * queued entries are `(version, Arc<WriteSet>, index)` — the diff
//!   bytes live once, in the write-set allocation shared with the
//!   network layer, no matter how many pages or replicas are involved;
//! * a page's pending queue and its chain sit together in one
//!   `PageSlot`, and the slot map is split into `SHARD_COUNT`
//!   independently locked shards keyed by a page-id hash, so readers
//!   materializing different pages don't contend on one map lock;
//! * the received-version vector is an [`AtomicVersionVector`]: tag
//!   checks are lock-free loads, and the condvar (with its mutex) is
//!   touched only when a reader actually has to wait for in-flight
//!   versions — enqueue skips the lock entirely while no one waits.

use crate::messages::WriteSet;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::fx::FxHashMap;
use dmv_common::ids::PageId;
use dmv_common::version::{AtomicVersionVector, VersionVector};
use dmv_memdb::ReadGate;
use dmv_pagestore::diff::PageDiff;
use dmv_pagestore::store::{PageCell, PageStore};
use dmv_pagestore::versions::VersionChain;
use dmv_pagestore::{Image, Page};
// Shimmed primitives: parking_lot/std in normal builds, model-checked
// under `--cfg dmv_check` (see crates/check).
use dmv_check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use dmv_check::sync::{Condvar, Mutex};
use dmv_common::clock::wall_deadline;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Number of independently locked slot-map shards. Power of two so
/// the hash can mask; 64 is comfortably past the core counts this
/// simulation runs on.
const SHARD_COUNT: usize = 64;

/// Reverse steps retained per page. Each step is one applied write-set's
/// inverse (payload proportional to the diff, not the page), so the cap
/// bounds history memory at `HISTORY_LIMIT × typical diff size` per hot
/// page; a read needing to rewind further than the cap aborts exactly as
/// it did before history existed.
const HISTORY_LIMIT: usize = 16;

/// One queued page modification: the version this diff raises the page
/// to, plus a handle into the shared write-set that carries the bytes.
struct PendingDiff {
    version: u64,
    ws: Arc<WriteSet>,
    idx: usize,
}

impl PendingDiff {
    fn diff(&self) -> &PageDiff {
        &self.ws.pages[self.idx].1
    }
}

/// What the applier holds for one page, inline in its shard's map. A
/// slot left with neither queue nor steps is removed in the critical
/// section that emptied it, so the map tracks the pages with something
/// outstanding rather than every page ever written.
#[derive(Default)]
struct PageSlot {
    /// Received, unapplied diffs in stream order.
    pending: VecDeque<PendingDiff>,
    /// Reverse steps of the applied diffs, stamped with table versions.
    past: VersionChain,
}

impl PageSlot {
    fn is_empty(&self) -> bool {
        self.pending.is_empty() && self.past.is_empty()
    }

    fn has_pending_up_to(&self, want: u64) -> bool {
        self.pending.front().is_some_and(|f| f.version <= want)
    }

    /// Applies the pending diffs with version `≤ want` to `page`, each
    /// leaving its reverse step on `past` when `record` is set; returns
    /// the pending bytes released. The caller holds the slot's shard
    /// lock and the page's write latch, so a rewinder never observes an
    /// upgraded page whose step isn't recorded yet. Only the GC sweep
    /// applies unrecorded: it prunes at `want` in the same critical
    /// section, which drops exactly the steps these diffs would leave.
    fn apply_up_to(&mut self, page: &mut Page, want: u64, record: bool) -> u64 {
        let n = self.pending.iter().take_while(|e| e.version <= want).count();
        let mut applied_bytes = 0;
        for entry in self.pending.drain(..n) {
            applied_bytes += entry.diff().encoded_len() as u64;
            // Idempotence across migration: a page image received
            // during data migration may already include this diff.
            if entry.version > page.version {
                if record {
                    let rev = entry.diff().reverse_of(page.data());
                    self.past.push(entry.version, page.version, rev, HISTORY_LIMIT);
                }
                entry.diff().apply(page.data_mut());
                page.version = entry.version;
            }
        }
        applied_bytes
    }
}

fn version_check(id: PageId, want: u64, found: u64) -> DmvResult<()> {
    if found > want {
        return Err(DmvError::VersionConflict { page: id, wanted: want, found });
    }
    Ok(())
}

/// Per-replica pending-update state implementing [`ReadGate`].
pub struct PendingApplier {
    store: Arc<PageStore>,
    /// Every page's [`PageSlot`], sharded by [`PageId::shard`]. A shard
    /// lock is held for a whole apply, rewind walk or sweep of its
    /// pages — each a handful of entries. Lock order: slot shard → page
    /// latch.
    slots: [Mutex<FxHashMap<PageId, PageSlot>>; SHARD_COUNT],
    received: AtomicVersionVector,
    /// Readers blocked on versions still in flight. Enqueue only takes
    /// `wait_lock` when this is non-zero.
    waiters: AtomicUsize,
    wait_lock: Mutex<()>,
    received_cv: Condvar,
    /// Wall-clock bound on waiting for a not-yet-received version.
    wait_timeout: Duration,
    /// Write-sets enqueued (not yet necessarily materialized).
    enqueued_writesets: AtomicU64,
    /// Encoded bytes of all queued (unapplied, undiscarded) diffs —
    /// the replica's pending-memory figure fed to the bounded-memory
    /// oracle and the bench high-water tracking. The write-set
    /// allocation is shared, so a diff's encoded length is the honest
    /// per-entry footprint.
    pending_diff_bytes: AtomicU64,
    /// Bumped after every change that can give a table version other
    /// content than it had, or replace pages outside the stream (see
    /// [`PendingApplier::lineage`]).
    lineage: AtomicU64,
}

impl PendingApplier {
    /// Creates an applier over `store` covering `n_tables` tables.
    pub fn new(store: Arc<PageStore>, n_tables: usize, wait_timeout: Duration) -> Self {
        let applier = PendingApplier {
            store,
            slots: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            received: AtomicVersionVector::new(n_tables),
            waiters: AtomicUsize::new(0),
            wait_lock: Mutex::new(()),
            received_cv: Condvar::new(),
            wait_timeout,
            enqueued_writesets: AtomicU64::new(0),
            pending_diff_bytes: AtomicU64::new(0),
            lineage: AtomicU64::new(0),
        };
        for shard in &applier.slots {
            dmv_check::race::label(shard, "slots");
        }
        dmv_check::race::label(&applier.wait_lock, "wait_lock");
        dmv_check::race::label(&applier.received_cv, "applier.received_cv");
        applier
    }

    /// Enqueues a received write-set: each page's entry points into the
    /// shared allocation (no diff is copied), and the received-version
    /// vector advances by atomic maximum.
    pub fn enqueue(&self, ws: &Arc<WriteSet>) {
        self.enqueue_batch(std::slice::from_ref(ws));
    }

    /// Enqueues a group-commit batch of write-sets (in `seq` order) with
    /// one pass over the shard locks: entries are bucketed per shard
    /// first, so a shard's lock is taken once per batch instead of once
    /// per page. The received vector advances to the *last* write-set's
    /// versions — a master stream's vectors are monotone, so the last
    /// one dominates the whole batch.
    pub fn enqueue_batch(&self, sets: &[Arc<WriteSet>]) {
        let Some(last) = sets.last() else { return };
        let mut buckets: [Vec<(PageId, PendingDiff)>; SHARD_COUNT] =
            std::array::from_fn(|_| Vec::new());
        let mut queued_bytes = 0u64;
        for ws in sets {
            for (idx, (id, diff)) in ws.pages.iter().enumerate() {
                // Ensure the page exists so later reads/scans can see it.
                let _ = self.store.get_or_create(*id);
                queued_bytes += diff.encoded_len() as u64;
                buckets[id.shard(SHARD_COUNT)].push((
                    *id,
                    PendingDiff { version: ws.versions.get(id.table), ws: Arc::clone(ws), idx },
                ));
            }
        }
        // Counted before the diffs become applicable, so a racing apply's
        // release can never take the gauge below zero.
        self.pending_diff_bytes.fetch_add(queued_bytes, Ordering::Relaxed); // relaxed-ok: diagnostics gauge
        for (shard, entries) in self.slots.iter().zip(buckets) {
            if entries.is_empty() {
                continue;
            }
            let mut map = shard.lock();
            for (id, diff) in entries {
                map.entry(id).or_default().pending.push_back(diff);
            }
        }
        self.received.merge(&last.versions);
        self.notify_waiters();
        // relaxed-ok: diagnostics counter; stream order is carried by received + wait_lock
        self.enqueued_writesets.fetch_add(sets.len() as u64, Ordering::Relaxed);
    }

    /// Wakes blocked readers, taking the wait lock only if any exist.
    /// A waiter increments `waiters` before its final dominance check
    /// (both SeqCst), so an advance it misses is followed by a notify
    /// it cannot miss — the notifier locks `wait_lock`, which the
    /// waiter holds from re-check until it parks on the condvar.
    fn notify_waiters(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _g = self.wait_lock.lock();
            self.received_cv.notify_all();
        }
    }

    /// Highest version vector received so far.
    pub fn received(&self) -> VersionVector {
        self.received.snapshot()
    }

    /// Sum of the received vector's components — the scheduler's
    /// per-slave freshness view. Reading the shared atomic vector here
    /// (advanced by `enqueue`/`enqueue_batch` and a migration's
    /// `advance_received`) is what keeps routing decisions current
    /// between cumulative acks: no cached copy to go stale.
    pub fn received_total(&self) -> u64 {
        self.received.total()
    }

    /// Write-sets enqueued so far.
    pub fn enqueued_count(&self) -> u64 {
        self.enqueued_writesets.load(Ordering::Relaxed) // relaxed-ok: diagnostics counter; stream order is carried by received + wait_lock
    }

    /// Blocks until the replication stream has delivered everything up
    /// to `tag`.
    ///
    /// # Errors
    ///
    /// [`DmvError::Network`] if the wait times out (e.g. the master died
    /// mid-broadcast; reconfiguration will retry the transaction).
    pub fn wait_received(&self, tag: &VersionVector) -> DmvResult<()> {
        self.wait_received_for(tag, self.wait_timeout)
    }

    /// [`PendingApplier::wait_received`] with an explicit wall-clock
    /// bound (data migration tolerates longer waits than page reads).
    ///
    /// # Errors
    ///
    /// [`DmvError::Network`] if the wait times out.
    pub fn wait_received_for(&self, tag: &VersionVector, timeout: Duration) -> DmvResult<()> {
        // Lock-free fast path: the stream is usually ahead of readers.
        if self.received.dominates(tag) {
            return Ok(());
        }
        let deadline = wall_deadline(timeout);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut g = self.wait_lock.lock();
        let result = loop {
            if self.received.dominates(tag) {
                break Ok(());
            }
            if self.received_cv.wait_until(&mut g, deadline).timed_out() {
                break Err(DmvError::Network(format!(
                    "version {tag} not received (have {})",
                    self.received
                )));
            }
        };
        drop(g);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// Applies queued diffs of `cell` up to `want` (one table entry),
    /// recording one reverse step per applied diff so a later read with
    /// an older tag can rewind the page ([`ReadGate::read_version_at`]).
    fn apply_up_to(&self, id: PageId, cell: &PageCell, want: u64) -> DmvResult<()> {
        let mut shard = self.slots[id.shard(SHARD_COUNT)].lock();
        let Some(slot) = shard.get_mut(&id).filter(|s| s.has_pending_up_to(want)) else {
            // Nothing applicable queued (no slot, history only, or only
            // newer versions pending): resolve under the shared read
            // latch, off the shard lock and the write latch.
            drop(shard);
            return version_check(id, want, cell.latch.read().version);
        };
        let mut page = cell.latch.write();
        let applied_bytes = slot.apply_up_to(&mut page, want, true);
        if slot.is_empty() {
            shard.remove(&id);
        }
        self.pending_diff_bytes.fetch_sub(applied_bytes, Ordering::Relaxed); // relaxed-ok: diagnostics gauge
        version_check(id, want, page.version)
    }

    /// One pass over every slot, each shard in one critical section:
    /// with a watermark, [`Self::reclaim_up_to`] (no reverse step is
    /// built for a diff at or below the watermark — the prune that
    /// follows would drop it); without, applies everything, recording,
    /// and prunes nothing. Returns the slots removed.
    fn sweep(&self, wm: Option<&VersionVector>) -> usize {
        let (mut removed, mut applied_bytes) = (0usize, 0u64);
        let record = wm.is_none();
        for shard in &self.slots {
            shard.lock().retain(|id, slot| {
                let upto = wm.map_or(u64::MAX, |wm| wm.get(id.table));
                if slot.has_pending_up_to(upto) {
                    if let Some(cell) = self.store.get(*id) {
                        applied_bytes += slot.apply_up_to(&mut cell.latch.write(), upto, record);
                    }
                }
                if wm.is_some() {
                    slot.past.prune(upto);
                }
                removed += usize::from(slot.is_empty());
                !slot.is_empty()
            });
        }
        self.pending_diff_bytes.fetch_sub(applied_bytes, Ordering::Relaxed); // relaxed-ok: diagnostics gauge
        removed
    }

    fn sum_slots(&self, f: impl Fn(&PageSlot) -> usize) -> usize {
        self.slots.iter().map(|s| s.lock().values().map(&f).sum::<usize>()).sum()
    }

    /// Retained reverse steps across all pages (diagnostics).
    pub fn history_len(&self) -> usize {
        self.sum_slots(|slot| slot.past.len())
    }

    /// Applies *all* pending diffs of every page (used when promoting a
    /// slave to master, and by a support slave before sending pages to a
    /// joining node). Afterwards each page is at the replica's received
    /// version for its table.
    pub fn apply_all(&self) {
        self.sweep(None);
    }

    /// Eagerly applies every queued diff at or below the reclamation
    /// watermark `wm`, prunes the reverse steps it has passed and
    /// removes the slots left empty, returning how many went. This is
    /// the GC half of epoch-based reclamation: the epoch manager
    /// guarantees `wm` is dominated by every pinned reader tag, so
    /// applying up to it can never rob a pinned reader of a version it
    /// still needs — a reader ahead of `wm` materializes later diffs on
    /// demand, a page already *past* `wm` is left alone, exactly as
    /// [`ReadGate::prepare_read`] would find it, and a rewind for
    /// `want ≥ wm` never walks a step at or below `wm`.
    pub fn reclaim_up_to(&self, wm: &VersionVector) -> usize {
        self.sweep(Some(wm))
    }

    /// Fully applies one page's queue (support-slave side of migration).
    pub fn apply_page(&self, id: PageId) {
        if let Some(cell) = self.store.get(id) {
            let _ = self.apply_up_to(id, cell, u64::MAX);
        }
    }

    /// Discards queued records with versions above `versions` — the
    /// cleanup after a master failure, removing partially propagated
    /// transactions the failed master never acknowledged (§4.2). Also
    /// clamps the received vector so later waits don't trust ghosts.
    pub fn discard_above(&self, versions: &VersionVector) {
        let mut dropped_bytes = 0u64;
        for shard in &self.slots {
            shard.lock().retain(|id, slot| {
                let keep = versions.get(id.table);
                slot.pending.retain(|e| {
                    if e.version > keep {
                        dropped_bytes += e.diff().encoded_len() as u64;
                    }
                    e.version <= keep
                });
                !slot.is_empty()
            });
        }
        self.pending_diff_bytes.fetch_sub(dropped_bytes, Ordering::Relaxed); // relaxed-ok: diagnostics gauge
        self.received.clamp(versions);
        // A discarded version may be reissued with other content.
        self.new_lineage();
    }

    /// Advances the received vector to (at least) `to` without any
    /// queued diffs — used when a joining node finishes data migration:
    /// the transferred page images already embody every version up to
    /// the migration target, so tagged reads at those versions must not
    /// wait for a replication stream that will never resend them.
    pub fn advance_received(&self, to: &VersionVector) {
        self.received.merge(to);
        self.new_lineage();
        self.notify_waiters();
    }

    /// The lineage within which a table version names one content. It
    /// moves on after `discard_above` (whose versions a new master may
    /// reissue) and after every install of pages from outside the stream
    /// (migration, checkpoint restore), so whatever was read before such a
    /// change is told apart from what is read after it
    /// ([`crate::reuse`]).
    pub fn lineage(&self) -> u64 {
        self.lineage.load(Ordering::SeqCst)
    }

    /// Starts a new [`PendingApplier::lineage`]; called once the change
    /// that needs it is complete.
    pub fn new_lineage(&self) {
        self.lineage.fetch_add(1, Ordering::SeqCst);
    }

    /// Total queued (unapplied) diffs across all pages (diagnostics).
    pub fn pending_count(&self) -> usize {
        self.sum_slots(|slot| slot.pending.len())
    }

    /// Encoded bytes of all queued diffs — the pending-memory gauge
    /// consumed by the bounded-memory oracle and the bench reporter.
    pub fn pending_bytes(&self) -> u64 {
        self.pending_diff_bytes.load(Ordering::Relaxed) // relaxed-ok: diagnostics gauge; stream order is carried by received + wait_lock
    }

    /// Number of pages holding a slot: those with diffs still queued or
    /// reverse steps the watermark has not passed yet.
    pub fn slot_count(&self) -> usize {
        self.sum_slots(|_| 1)
    }
}

impl ReadGate for PendingApplier {
    /// Materializes the image `cell` had at table-version `want` from
    /// the page's reverse steps; `None` (the reader aborts) when they
    /// don't reach that far. A page at or below `want` is its own answer
    /// (raced with a rewind-free serve).
    fn read_version_at(&self, id: PageId, cell: &PageCell, want: u64) -> Option<Image> {
        let shard = self.slots[id.shard(SHARD_COUNT)].lock();
        let page = cell.latch.read();
        let none = VersionChain::default();
        let past = shard.get(&id).map_or(&none, |slot| &slot.past);
        past.image_at(page.image(), page.version, want)
    }

    fn prepare_read(&self, id: PageId, cell: &PageCell, tag: &VersionVector) -> DmvResult<()> {
        let want = tag.get(id.table);
        // Fast path: the page is current enough, no lock but its latch.
        let found = cell.latch.read().version;
        if found >= want {
            return version_check(id, want, found);
        }
        // The page is older than the tag. If every write-set at or below
        // `want` has been received (diffs enter the slots *before*
        // `received` advances, both ends SeqCst) and this page has
        // nothing pending, none of them touches it: the current image
        // already is the image at `want`. This is the common case — most
        // pages of a hot table are untouched by any given version — and
        // it serves with one shard-lock probe and no latch, which is what
        // keeps tagged reads off the appliers' locks at saturation.
        let quiet = |slot: &PageSlot| slot.pending.is_empty();
        if self.received.get(id.table) >= want
            && self.slots[id.shard(SHARD_COUNT)].lock().get(&id).is_none_or(quiet)
        {
            return Ok(());
        }
        // The tag may reference versions still in flight.
        let mut needed = VersionVector::new(tag.len());
        needed.set(id.table, want);
        self.wait_received(&needed)?;
        self.apply_up_to(id, cell, want)
    }
}

impl std::fmt::Debug for PendingApplier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingApplier")
            .field("received", &format!("{}", self.received))
            .field("pending", &self.pending_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::ids::{NodeId, TableId, TxnId};
    use dmv_pagestore::PAGE_SIZE;

    fn ws(seq: u64, table: u16, version: u64, page_no: u32, fill: u8) -> Arc<WriteSet> {
        let before = vec![0u8; PAGE_SIZE];
        let mut after = before.clone();
        after[0] = fill;
        let mut versions = VersionVector::new(2);
        versions.set(TableId(table), version);
        Arc::new(WriteSet {
            txn: TxnId::new(NodeId(0), seq),
            seq,
            versions,
            pages: vec![(
                PageId::heap(TableId(table), page_no),
                PageDiff::compute(&before, &after),
            )],
        })
    }

    fn applier() -> (Arc<PageStore>, PendingApplier) {
        let store = Arc::new(PageStore::new_free());
        let a = PendingApplier::new(Arc::clone(&store), 2, Duration::from_millis(100));
        (store, a)
    }

    #[test]
    fn enqueue_creates_page_and_tracks_versions() {
        let (store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        assert!(store.contains(PageId::heap(TableId(0), 0)));
        assert_eq!(a.received().get(TableId(0)), 1);
        assert_eq!(a.pending_count(), 1);
        assert_eq!(a.enqueued_count(), 1);
    }

    #[test]
    fn enqueue_shares_the_writeset_allocation() {
        let (_store, a) = applier();
        let w = ws(1, 0, 1, 0, 10);
        a.enqueue(&w);
        // One strong count for the test handle, one for the queue entry:
        // the queue holds the same allocation, not a copy.
        assert_eq!(Arc::strong_count(&w), 2);
        a.apply_all();
        assert_eq!(Arc::strong_count(&w), 1, "materializing releases the handle");
    }

    #[test]
    fn enqueue_batch_matches_sequential_enqueues() {
        let (store, a) = applier();
        a.enqueue_batch(&[ws(1, 0, 1, 0, 10), ws(2, 0, 2, 0, 20), ws(3, 0, 3, 1, 30)]);
        assert_eq!(a.pending_count(), 3);
        assert_eq!(a.enqueued_count(), 3);
        assert_eq!(a.received().get(TableId(0)), 3);
        a.apply_all();
        let p0 = store.get(PageId::heap(TableId(0), 0)).unwrap();
        assert_eq!(p0.latch.read().version, 2);
        assert_eq!(p0.latch.read().data()[0], 20, "both page-0 diffs applied in seq order");
        let p1 = store.get(PageId::heap(TableId(0), 1)).unwrap();
        assert_eq!(p1.latch.read().version, 3);
        assert_eq!(p1.latch.read().data()[0], 30);
    }

    #[test]
    fn enqueue_batch_of_nothing_is_a_noop() {
        let (_store, a) = applier();
        a.enqueue_batch(&[]);
        assert_eq!(a.pending_count(), 0);
        assert_eq!(a.enqueued_count(), 0);
    }

    #[test]
    fn lazy_application_up_to_tag() {
        let (store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        a.enqueue(&ws(2, 0, 2, 0, 20));
        a.enqueue(&ws(3, 0, 3, 0, 30));
        let id = PageId::heap(TableId(0), 0);
        let cell = store.get(id).unwrap();
        let mut tag = VersionVector::new(2);
        tag.set(TableId(0), 2);
        a.prepare_read(id, cell, &tag).unwrap();
        let page = cell.latch.read();
        assert_eq!(page.version, 2);
        assert_eq!(page.data()[0], 20, "only versions <= tag applied");
        drop(page);
        assert_eq!(a.pending_count(), 1, "version 3 still queued");
    }

    #[test]
    fn conflict_when_page_upgraded_past_tag() {
        let (store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        a.enqueue(&ws(2, 0, 2, 0, 20));
        let id = PageId::heap(TableId(0), 0);
        let cell = store.get(id).unwrap();
        let mut new_tag = VersionVector::new(2);
        new_tag.set(TableId(0), 2);
        a.prepare_read(id, cell, &new_tag).unwrap();
        // now a reader with an older tag arrives
        let mut old_tag = VersionVector::new(2);
        old_tag.set(TableId(0), 1);
        let err = a.prepare_read(id, cell, &old_tag).unwrap_err();
        assert!(matches!(err, DmvError::VersionConflict { wanted: 1, found: 2, .. }));
    }

    #[test]
    fn rewind_serves_the_version_a_newer_read_upgraded_past() {
        let (store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        a.enqueue(&ws(2, 0, 2, 0, 20));
        let id = PageId::heap(TableId(0), 0);
        let cell = store.get(id).unwrap();
        let mut new_tag = VersionVector::new(2);
        new_tag.set(TableId(0), 2);
        a.prepare_read(id, cell, &new_tag).unwrap();
        // prepare_read for the older tag still reports the conflict…
        let mut old_tag = VersionVector::new(2);
        old_tag.set(TableId(0), 1);
        let err = a.prepare_read(id, cell, &old_tag).unwrap_err();
        assert!(matches!(err, DmvError::VersionConflict { wanted: 1, found: 2, .. }));
        // …but the retained reverse steps materialize both old images.
        assert_eq!(a.read_version_at(id, cell, 1).unwrap()[0], 10);
        assert_eq!(a.read_version_at(id, cell, 0).unwrap()[0], 0);
        // A want between recorded transitions is the image below it.
        a.enqueue(&ws(3, 0, 5, 0, 50));
        let mut tag5 = VersionVector::new(2);
        tag5.set(TableId(0), 5);
        a.prepare_read(id, cell, &tag5).unwrap();
        assert_eq!(a.read_version_at(id, cell, 4).unwrap()[0], 20, "no diffs in (2, 5)");
        assert_eq!(cell.latch.read().data()[0], 50, "the shared page is untouched by rewinds");
        assert_eq!(a.history_len(), 3);
    }

    #[test]
    fn rewind_fails_past_the_history_cap() {
        let (store, a) = applier();
        let id = PageId::heap(TableId(0), 0);
        for v in 1..=(HISTORY_LIMIT as u64 + 2) {
            a.enqueue(&ws(v, 0, v, 0, v as u8));
        }
        a.apply_all();
        let cell = store.get(id).unwrap();
        // The two oldest steps fell off the cap: version 2 is the oldest
        // reachable image, version 1 is not.
        assert_eq!(a.history_len(), HISTORY_LIMIT);
        assert_eq!(a.read_version_at(id, cell, 2).unwrap()[0], 2);
        assert!(a.read_version_at(id, cell, 1).is_none());
    }

    #[test]
    fn reclaim_prunes_history_below_the_watermark() {
        let (store, a) = applier();
        for v in 1..=4 {
            a.enqueue(&ws(v, 0, v, 0, v as u8 * 10));
        }
        a.apply_all();
        assert_eq!(a.history_len(), 4);
        let id = PageId::heap(TableId(0), 0);
        let cell = store.get(id).unwrap();
        let mut wm = VersionVector::new(2);
        wm.set(TableId(0), 2);
        a.reclaim_up_to(&wm);
        // Steps with from > 2 survive: 3→2 and 4→3, so any pinned tag
        // (all dominate the watermark) can still be served.
        assert_eq!(a.history_len(), 2);
        assert_eq!(a.read_version_at(id, cell, 2).unwrap()[0], 20);
        assert!(a.read_version_at(id, cell, 1).is_none(), "below the watermark is pruned");
    }

    #[test]
    fn wait_times_out_for_future_version() {
        let (store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        let id = PageId::heap(TableId(0), 0);
        let cell = store.get(id).unwrap();
        let mut tag = VersionVector::new(2);
        tag.set(TableId(0), 5);
        let err = a.prepare_read(id, cell, &tag).unwrap_err();
        assert!(matches!(err, DmvError::Network(_)));
    }

    #[test]
    fn wait_unblocks_when_version_arrives() {
        let store = Arc::new(PageStore::new_free());
        let a = Arc::new(PendingApplier::new(Arc::clone(&store), 2, Duration::from_secs(5)));
        a.enqueue(&ws(1, 0, 1, 0, 10));
        let a2 = Arc::clone(&a);
        let h = dmv_check::thread::spawn(move || {
            let mut tag = VersionVector::new(2);
            tag.set(TableId(0), 2);
            a2.wait_received(&tag)
        });
        std::thread::sleep(Duration::from_millis(30));
        a.enqueue(&ws(2, 0, 2, 0, 20));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn discard_above_removes_partial_broadcasts() {
        let (store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        a.enqueue(&ws(2, 0, 2, 0, 20)); // will be discarded
        let mut keep = VersionVector::new(2);
        keep.set(TableId(0), 1);
        a.discard_above(&keep);
        assert_eq!(a.pending_count(), 1);
        assert_eq!(a.received().get(TableId(0)), 1);
        // applying everything now stops at version 1
        a.apply_all();
        let cell = store.get(PageId::heap(TableId(0), 0)).unwrap();
        assert_eq!(cell.latch.read().version, 1);
        assert_eq!(cell.latch.read().data()[0], 10);
    }

    #[test]
    fn apply_all_catches_up_everything() {
        let (store, a) = applier();
        for v in 1..=5 {
            a.enqueue(&ws(v, 0, v, 0, v as u8 * 10));
        }
        a.apply_all();
        assert_eq!(a.pending_count(), 0);
        let cell = store.get(PageId::heap(TableId(0), 0)).unwrap();
        assert_eq!(cell.latch.read().version, 5);
        assert_eq!(cell.latch.read().data()[0], 50);
    }

    #[test]
    fn idempotent_application_after_migration_image() {
        let (store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        a.enqueue(&ws(2, 0, 2, 0, 20));
        // migration already delivered the page at version 2
        let id = PageId::heap(TableId(0), 0);
        let cell = store.get(id).unwrap();
        {
            let mut page = cell.latch.write();
            page.version = 2;
            page.data_mut()[0] = 20;
        }
        let mut tag = VersionVector::new(2);
        tag.set(TableId(0), 2);
        a.prepare_read(id, cell, &tag).unwrap();
        let page = cell.latch.read();
        assert_eq!(page.version, 2);
        assert_eq!(page.data()[0], 20, "stale diffs must not reapply");
    }

    #[test]
    fn per_table_isolation() {
        let (store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        a.enqueue(&ws(2, 1, 1, 0, 99));
        let id0 = PageId::heap(TableId(0), 0);
        let cell0 = store.get(id0).unwrap();
        let mut tag = VersionVector::new(2);
        tag.set(TableId(0), 1);
        // table 1's version in the tag is 0; reading table 0 is fine
        a.prepare_read(id0, cell0, &tag).unwrap();
        assert_eq!(cell0.latch.read().data()[0], 10);
        // table 1's page remains unapplied
        let id1 = PageId::heap(TableId(1), 0);
        assert_eq!(store.get(id1).unwrap().latch.read().version, 0);
    }

    #[test]
    fn slots_leave_the_map_once_drained_and_pruned() {
        // Regression: the map used to keep one entry per page ever
        // written, so it (and the Arc<WriteSet>s the queues held) grew
        // without bound on a long-lived replica.
        let (_store, a) = applier();
        const N: u64 = 128;
        for n in 0..N {
            a.enqueue(&ws(n + 1, 0, n + 1, n as u32, 10));
        }
        assert_eq!(a.slot_count(), N as usize);
        assert!(a.pending_bytes() > 0);
        a.apply_all();
        assert_eq!(a.pending_count(), 0);
        assert_eq!(a.pending_bytes(), 0);
        assert_eq!(a.slot_count(), N as usize, "each page still holds its reverse step");
        let mut wm = VersionVector::new(2);
        wm.set(TableId(0), N);
        assert_eq!(a.reclaim_up_to(&wm), N as usize);
        assert_eq!(a.slot_count(), 0, "drained and pruned slots must leave the map");
    }

    #[test]
    fn reads_do_not_create_slots() {
        let (store, a) = applier();
        let id = PageId::heap(TableId(0), 7);
        store.get_or_create(id);
        let cell = store.get(id).unwrap();
        let tag = VersionVector::new(2);
        a.prepare_read(id, cell, &tag).unwrap();
        assert!(a.read_version_at(id, cell, 0).is_some());
        assert_eq!(a.slot_count(), 0, "a tagged read of a quiet page must not insert a slot");
    }

    #[test]
    fn reclaim_applies_up_to_the_watermark_and_removes_slots() {
        let (store, a) = applier();
        let w1 = ws(1, 0, 1, 0, 10);
        let w2 = ws(2, 0, 2, 0, 20);
        let w3 = ws(3, 0, 3, 1, 30);
        a.enqueue(&w1);
        a.enqueue(&w2);
        a.enqueue(&w3);
        let mut wm = VersionVector::new(2);
        wm.set(TableId(0), 2);
        let removed = a.reclaim_up_to(&wm);
        assert_eq!(removed, 1, "page 0 drained and pruned; page 1 still holds v3");
        assert_eq!(a.pending_count(), 1);
        assert_eq!(a.slot_count(), 1);
        assert_eq!(Arc::strong_count(&w1), 1, "reclaim released the write-set handle");
        assert_eq!(Arc::strong_count(&w2), 1);
        assert_eq!(Arc::strong_count(&w3), 2, "v3 is above the watermark and stays queued");
        let id = PageId::heap(TableId(0), 0);
        let cell = store.get(id).unwrap();
        assert_eq!(cell.latch.read().version, 2, "reclaim applies, never drops");
        assert_eq!(cell.latch.read().data()[0], 20);
        // The sweep leaves no step behind (it applied at or below the
        // watermark): reads at and above it are exact, below it gone.
        assert_eq!(a.history_len(), 0);
        assert_eq!(a.read_version_at(id, cell, 2).unwrap()[0], 20);
        assert_eq!(a.read_version_at(id, cell, 9).unwrap()[0], 20);
        assert!(a.read_version_at(id, cell, 1).is_none(), "below the watermark is not kept");
        // A reader above the watermark applies the next diff, recording:
        // the watermark image stays reachable from the newer page.
        a.enqueue(&ws(4, 0, 4, 0, 40));
        let mut tag = VersionVector::new(2);
        tag.set(TableId(0), 4);
        a.prepare_read(id, cell, &tag).unwrap();
        assert_eq!(cell.latch.read().data()[0], 40);
        assert_eq!(a.read_version_at(id, cell, 3).unwrap()[0], 20, "no diff in (2, 4)");
        assert_eq!(a.read_version_at(id, cell, 2).unwrap()[0], 20);
        assert!(a.read_version_at(id, cell, 1).is_none());
    }

    #[test]
    fn reclaim_tolerates_pages_ahead_of_the_watermark() {
        let (store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        a.enqueue(&ws(2, 0, 2, 0, 20));
        // A new-tagged reader materializes version 2 first.
        let id = PageId::heap(TableId(0), 0);
        let cell = store.get(id).unwrap();
        let mut tag = VersionVector::new(2);
        tag.set(TableId(0), 2);
        a.prepare_read(id, cell, &tag).unwrap();
        // The cluster watermark lags at 1: a reader pinned there can
        // still need the step back from 2, so the slot keeps exactly it.
        let mut wm = VersionVector::new(2);
        wm.set(TableId(0), 1);
        assert_eq!(a.reclaim_up_to(&wm), 0);
        assert_eq!(a.history_len(), 1);
        assert_eq!(a.read_version_at(id, cell, 1).unwrap()[0], 10);
        assert_eq!(cell.latch.read().version, 2, "the newer materialization is untouched");
        wm.set(TableId(0), 2);
        assert_eq!(a.reclaim_up_to(&wm), 1);
        assert_eq!(a.slot_count(), 0);
    }

    #[test]
    fn enqueue_after_removal_lands_in_a_fresh_slot() {
        let (store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        a.reclaim_up_to(&a.received());
        assert_eq!(a.slot_count(), 0);
        a.enqueue(&ws(2, 0, 2, 0, 20));
        assert_eq!(a.slot_count(), 1);
        assert_eq!(a.pending_count(), 1);
        a.apply_all();
        let cell = store.get(PageId::heap(TableId(0), 0)).unwrap();
        assert_eq!(cell.latch.read().version, 2);
        assert_eq!(cell.latch.read().data()[0], 20);
    }

    #[test]
    fn discard_removes_slots_it_empties() {
        let (_store, a) = applier();
        let w = ws(1, 0, 1, 0, 10);
        a.enqueue(&w);
        a.discard_above(&VersionVector::new(2));
        assert_eq!(a.slot_count(), 0);
        assert_eq!(Arc::strong_count(&w), 1, "the discarded entry released its handle");
    }

    /// Real threads on the pages of one shard: the receiver enqueues, the
    /// GC sweep applies, prunes and removes slots, and tagged readers
    /// apply forward and rewind — all through the one shard lock. Readers
    /// publish the oldest tag they may still use (the epoch pin) and the
    /// sweep stays at or below every pin; the receiver stays fewer than
    /// `HISTORY_LIMIT` versions ahead of the slowest pin. Under those two
    /// rules no read may abort and every image must be exact, no matter
    /// how slot removal and re-creation interleave with the reads.
    #[test]
    fn enqueue_reclaim_and_tagged_reads_race_on_one_shard() {
        use dmv_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        const PAGES: usize = 4;
        const VERSIONS: u64 = 240;
        const READERS: usize = 2;
        const BATCH: usize = 3;
        const WINDOW: u64 = HISTORY_LIMIT as u64 - BATCH as u64 - 1;

        let store = Arc::new(PageStore::new_free());
        let a = Arc::new(PendingApplier::new(Arc::clone(&store), 1, Duration::from_secs(5)));
        let shard = PageId::heap(TableId(0), 0).shard(SHARD_COUNT);
        let pages: Vec<PageId> = (0u32..)
            .map(|n| PageId::heap(TableId(0), n))
            .filter(|id| id.shard(SHARD_COUNT) == shard)
            .take(PAGES)
            .collect();
        // Version v sets byte 0 of every page to v, so the image at tag t
        // is the one whose byte 0 is t.
        let sets: Vec<Arc<WriteSet>> = (1..=VERSIONS)
            .map(|v| {
                let (mut before, mut after) = (vec![0u8; PAGE_SIZE], vec![0u8; PAGE_SIZE]);
                (before[0], after[0]) = ((v - 1) as u8, v as u8);
                let diff = PageDiff::compute(&before, &after);
                Arc::new(WriteSet {
                    txn: TxnId::new(NodeId(0), v),
                    seq: v,
                    versions: VersionVector::from_entries(vec![v]),
                    pages: pages.iter().map(|id| (*id, diff.clone())).collect(),
                })
            })
            .collect();
        let pins: Arc<Vec<AtomicU64>> = Arc::new((0..READERS).map(|_| AtomicU64::new(0)).collect());
        let min_pin = |pins: &[AtomicU64]| {
            pins.iter().map(|p| p.load(Ordering::SeqCst)).min().expect("readers exist")
        };
        let readers_done = Arc::new(AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(READERS + 2));

        let receiver = {
            let (a, pins, start, sets) =
                (Arc::clone(&a), Arc::clone(&pins), Arc::clone(&start), sets.clone());
            dmv_check::thread::spawn(move || {
                start.wait();
                for batch in sets.chunks(BATCH) {
                    while batch[0].seq > min_pin(&pins) + WINDOW {
                        std::thread::yield_now();
                    }
                    a.enqueue_batch(batch);
                }
            })
        };
        let sweeper = {
            let (a, pins, start, done) =
                (Arc::clone(&a), Arc::clone(&pins), Arc::clone(&start), Arc::clone(&readers_done));
            dmv_check::thread::spawn(move || {
                start.wait();
                while !done.load(Ordering::SeqCst) {
                    a.reclaim_up_to(&VersionVector::from_entries(vec![min_pin(&pins)]));
                    std::thread::yield_now();
                }
            })
        };
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (a, store, pins, start, pages) = (
                    Arc::clone(&a),
                    Arc::clone(&store),
                    Arc::clone(&pins),
                    Arc::clone(&start),
                    pages.clone(),
                );
                dmv_check::thread::spawn(move || {
                    // The tagged-read protocol of `Txn::read_page`.
                    let read = |id: PageId, want: u64| -> Option<u8> {
                        let cell = store.get(id).expect("enqueue created the page");
                        let tag = VersionVector::from_entries(vec![want]);
                        match a.prepare_read(id, cell, &tag) {
                            Ok(()) => {
                                let page = cell.latch.read();
                                if page.version <= want {
                                    return Some(page.data()[0]);
                                }
                            }
                            Err(DmvError::VersionConflict { .. }) => {}
                            Err(_) => return None,
                        }
                        a.read_version_at(id, cell, want).map(|image| image[0])
                    };
                    start.wait();
                    // Mismatches are returned, not asserted here: a reader
                    // that died would strand the receiver behind its pin.
                    let (mut wrong, mut pin) = (Vec::new(), 0u64);
                    while pin < VERSIONS {
                        let newest = a.received().get(TableId(0));
                        if newest == pin {
                            std::thread::yield_now();
                            continue;
                        }
                        // Newest first forces an apply, the pin a full
                        // rewind, the midpoint a partial one.
                        for want in [newest, pin, (pin + newest) / 2] {
                            for &id in &pages {
                                let got = read(id, want);
                                if got != Some(want as u8) {
                                    wrong.push(format!("{id} at tag {want}: {got:?}"));
                                }
                            }
                        }
                        pin = newest;
                        pins[r].store(pin, Ordering::SeqCst);
                    }
                    wrong
                })
            })
            .collect();

        receiver.join().expect("receiver");
        for r in readers {
            assert_eq!(r.join().expect("reader"), Vec::<String>::new());
        }
        readers_done.store(true, Ordering::SeqCst);
        sweeper.join().expect("sweeper");

        a.reclaim_up_to(&a.received());
        assert_eq!(a.received().get(TableId(0)), VERSIONS);
        assert_eq!((a.pending_count(), a.pending_bytes()), (0, 0));
        assert_eq!((a.slot_count(), a.history_len()), (0, 0));
        for ws in &sets {
            assert_eq!(Arc::strong_count(ws), 1, "write-set {} still pinned after drain", ws.seq);
        }
        for id in &pages {
            let cell = store.get(*id).unwrap();
            let page = cell.latch.read();
            assert_eq!((page.version, page.data()[0]), (VERSIONS, VERSIONS as u8));
        }
    }

    #[test]
    fn pending_bytes_falls_on_discard() {
        let (_store, a) = applier();
        a.enqueue(&ws(1, 0, 1, 0, 10));
        a.enqueue(&ws(2, 0, 2, 0, 20));
        let full = a.pending_bytes();
        assert!(full > 0);
        let mut keep = VersionVector::new(2);
        keep.set(TableId(0), 1);
        a.discard_above(&keep);
        assert!(a.pending_bytes() < full);
        a.apply_all();
        assert_eq!(a.pending_bytes(), 0);
    }

    #[test]
    fn multi_page_writeset_spreads_across_shards() {
        let store = Arc::new(PageStore::new_free());
        let a = PendingApplier::new(Arc::clone(&store), 2, Duration::from_millis(100));
        let before = vec![0u8; PAGE_SIZE];
        let mut after = before.clone();
        after[0] = 7;
        let diff = PageDiff::compute(&before, &after);
        let mut versions = VersionVector::new(2);
        versions.set(TableId(0), 1);
        let pages: Vec<(PageId, PageDiff)> =
            (0..200u32).map(|n| (PageId::heap(TableId(0), n), diff.clone())).collect();
        let w = Arc::new(WriteSet { txn: TxnId::new(NodeId(0), 1), seq: 1, versions, pages });
        a.enqueue(&w);
        assert_eq!(a.pending_count(), 200);
        // Shards that never saw a page must stay empty; with 200 pages
        // over 64 shards, several must be occupied.
        let occupied = a.slots.iter().filter(|s| !s.lock().is_empty()).count();
        assert!(occupied > 16, "pages concentrated on {occupied} shards");
        a.apply_all();
        assert_eq!(a.pending_count(), 0);
        for n in 0..200u32 {
            let cell = store.get(PageId::heap(TableId(0), n)).unwrap();
            assert_eq!(cell.latch.read().data()[0], 7);
        }
    }
}
