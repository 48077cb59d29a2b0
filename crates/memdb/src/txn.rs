//! Transactions: update transactions on masters, tagged lazy-version
//! reads on slaves, and write-set capture at page granularity.
//!
//! An update transaction has one write path in either
//! [`ConcurrencyMode`]: it reads each page it touches into a private
//! base (the committed image and its commit stamp), writes private
//! copy-on-write copies, and commits through one install. The mode
//! decides only how conflicts are found. Under `TwoPhase` a page is S-
//! or X-locked before it is touched and every lock is held until the
//! transaction ends, so the paper's per-page 2PL orders the writers and
//! validation at install passes by construction. Under `MvccCow` no lock
//! is taken; the install validates first-committer-wins and a loser
//! aborts with a retryable [`DmvError::VersionConflict`].
//!
//! The commit protocol follows the paper's Figure 2:
//!
//! 1. [`Txn::mvcc_install`] validates the read set and installs the
//!    copies as the pages' committed images, and [`Txn::precommit`]
//!    computes the write-set (per-page byte diffs of base against copy),
//!    while all page locks are still held;
//! 2. the replication layer increments the database version vector,
//!    broadcasts the write-set and waits for acknowledgements;
//! 3. [`Txn::commit`] stamps the written pages with their new table
//!    versions and releases all locks.
//!
//! [`Txn::abort`] drops the copies and releases the locks: no shared
//! page is written before the install, so there is nothing to restore.
//! The install overwrites: the master keeps one image per page, and
//! versions are created on the slaves for the tagged readers that ask
//! (see [`TxnMode::ReadLocal`] for what an untagged local read is).

use crate::engine::MemDb;
use crate::heap;
use crate::index::{self, BTreeIndex};
use crate::lock::LockMode;
use crate::mvcc::Install;
use dmv_common::config::ConcurrencyMode;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::fx::FxHashMap;
use dmv_common::ids::{PageId, PageSpace, RowId, TableId, TxnId};
use dmv_common::version::VersionVector;
use dmv_pagestore::diff::PageDiff;
use dmv_pagestore::store::PageCell;
use dmv_pagestore::Image;
use dmv_sql::exec::{ExecContext, Probed, RecordTest, Scanned};
use dmv_sql::row::{Row, RowBatch};
use dmv_sql::schema::Schema;
use dmv_sql::value::Value;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// What kind of transaction this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnMode {
    /// Update transaction: private copy-on-write pages installed at
    /// commit, conflicts found by the engine's [`ConcurrencyMode`] —
    /// per-page two-phase locks, or first-committer-wins validation.
    Update,
    /// Read-only transaction reading the tagged database version through
    /// the engine's [`crate::ReadGate`].
    ReadTagged(VersionVector),
    /// Untagged read of each page's committed image under its latch, in
    /// either concurrency mode: no lock and no snapshot across pages. For
    /// stand-alone or quiescent use — loading, tests, probes, end-of-run
    /// digests; a running cluster tags every read-only transaction and
    /// routes it to a slave.
    ReadLocal,
}

/// An open transaction on a [`MemDb`].
///
/// Dropping an unfinished transaction aborts it.
pub struct Txn<'db> {
    db: &'db MemDb,
    id: TxnId,
    mode: TxnMode,
    dirty_order: Vec<PageId>,
    /// Update: committed image + commit stamp at first read — the read
    /// set validated at install and the before-image of the write-set
    /// diffs. The image is shared with the page, not copied. Tagged
    /// read: the images rewound to the tag.
    bases: FxHashMap<PageId, (u64, Image)>,
    /// Private copy-on-write images of the pages an update wrote; each
    /// becomes its page's committed image at install.
    cow: FxHashMap<PageId, Image>,
    /// The page locks this transaction holds (`TwoPhase` updates only).
    held: FxHashMap<PageId, LockMode>,
    /// Commit stamp drawn by [`Txn::mvcc_install`]; guards the dirty-
    /// flag clear in [`Txn::commit`] against a pipelined later install.
    install_stamp: Option<u64>,
    cpu_owed: std::time::Duration,
    /// What the statement under [`Txn::record_cost`] has read and owed.
    recording: Option<StatementCost>,
    write_intent: bool,
    finished: bool,
}

/// The modeled cost of one statement: the CPU it owed and the pages it
/// read, each once, in first-touch order. Recorded with
/// [`Txn::record_cost`] and owed again with [`Txn::replay_cost`], so a
/// statement answered without running costs what running it did.
#[derive(Debug, Default)]
pub struct StatementCost {
    /// The [`dmv_common::config::CpuProfile`] charge the statement accrued.
    pub cpu: std::time::Duration,
    /// The pages it read.
    pub pages: Vec<PageId>,
}

/// The error for a page that should exist and does not.
fn missing(id: PageId) -> DmvError {
    DmvError::Storage(format!("missing page {id}"))
}

impl<'db> Txn<'db> {
    pub(crate) fn new(db: &'db MemDb, id: TxnId, mode: TxnMode) -> Self {
        Txn {
            db,
            id,
            mode,
            dirty_order: Vec::new(),
            bases: FxHashMap::default(),
            cow: FxHashMap::default(),
            held: FxHashMap::default(),
            install_stamp: None,
            cpu_owed: std::time::Duration::ZERO,
            recording: None,
            write_intent: false,
            finished: false,
        }
    }

    /// Takes the page lock a `TwoPhase` engine orders writers by, held
    /// until the transaction ends, unless one held covers it: X to write,
    /// and to read under declared write intent (an S→X upgrade between two
    /// updaters of one page deadlocks every time), except on index
    /// structure, which writers share and a split upgrades where it
    /// rewrites ([`index::is_structure`]); else S. `MvccCow` takes none
    /// and reads nothing to choose: validation at install finds conflicts.
    fn lock(&mut self, id: PageId, write: bool) -> DmvResult<()> {
        if self.db.concurrency() == ConcurrencyMode::MvccCow {
            return Ok(());
        }
        let held = self.held.get(&id).copied();
        if held == Some(LockMode::Exclusive) {
            return Ok(());
        }
        let structure = || {
            matches!(id.space, PageSpace::Index(_))
                && self.peek_page(id, index::is_structure) == Some(true)
        };
        let exclusive = write || (self.write_intent && !structure());
        let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
        if held != Some(mode) {
            self.db.locks().acquire(self.id, id, mode)?;
            self.held.insert(id, mode);
        }
        Ok(())
    }

    /// The cell of page `id`, which must exist.
    fn cell(&self, id: PageId) -> DmvResult<&'db PageCell> {
        self.db.store().get(id).ok_or_else(|| missing(id))
    }

    /// The base of `id`: the committed image and its stamp, fetched on
    /// first touch.
    fn base(&mut self, id: PageId) -> DmvResult<&(u64, Image)> {
        let db = self.db;
        match self.bases.entry(id) {
            Entry::Occupied(base) => Ok(base.into_mut()),
            Entry::Vacant(slot) => {
                let cell = db.store().get(id).ok_or_else(|| missing(id))?;
                db.store().fault_in(cell);
                Ok(slot.insert(db.mvcc().read_latest(id, cell)))
            }
        }
    }

    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The transaction mode.
    pub fn mode(&self) -> &TxnMode {
        &self.mode
    }

    /// The engine this transaction runs on.
    pub fn db(&self) -> &'db MemDb {
        self.db
    }

    /// Reads page `id` under the mode's consistency protocol and applies
    /// `f` to its bytes.
    ///
    /// # Errors
    ///
    /// `Deadlock` if the page lock would close a cycle of waiting
    /// transactions (update mode), `VersionConflict` if the
    /// page cannot serve the transaction's tag (tagged mode), `Storage`
    /// if the page does not exist.
    pub(crate) fn read_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> DmvResult<R> {
        if let Some(rec) = &mut self.recording {
            rec.pages.push(id);
        }
        match &self.mode {
            TxnMode::Update => {
                self.lock(id, false)?;
                // Our own copy if we wrote the page, else the base
                // captured at first read (repeatable reads).
                if let Some(img) = self.cow.get(&id) {
                    return Ok(f(&img[..]));
                }
                Ok(f(&self.base(id)?.1[..]))
            }
            TxnMode::ReadTagged(tag) => {
                // Rewound images are cached in `bases` for the rest of
                // the transaction: the tag is fixed, so the image at
                // (page, tag) is immutable, and hot pages (B-tree roots)
                // are re-read constantly — re-materializing them per
                // call costs a page copy each time.
                if let Some((_, img)) = self.bases.get(&id) {
                    return Ok(f(&img[..]));
                }
                let want = tag.get(id.table);
                let cell = self.db.store().get_or_create(id);
                self.db.store().fault_in(cell);
                let gate = self.db.gate();
                let mut rewind = |found: u64| {
                    // A page upgraded past the tag by a newer-tagged
                    // reader may still be servable from the gate's
                    // retained version history (multiversion slave);
                    // only an exhausted history aborts.
                    let conflict = DmvError::VersionConflict { page: id, wanted: want, found };
                    let img = gate.read_version_at(id, cell, want).ok_or(conflict)?;
                    self.bases.insert(id, (want, img));
                    Ok(())
                };
                if let Err(e) = gate.prepare_read(id, cell, tag) {
                    if let DmvError::VersionConflict { found, .. } = e {
                        rewind(found)?;
                        return Ok(f(&self.bases[&id].1[..]));
                    }
                    return Err(e);
                }
                let page = cell.latch.read();
                // Re-check under the read latch: a concurrent reader with
                // a higher tag may have upgraded the page after the gate
                // returned (the paper's abort case, absent history).
                if page.version > want {
                    let found = page.version;
                    drop(page);
                    rewind(found)?;
                    return Ok(f(&self.bases[&id].1[..]));
                }
                Ok(f(page.data()))
            }
            TxnMode::ReadLocal => {
                let cell = self.cell(id)?;
                self.db.store().fault_in(cell);
                let page = cell.latch.read();
                Ok(f(page.data()))
            }
        }
    }

    /// Writes page `id`: its first write copies the shared base into a
    /// private copy-on-write buffer, and the shared page is untouched
    /// until the install.
    ///
    /// # Errors
    ///
    /// `InvalidTxnState` outside update mode; `Deadlock` if the page lock
    /// would close a cycle of waiting transactions.
    pub(crate) fn write_page<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> DmvResult<R> {
        if self.mode != TxnMode::Update {
            return Err(DmvError::InvalidTxnState("writes require an update transaction".into()));
        }
        self.lock(id, true)?;
        if !self.cow.contains_key(&id) {
            let base = Arc::clone(&self.base(id)?.1);
            self.cow.insert(id, base);
            self.dirty_order.push(id);
        }
        let cow = self.cow.get_mut(&id).expect("cow entry ensured"); // unwrap-ok: inserted above
                                                                     // Copies the base on first write only: afterwards the buffer is
                                                                     // this transaction's alone.
        Ok(f(&mut Arc::make_mut(cow)[..]))
    }

    /// Peeks at page bytes under the latch only — no lock, no version
    /// materialization. Used as a *hint* (e.g. free-space checks before
    /// choosing an insert target); any decision taken from a peek must
    /// be revalidated by a real read.
    pub(crate) fn peek_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        // Our own copy-on-write image wins: an inserter must see the
        // space *it* already consumed on the page, not the shared
        // committed image.
        if let Some(img) = self.cow.get(&id) {
            return Some(f(&img[..]));
        }
        let cell = self.db.store().get(id)?;
        let page = cell.latch.read();
        Some(f(page.data()))
    }

    /// Allocates a fresh page (update mode only) as a private copy.
    pub(crate) fn allocate_page(&mut self, table: TableId, space: PageSpace) -> DmvResult<PageId> {
        if self.mode != TxnMode::Update {
            return Err(DmvError::InvalidTxnState(
                "allocation requires an update transaction".into(),
            ));
        }
        let (id, cell) = self.db.store().allocate(table, space);
        // The page is already published (the store bumps the count at
        // allocation), so a rival writer may install into it before we
        // take our base — under `TwoPhase`, before our lock is granted.
        // The (stamp, image) pair must be read atomically — `read_latest`
        // holds the shard lock across both — because a torn pair (old
        // image, new stamp) would pass first-committer-wins validation
        // and our install would wipe the rival's committed records.
        self.lock(id, true)?;
        let (stamp, image) = self.db.mvcc().read_latest(id, cell);
        self.bases.insert(id, (stamp, Arc::clone(&image)));
        self.cow.insert(id, image);
        self.dirty_order.push(id);
        Ok(id)
    }

    /// Forgets a freshly [`Txn::allocate_page`]d page this transaction
    /// never usefully wrote (rivals filled it first): drops it from the
    /// private write footprint so commit neither re-installs an
    /// identical image (which would spuriously conflict rivals and can
    /// abort *this* transaction on the stale base stamp) nor
    /// version-stamps an untouched page, and releases its lock, if one
    /// was taken, so rival inserters stop queueing behind a page we will
    /// never touch again. Only sound because the page is provably
    /// unmodified by us — the caller's insert attempt returned "full"
    /// without writing.
    pub(crate) fn forget_fresh_page(&mut self, id: PageId) {
        self.dirty_order.retain(|&p| p != id);
        self.cow.remove(&id);
        self.bases.remove(&id);
        if self.held.remove(&id).is_some() {
            self.db.locks().release_all(self.id, [id]);
        }
    }

    /// Accrues CPU cost, to be settled in one charge at the next
    /// statement boundary (thousands of microsecond-scale charges per
    /// query would drown in OS timer overhead).
    fn owe(&mut self, d: std::time::Duration) {
        self.cpu_owed += d;
        if let Some(rec) = &mut self.recording {
            rec.cpu += d;
        }
    }

    /// Modeled CPU accrued and not yet settled.
    pub fn cpu_owed(&self) -> std::time::Duration {
        self.cpu_owed
    }

    /// Starts recording the [`StatementCost`] of what runs next, until
    /// [`Txn::take_cost`].
    pub fn record_cost(&mut self) {
        self.recording = Some(StatementCost::default());
    }

    /// Stops recording and returns what was read and owed since
    /// [`Txn::record_cost`] (nothing, if it was not called), each page
    /// once.
    pub fn take_cost(&mut self) -> StatementCost {
        let mut cost = self.recording.take().unwrap_or_default();
        let mut seen = std::collections::HashSet::with_capacity(cost.pages.len());
        cost.pages.retain(|id| seen.insert(*id));
        cost
    }

    /// Owes `cost` as if its statement ran again: the same CPU charge,
    /// and every page it read touched once more — faulted in if it has
    /// been evicted since.
    pub fn replay_cost(&mut self, cost: &StatementCost) {
        self.owe(cost.cpu);
        let store = self.db.store();
        for id in &cost.pages {
            if let Some(cell) = store.get(*id) {
                store.fault_in(cell);
            }
        }
    }

    fn settle_cpu(&mut self) {
        let owed = std::mem::take(&mut self.cpu_owed);
        self.db.charge_duration(owed);
    }

    /// Number of heap pages of `table` this transaction can see.
    pub(crate) fn heap_page_count(&self, table: TableId) -> u32 {
        self.db.store().allocated_count(table, PageSpace::Heap)
    }

    /// True if the transaction has modified any page.
    pub fn has_writes(&self) -> bool {
        !self.dirty_order.is_empty()
    }

    /// Tables with at least one dirty page — the write-set's table set,
    /// whose version-vector entries the master increments at commit.
    pub fn write_tables(&self) -> Vec<TableId> {
        let mut v: Vec<TableId> = self.dirty_order.iter().map(|p| p.table).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Computes the write-set: one byte diff per written page, base
    /// against private copy, in first-write order. The diffs are valid
    /// whether or not the install has happened yet, and the transaction
    /// can still abort.
    pub fn precommit(&mut self) -> Vec<(PageId, PageDiff)> {
        self.dirty_order
            .iter()
            .map(|id| (*id, PageDiff::compute(&self.bases[id].1[..], &self.cow[id][..])))
            .filter(|(_, diff)| !diff.is_empty())
            .collect()
    }

    /// The commit point of an update, in either concurrency mode: first-
    /// committer-wins validation of the read set, then install of the
    /// copy-on-write images as the pages' committed versions (the
    /// superseded images are gone: the master keeps no history). Returns
    /// the new commit stamp. Under `TwoPhase` the locks held since each
    /// page was read make validation pass by construction.
    ///
    /// The replication layer calls this inside its commit critical
    /// section, *before* [`Txn::precommit`]'s diffs are broadcast; a
    /// conflict aborts the transaction with no version bump and no
    /// broadcast.
    ///
    /// # Errors
    ///
    /// `InvalidTxnState` if the transaction is not an update; retryable
    /// [`DmvError::VersionConflict`] if any page this transaction read
    /// was committed past the stamp it observed.
    pub fn mvcc_install(&mut self) -> DmvResult<u64> {
        if self.mode != TxnMode::Update {
            return Err(DmvError::InvalidTxnState("mvcc_install requires an update".into()));
        }
        // Deterministic validation order (and error attribution).
        let mut reads: Vec<(PageId, u64)> =
            self.bases.iter().map(|(&id, &(stamp, _))| (id, stamp)).collect();
        reads.sort_unstable_by_key(|&(id, _)| id);
        let cells: Vec<_> = self
            .dirty_order
            .iter()
            .map(|&id| Ok((id, self.cell(id)?)))
            .collect::<DmvResult<_>>()?;
        let writes: Vec<Install<'_>> =
            cells.iter().map(|&(id, cell)| Install { id, cell, image: &self.cow[&id] }).collect();
        let stamp = self.db.mvcc().commit(&reads, &writes)?;
        self.install_stamp = Some(stamp);
        Ok(stamp)
    }

    /// Runs [`Txn::mvcc_install`] if this transaction has writes that
    /// have not been installed yet.
    fn install_if_pending(&mut self) -> DmvResult<()> {
        if self.has_writes() && self.install_stamp.is_none() {
            self.mvcc_install()?;
        }
        Ok(())
    }

    /// Commits: stamps the written pages with their new table versions
    /// (when the replication layer assigned any), clears their dirty
    /// flags and releases all locks. The commit point is
    /// [`Txn::mvcc_install`]; the replication layer calls that first and
    /// this finishes the bookkeeping. Called on an update that has not
    /// installed, it installs first, so writes are never dropped.
    ///
    /// # Panics
    ///
    /// If that implicit install loses first-committer-wins validation:
    /// a stand-alone `MvccCow` writer that can race another must commit
    /// through the fallible [`Txn::try_commit`].
    pub fn commit(mut self, versions: Option<&VersionVector>) {
        if let Err(e) = self.install_if_pending() {
            panic!(
                "Txn::commit could not install its writes ({e}); \
                 concurrent stand-alone writers must use Txn::try_commit"
            );
        }
        self.settle_cpu();
        if let Some(stamp) = self.install_stamp {
            for &id in &self.dirty_order {
                let Some(cell) = self.db.store().get(id) else { continue };
                if let Some(vv) = versions {
                    // Monotone stamp: two pipelined `MvccCow` committers
                    // of the same page (the second read the first's
                    // install) can reach here out of ack order.
                    let mut page = cell.latch.write();
                    page.version = page.version.max(vv.get(id.table));
                }
                // For the same reason only the newest install may clear
                // the flag, or a page whose latest install hasn't been
                // checkpointed becomes evictable early.
                self.db.mvcc().clear_dirty_if_current(id, cell, stamp);
            }
        }
        self.end();
    }

    /// Fallible commit for stand-alone use: [`Txn::commit`], except
    /// that losing the install's first-committer-wins validation is an
    /// error instead of a panic (under `TwoPhase` it cannot fail). The
    /// replication layer does not use this — it interleaves install
    /// with its broadcast sequence.
    ///
    /// # Errors
    ///
    /// Retryable [`DmvError::VersionConflict`] if validation loses
    /// first-committer-wins; the transaction is aborted.
    pub fn try_commit(mut self, versions: Option<&VersionVector>) -> DmvResult<()> {
        if let Err(e) = self.install_if_pending() {
            self.end();
            return Err(e);
        }
        self.commit(versions);
        Ok(())
    }

    /// Aborts: drops the private copies and releases all locks. Before
    /// the install no shared page holds a write of ours; a post-install
    /// abort only happens on a killed node whose local state is
    /// discarded anyway.
    pub fn abort(mut self) {
        self.end();
    }

    /// Settles the CPU owed, drops the private state and releases every
    /// lock: the tail of a commit, and the whole of an abort.
    fn end(&mut self) {
        self.settle_cpu();
        self.dirty_order.clear();
        self.bases.clear();
        self.cow.clear();
        self.install_stamp = None;
        if !self.held.is_empty() {
            self.db.locks().release_all(self.id, self.held.drain().map(|(id, _)| id));
        }
        self.finished = true;
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.end();
        }
    }
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("dirty_pages", &self.dirty_order.len())
            .finish()
    }
}

impl ExecContext for Txn<'_> {
    fn schema(&self) -> &Schema {
        self.db.schema()
    }

    fn scan(
        &mut self,
        table: TableId,
        cols: &[usize],
        keep: Option<RecordTest<'_>>,
        from: u32,
        want: usize,
    ) -> DmvResult<Scanned> {
        // The modeled cost is per record examined, kept or not.
        let (scanned, examined) = heap::scan(self, table, cols, keep, from, want)?;
        self.owe(self.db.cost_scan(examined));
        Ok(scanned)
    }

    fn index_probe(
        &mut self,
        table: TableId,
        index_no: u8,
        keys: &[&[Value]],
        cols: &[usize],
    ) -> DmvResult<Probed> {
        // The modeled cost is per key, as if each were probed alone.
        self.owe(self.db.cost_probe() * keys.len() as u32);
        let (rids, mut ends) = BTreeIndex::new(table, index_no).lookup_many(self, keys)?;
        let (rows, dead) = heap::read_many(self, table, rids, cols)?;
        if !dead.is_empty() {
            // An entry whose row is gone leaves its key's run of rows.
            for end in &mut ends {
                *end -= dead.partition_point(|&at| at < *end);
            }
        }
        self.owe(self.db.cost_scan(rows.len()));
        Ok(Probed { rows, ends })
    }

    fn index_range(
        &mut self,
        table: TableId,
        index_no: u8,
        lo: Option<(&[Value], bool)>,
        hi: Option<(&[Value], bool)>,
        rev: bool,
        limit: Option<usize>,
        cols: &[usize],
    ) -> DmvResult<RowBatch> {
        self.owe(self.db.cost_probe());
        let rids = BTreeIndex::new(table, index_no).range(self, lo, hi, rev, limit)?;
        let (rows, _) = heap::read_many(self, table, rids, cols)?;
        self.owe(self.db.cost_scan(rows.len()));
        Ok(rows)
    }

    fn insert(&mut self, table: TableId, row: Row) -> DmvResult<RowId> {
        self.writing(|txn| txn.insert_inner(table, row))
    }

    fn update(&mut self, table: TableId, rid: RowId, row: Row) -> DmvResult<()> {
        self.writing(|txn| txn.update_inner(table, rid, row))
    }

    fn delete(&mut self, table: TableId, rid: RowId) -> DmvResult<()> {
        self.writing(|txn| txn.delete_inner(table, rid))
    }

    fn flush_costs(&mut self) {
        self.settle_cpu();
    }

    fn set_write_intent(&mut self, on: bool) {
        self.write_intent = on;
    }
}

impl Txn<'_> {
    /// Runs a write under write intent, so all of it (unique probes, index
    /// descents, heap writes) reads for writing: probing a leaf with S and
    /// then upgrading to X deadlocks against a concurrent writer.
    fn writing<R>(&mut self, f: impl FnOnce(&mut Self) -> DmvResult<R>) -> DmvResult<R> {
        let prev = std::mem::replace(&mut self.write_intent, true);
        let out = f(self);
        self.write_intent = prev;
        out
    }

    fn insert_inner(&mut self, table: TableId, row: Row) -> DmvResult<RowId> {
        let ts = self.db.schema().table(table)?;
        // Unique checks before any mutation, so a duplicate leaves no
        // trace even within this transaction.
        for (ix_no, ix) in ts.indexes.iter().enumerate() {
            if ix.unique {
                let key = ix.key_of(&row);
                let hits = BTreeIndex::new(table, ix_no as u8).lookup_eq(self, &key)?;
                if !hits.is_empty() {
                    return Err(DmvError::DuplicateKey(format!("{} on {}", ix.name, ts.name)));
                }
            }
        }
        let rid = heap::insert(self, table, &row)?;
        for (ix_no, ix) in ts.indexes.iter().enumerate() {
            BTreeIndex::new(table, ix_no as u8).insert(self, &ix.key_of(&row), rid)?;
        }
        self.owe(self.db.cost_write(1));
        Ok(rid)
    }

    fn update_inner(&mut self, table: TableId, rid: RowId, row: Row) -> DmvResult<()> {
        let ts = self.db.schema().table(table)?;
        let old = heap::read(self, table, rid)?
            .ok_or_else(|| DmvError::NotFound(format!("row {rid} in {}", ts.name)))?;
        // Unique checks for keys that change.
        for (ix_no, ix) in ts.indexes.iter().enumerate() {
            if ix.unique {
                let new_key = ix.key_of(&row);
                if new_key != ix.key_of(&old) {
                    let hits = BTreeIndex::new(table, ix_no as u8).lookup_eq(self, &new_key)?;
                    if !hits.is_empty() {
                        return Err(DmvError::DuplicateKey(format!("{} on {}", ix.name, ts.name)));
                    }
                }
            }
        }
        let new_rid = heap::update(self, table, rid, &row)?;
        for (ix_no, ix) in ts.indexes.iter().enumerate() {
            let btree = BTreeIndex::new(table, ix_no as u8);
            let old_key = ix.key_of(&old);
            let new_key = ix.key_of(&row);
            if old_key != new_key || new_rid != rid {
                btree.delete(self, &old_key, rid)?;
                btree.insert(self, &new_key, new_rid)?;
            }
        }
        self.owe(self.db.cost_write(1));
        Ok(())
    }

    fn delete_inner(&mut self, table: TableId, rid: RowId) -> DmvResult<()> {
        let ts = self.db.schema().table(table)?;
        let old = heap::read(self, table, rid)?
            .ok_or_else(|| DmvError::NotFound(format!("row {rid} in {}", ts.name)))?;
        heap::delete(self, table, rid)?;
        for (ix_no, ix) in ts.indexes.iter().enumerate() {
            BTreeIndex::new(table, ix_no as u8).delete(self, &ix.key_of(&old), rid)?;
        }
        self.owe(self.db.cost_write(1));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDbOptions;
    use dmv_common::config::CpuProfile;
    use dmv_sql::exec::execute;
    use dmv_sql::query::{Access, AggFn, Join, Query, Select};
    use dmv_sql::schema::{ColType, Column, IndexDef, TableSchema};
    use std::collections::BTreeSet;
    use std::time::Duration;

    /// The modeled CPU cost of a BestSellers-shaped select — order lines
    /// of the recent orders ⋈ items ⋈ authors, grouped by item — is one
    /// probe for the base range plus one per distinct item and per
    /// distinct author key, and one row charge per row an index read
    /// returned: what probing key by key, each distinct key once, costs.
    /// Resolving a join's keys as a set changes the real CPU, not this.
    #[test]
    fn a_set_probe_is_charged_per_distinct_key_and_per_row() {
        let int = |name: &str| Column::new(name, ColType::Int);
        let (lines, items, authors) = (TableId(0), TableId(1), TableId(2));
        let schema = Schema::new(vec![
            TableSchema::new(
                lines,
                "line",
                vec![int("l_id"), int("l_o_id"), int("l_i_id"), int("l_qty")],
                vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_order", vec![1])],
            ),
            TableSchema::new(
                items,
                "item",
                vec![int("i_id"), Column::new("i_title", ColType::Str), int("i_a_id")],
                vec![IndexDef::unique("pk", vec![0])],
            ),
            TableSchema::new(
                authors,
                "author",
                vec![int("a_id")],
                vec![IndexDef::unique("pk", vec![0])],
            ),
        ]);
        // A probe is a millisecond, a row a nanosecond: the sum reads as
        // `probes . rows`.
        let cpu = CpuProfile {
            per_index_probe: Duration::from_millis(1),
            per_row_scan: Duration::from_nanos(1),
            per_row_write: Duration::ZERO,
        };
        let db = MemDb::new(schema, MemDbOptions { cpu, ..MemDbOptions::default() });
        let mut load = db.begin_update();
        for a in 0..7i64 {
            load.insert(authors, vec![a.into()]).unwrap();
        }
        for i in 0..40i64 {
            load.insert(items, vec![i.into(), format!("title {}", i % 9).into(), (i % 7).into()])
                .unwrap();
        }
        // Line `l` of order `l / 3` sells item `l * l % 40`.
        let item_of = |l: i64| l * l % 40;
        for l in 0..90i64 {
            load.insert(lines, vec![l.into(), (l / 3).into(), item_of(l).into(), 1.into()])
                .unwrap();
        }
        load.cpu_owed = Duration::ZERO;
        load.commit(None);

        let from_order = 12;
        let q = Select::scan(lines)
            .access(Access::IndexRange {
                index_no: 1,
                lo: Some((vec![from_order.into()], true)),
                hi: None,
                rev: false,
                scan_limit: None,
            })
            .join(Join { table: items, left_col: 2, right_col: 0, right_index: Some(0) })
            .join(Join { table: authors, left_col: 4 + 2, right_col: 0, right_index: Some(0) })
            .group(vec![4, 5], vec![AggFn::Sum(3)])
            .order_by(2, true)
            .limit(5);
        let in_range: Vec<i64> = (0..90).filter(|l| l / 3 >= from_order).collect();
        let sold: BTreeSet<i64> = in_range.iter().map(|&l| item_of(l)).collect();
        let by: BTreeSet<i64> = sold.iter().map(|i| i % 7).collect();
        assert!(sold.len() < in_range.len() && by.len() < sold.len(), "keys repeat at both joins");

        let mut txn = db.begin_read_local();
        assert_eq!(execute(&mut txn, &Query::Select(q)).unwrap().rows.len(), 5);
        let probes = 1 + sold.len() + by.len();
        let rows = in_range.len() + sold.len() + by.len();
        let want = Duration::from_millis(probes as u64) + Duration::from_nanos(rows as u64);
        assert_eq!(txn.cpu_owed, want, "{probes} probes, {rows} rows");
        txn.cpu_owed = Duration::ZERO; // nothing to sleep off
        txn.commit(None);
    }

    /// The twin of the test above where nothing is unique: the lines join
    /// the items through a non-unique index (a shelf holds five items),
    /// and the groups are titles, which no unique index covers. Summing a
    /// line column alone, the executor aggregates below the joins; with an
    /// aggregate over an item column it joins every line. Both are charged
    /// alike: one probe per distinct key, one row per row read.
    #[test]
    fn a_set_probe_through_a_non_unique_index_is_charged_alike_on_both_paths() {
        let int = |name: &str| Column::new(name, ColType::Int);
        let (lines, items, authors) = (TableId(0), TableId(1), TableId(2));
        let schema = Schema::new(vec![
            TableSchema::new(
                lines,
                "line",
                vec![int("l_id"), int("l_o_id"), int("l_shelf"), int("l_qty")],
                vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_order", vec![1])],
            ),
            TableSchema::new(
                items,
                "item",
                vec![
                    int("i_id"),
                    Column::new("i_title", ColType::Str),
                    int("i_a_id"),
                    int("i_shelf"),
                ],
                vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_shelf", vec![3])],
            ),
            TableSchema::new(
                authors,
                "author",
                vec![int("a_id")],
                vec![IndexDef::unique("pk", vec![0])],
            ),
        ]);
        let cpu = CpuProfile {
            per_index_probe: Duration::from_millis(1),
            per_row_scan: Duration::from_nanos(1),
            per_row_write: Duration::ZERO,
        };
        let db = MemDb::new(schema, MemDbOptions { cpu, ..MemDbOptions::default() });
        let mut load = db.begin_update();
        for a in 0..7i64 {
            load.insert(authors, vec![a.into()]).unwrap();
        }
        // Item `i` stands on shelf `i % 8` and is by author `i % 7`.
        for i in 0..40i64 {
            let title = format!("title {}", i % 9);
            load.insert(items, vec![i.into(), title.into(), (i % 7).into(), (i % 8).into()])
                .unwrap();
        }
        // Line `l` of order `l / 3` sells from shelf `l * l % 12`: shelves
        // 8 to 11 do not exist.
        let shelf_of = |l: i64| l * l % 12;
        for l in 0..90i64 {
            load.insert(lines, vec![l.into(), (l / 3).into(), shelf_of(l).into(), 1.into()])
                .unwrap();
        }
        load.cpu_owed = Duration::ZERO;
        load.commit(None);

        let from_order = 12;
        let in_range: Vec<i64> = (0..90).filter(|l| l / 3 >= from_order).collect();
        let shelves: BTreeSet<i64> = in_range.iter().map(|&l| shelf_of(l)).collect();
        let on_them: Vec<i64> = (0..40).filter(|i| shelves.contains(&(i % 8))).collect();
        let by: BTreeSet<i64> = on_them.iter().map(|i| i % 7).collect();
        assert!(shelves.iter().any(|&s| s >= 8) && on_them.len() > shelves.len());
        let probes = 1 + shelves.len() + by.len();
        let rows = in_range.len() + on_them.len() + by.len();
        let want = Duration::from_millis(probes as u64) + Duration::from_nanos(rows as u64);

        for aggs in [vec![AggFn::Sum(3)], vec![AggFn::Sum(3), AggFn::Max(4)]] {
            let q = Select::scan(lines)
                .access(Access::IndexRange {
                    index_no: 1,
                    lo: Some((vec![from_order.into()], true)),
                    hi: None,
                    rev: false,
                    scan_limit: None,
                })
                .join(Join { table: items, left_col: 2, right_col: 3, right_index: Some(1) })
                .join(Join { table: authors, left_col: 4 + 2, right_col: 0, right_index: Some(0) })
                .group(vec![5], aggs.clone())
                .order_by(1, true)
                .limit(5);
            let mut txn = db.begin_read_local();
            assert_eq!(execute(&mut txn, &Query::Select(q)).unwrap().rows.len(), 5);
            assert_eq!(txn.cpu_owed, want, "{aggs:?}: {probes} probes, {rows} rows");
            txn.cpu_owed = Duration::ZERO; // nothing to sleep off
            txn.commit(None);
        }
    }

    /// An index entry whose heap slot is dead (no consistent read meets
    /// one; the engine skips them all the same) drops out of its key's
    /// run of rows, and the runs after it still end where they should.
    #[test]
    fn a_dead_slot_leaves_its_keys_run() {
        let t = TableId(0);
        let schema = Schema::new(vec![TableSchema::new(
            t,
            "t",
            vec![Column::new("id", ColType::Int), Column::new("k", ColType::Int)],
            vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_k", vec![1])],
        )]);
        let db = MemDb::new(schema, MemDbOptions::default());
        let mut txn = db.begin_update();
        let rids: Vec<RowId> =
            (0..9i64).map(|id| txn.insert(t, vec![id.into(), (id / 3).into()]).unwrap()).collect();
        // Rows 4 (k = 1) and 6 (k = 2) vanish from the heap alone.
        for gone in [4, 6] {
            heap::delete(&mut txn, t, rids[gone]).unwrap();
        }
        let keys = [[Value::Int(0)], [Value::Int(1)], [Value::Int(2)], [Value::Int(3)]];
        let keys: Vec<&[Value]> = keys.iter().map(|k| &k[..]).collect();
        let found = txn.index_probe(t, 1, &keys, &[0]).unwrap();
        let ids: Vec<i64> = found.rows.into_rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, [0, 1, 2, 3, 5, 7, 8]);
        assert_eq!(found.ends, [3, 5, 7, 7]);
        txn.abort();
    }
}
