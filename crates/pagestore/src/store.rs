//! Concurrent page store with per-page latches and an mmap-style
//! residency model.
//!
//! Every replica's database (heap pages + index pages of every table)
//! lives in one `PageStore`. Pages are latched individually with
//! reader-writer locks — the per-page granularity is what lets different
//! read-only transactions materialize different versions of *different*
//! pages concurrently on the same replica.
//!
//! The **residency** model reproduces the paper's buffer-cache effects:
//! the in-memory databases mmap an on-disk image, so a page's first touch
//! on a cold replica incurs a page-in. [`PageStore::fault_in`] charges
//! that cost (in scaled paper time) for non-resident pages; fail-over
//! warmup strategies work by making spare backups touch pages ahead of
//! time.

use crate::page::Page;
use dmv_common::clock::SimClock;
use dmv_common::ids::{PageId, PageSpace, TableId};
use dmv_common::throttle::Throttle;
// Shimmed primitives for the page table's publication protocol:
// std/parking_lot in normal builds, model-checked under
// `--cfg dmv_check` (see crates/check).
use dmv_check::sync::atomic::AtomicU64 as PublishedCount;
use dmv_check::sync::Mutex as GrowLock;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Store-wide residency accounting, shared into every [`PageCell`] so
/// [`PageCell::set_resident`] itself keeps the counts exact — no matter
/// which crate flips the flag. Replaces the old `resident_count` scan
/// (a read-lock plus a full-map walk per call) with one atomic load.
#[derive(Debug, Default)]
pub struct ResidencyCounters {
    resident: AtomicU64,
    high_water: AtomicU64,
    evictions: AtomicU64,
}

impl ResidencyCounters {
    fn on_resident(&self) {
        // relaxed-ok: occupancy counters are eventually-consistent diagnostics, never ordered against page data
        let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed); // relaxed-ok: diagnostics high-water mark
    }

    fn on_evicted(&self) {
        self.resident.fetch_sub(1, Ordering::Relaxed); // relaxed-ok: occupancy counter, see on_resident
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.resident.load(Ordering::Relaxed) // relaxed-ok: occupancy counter, see on_resident
    }

    /// Highest resident-page count ever observed.
    pub fn high_water_pages(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed) // relaxed-ok: diagnostics high-water mark
    }

    /// Pages evicted by the budget clock so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed) // relaxed-ok: diagnostics counter
    }
}

/// A page plus its latch and residency/dirtiness metadata.
#[derive(Debug)]
pub struct PageCell {
    /// Reader-writer latch protecting the page image and version.
    pub latch: RwLock<Page>,
    resident: AtomicBool,
    dirty: AtomicBool,
    /// Second-chance bit for the budget clock: set on every touch,
    /// cleared (once) by a passing clock hand before eviction.
    referenced: AtomicBool,
    counters: Arc<ResidencyCounters>,
}

impl PageCell {
    fn new(page: Page, resident: bool, counters: Arc<ResidencyCounters>) -> Self {
        if resident {
            counters.on_resident();
        }
        PageCell {
            latch: RwLock::new(page),
            resident: AtomicBool::new(resident),
            dirty: AtomicBool::new(false),
            referenced: AtomicBool::new(resident),
            counters,
        }
    }

    /// Whether the page is currently in (simulated) physical memory.
    pub fn is_resident(&self) -> bool {
        self.resident.load(Ordering::Acquire)
    }

    /// Marks the page resident (a touch) or non-resident (eviction),
    /// keeping the store-wide [`ResidencyCounters`] exact.
    pub fn set_resident(&self, r: bool) {
        let was = self.resident.swap(r, Ordering::AcqRel);
        if was == r {
            return;
        }
        if r {
            self.referenced.store(true, Ordering::Release);
            self.counters.on_resident();
        } else {
            self.counters.on_evicted();
        }
    }

    /// Records a touch for the budget clock's second-chance pass. A page
    /// already marked is only read, so threads touching one hot page do
    /// not pass its line back and forth.
    pub fn mark_referenced(&self) {
        if !self.referenced.load(Ordering::Acquire) {
            self.referenced.store(true, Ordering::Release);
        }
    }

    /// Whether the page holds uncommitted modifications. Dirty pages are
    /// skipped by fuzzy checkpoints (paper §4.4).
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    /// Sets the uncommitted-modification flag.
    pub fn set_dirty(&self, d: bool) {
        self.dirty.store(d, Ordering::Release);
    }
}

/// Residency cost model: what a page-in costs in paper time.
///
/// Page-ins go through a [`Throttle`] modeling the node's single disk
/// arm: concurrent faults queue rather than overlapping, so warming a
/// large cold cache takes proportional time (the paper's cache-warmup
/// phases).
#[derive(Debug, Clone)]
pub struct Residency {
    throttle: Throttle,
    fault_latency: Duration,
}

impl Residency {
    /// A model charging `fault_latency` (paper time) per page-in on a
    /// dedicated single-arm disk.
    pub fn new(clock: SimClock, fault_latency: Duration) -> Self {
        Residency { throttle: Throttle::new(clock, 1), fault_latency }
    }

    /// A model sharing an existing disk throttle (e.g. with the node's
    /// WAL).
    pub fn with_throttle(throttle: Throttle, fault_latency: Duration) -> Self {
        Residency { throttle, fault_latency }
    }

    /// A free model for pure-logic tests: faults cost nothing.
    pub fn free() -> Self {
        Residency { throttle: Throttle::new(SimClock::default(), 1), fault_latency: Duration::ZERO }
    }

    /// The configured fault latency.
    pub fn fault_latency(&self) -> Duration {
        self.fault_latency
    }

    fn charge(&self) {
        self.throttle.charge(self.fault_latency);
    }
}

/// The budget clock's sweep state: every page id in insertion order
/// plus the hand position. Ids are only ever appended (the page table
/// never shrinks), so the ring needs no removal protocol.
#[derive(Debug, Default)]
struct ClockState {
    ring: Vec<PageId>,
    hand: usize,
}

/// Slots in a [`Dense`] table's first chunk, as a power of two.
const FIRST_BITS: u32 = 4;

/// Chunks of a [`Dense`] table: chunk `k` holds `2^(FIRST_BITS + k)`
/// slots, so 29 chunks cover every `u32` index.
const CHUNKS: usize = 29;

/// An append-only table indexed by a dense number. Chunk `k` holds
/// twice the slots of chunk `k - 1` and is allocated on the first fill
/// of one of its slots, so memory grows with the highest index in use
/// and a filled slot never moves: a lookup is two indexings and hands
/// out a reference that lives as long as the table.
struct Dense<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
}

impl<T> Default for Dense<T> {
    fn default() -> Self {
        Dense { chunks: std::array::from_fn(|_| OnceLock::new()) }
    }
}

impl<T> Dense<T> {
    /// Chunk and offset of index `i`.
    fn locate(i: u32) -> (usize, usize) {
        let j = u64::from(i) + (1 << FIRST_BITS);
        let k = 63 - j.leading_zeros() - FIRST_BITS;
        (k as usize, (j - (1 << (FIRST_BITS + k))) as usize)
    }

    fn get(&self, i: u32) -> Option<&T> {
        let (k, at) = Self::locate(i);
        self.chunks[k].get()?[at].get()
    }

    /// The slot at `i`, filled with `init()` if it was empty.
    fn get_or_init(&self, i: u32, init: impl FnOnce() -> T) -> &T {
        let (k, at) = Self::locate(i);
        let chunk = self.chunks[k].get_or_init(|| {
            (0..1usize << (FIRST_BITS as usize + k)).map(|_| OnceLock::new()).collect()
        });
        chunk[at].get_or_init(init)
    }

    /// Every filled slot with its index, in index order.
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.chunks.iter().enumerate().filter_map(|(k, c)| c.get().map(|c| (k, c))).flat_map(
            |(k, chunk)| {
                let first = (1u64 << (FIRST_BITS as usize + k)) - (1 << FIRST_BITS);
                chunk.iter().enumerate().filter_map(move |(at, slot)| {
                    slot.get().map(|t| ((first + at as u64) as u32, t))
                })
            },
        )
    }
}

/// The pages of one `(table, space)`.
struct Space {
    pages: Dense<PageCell>,
    /// Published allocation count: valid page numbers are below it.
    /// Stored (Release) only after the slot of the page it newly covers
    /// is filled, so a reader that loads it (Acquire) finds every page
    /// that was allocated below it.
    count: PublishedCount,
}

impl Default for Space {
    fn default() -> Self {
        Space { pages: Dense::default(), count: PublishedCount::new(0) }
    }
}

/// Index of a page space within its table's [`Dense`] of spaces.
fn space_no(space: PageSpace) -> u32 {
    match space {
        PageSpace::Heap => 0,
        PageSpace::Index(n) => 1 + u32::from(n),
    }
}

/// Concurrent page table for one replica's database: per table, per
/// space, a `Dense` table of cells indexed by page number.
pub struct PageStore {
    tables: Dense<Dense<Space>>,
    /// Serializes the allocators and creators of pages; readers never
    /// take it.
    grow: GrowLock<()>,
    /// Cells filled so far, counted as each is made, just before its
    /// slot takes it.
    filled: PublishedCount,
    /// Test hook: publish a new page's count before filling its slot.
    publish_before_fill: AtomicBool,
    residency: Residency,
    faults: AtomicU64,
    counters: Arc<ResidencyCounters>,
    /// Resident-byte ceiling; `0` disables the evictor.
    budget_bytes: AtomicU64,
    clock_state: Mutex<ClockState>,
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStore")
            .field("pages", &self.len())
            .field("resident", &self.resident_count())
            .finish()
    }
}

impl PageStore {
    /// Creates an empty store with the given residency model.
    pub fn new(residency: Residency) -> Self {
        PageStore {
            tables: Dense::default(),
            grow: GrowLock::new(()),
            filled: PublishedCount::new(0),
            publish_before_fill: AtomicBool::new(false),
            residency,
            faults: AtomicU64::new(0),
            counters: Arc::new(ResidencyCounters::default()),
            budget_bytes: AtomicU64::new(0),
            clock_state: Mutex::new(ClockState::default()),
        }
    }

    /// Creates a store with a free residency model (for tests).
    pub fn new_free() -> Self {
        Self::new(Residency::free())
    }

    fn space(&self, table: TableId, space: PageSpace) -> Option<&Space> {
        self.tables.get(u32::from(table.0))?.get(space_no(space))
    }

    fn space_or_init(&self, table: TableId, space: PageSpace) -> &Space {
        self.tables
            .get_or_init(u32::from(table.0), Dense::default)
            .get_or_init(space_no(space), Space::default)
    }

    /// Fills the slot of `id` with a zeroed resident page and raises the
    /// space's count to cover it, in that order unless the test hook
    /// inverts it. The caller holds `grow`. Returns the cell and whether
    /// this call created it.
    fn fill<'s>(&self, space: &'s Space, id: PageId) -> (&'s PageCell, bool) {
        let covers = u64::from(id.page_no) + 1;
        let publish = || {
            if space.count.load(Ordering::Acquire) < covers {
                space.count.store(covers, Ordering::Release);
            }
        };
        if self.publish_before_fill.load(Ordering::Acquire) {
            publish();
        }
        let mut created = false;
        let cell = space.pages.get_or_init(id.page_no, || {
            created = true;
            self.filled.fetch_add(1, Ordering::AcqRel);
            PageCell::new(Page::new(), true, Arc::clone(&self.counters))
        });
        publish();
        (cell, created)
    }

    /// Records a created page with the budget clock and enforces the
    /// budget, after `grow` is released.
    fn on_created(&self, id: PageId) {
        self.clock_state.lock().ring.push(id);
        self.enforce_budget();
    }

    /// Allocates the next page in `(table, space)`. The fresh page is
    /// zeroed, resident, at version 0.
    pub fn allocate(&self, table: TableId, space: PageSpace) -> (PageId, &PageCell) {
        let sp = self.space_or_init(table, space);
        let grow = self.grow.lock();
        let page_no =
            u32::try_from(sp.count.load(Ordering::Acquire)).expect("page numbers fit u32"); // unwrap-ok: a space of 2^32 pages is 16 TiB
        let id = PageId { table, space, page_no };
        let (cell, _) = self.fill(sp, id);
        drop(grow);
        self.on_created(id);
        (id, cell)
    }

    /// Looks up a page: two indexings per level, no lock, no hash.
    pub fn get(&self, id: PageId) -> Option<&PageCell> {
        self.space(id.table, id.space)?.pages.get(id.page_no)
    }

    /// Looks up a page, creating a zeroed resident page if absent.
    ///
    /// Slaves use this when a replicated write-set references a page the
    /// master allocated; the space's count is raised past it so a later
    /// promotion to master continues from the right page number. Pages
    /// below it that this node never saw stay empty slots.
    pub fn get_or_create(&self, id: PageId) -> &PageCell {
        if let Some(c) = self.get(id) {
            return c;
        }
        let sp = self.space_or_init(id.table, id.space);
        let grow = self.grow.lock();
        let (cell, created) = self.fill(sp, id);
        drop(grow);
        if created {
            self.on_created(id);
        }
        cell
    }

    /// Number of pages allocated (or mirrored) in `(table, space)` —
    /// i.e. valid page numbers are `0..allocated_count(..)`.
    pub fn allocated_count(&self, table: TableId, space: PageSpace) -> u32 {
        self.space(table, space).map_or(0, |sp| sp.count.load(Ordering::Acquire) as u32)
    }

    /// True if the page exists.
    pub fn contains(&self, id: PageId) -> bool {
        self.get(id).is_some()
    }

    /// Every cell with its id, table by table and space by space in
    /// page order.
    fn cells(&self) -> impl Iterator<Item = (PageId, &PageCell)> {
        self.tables.iter().flat_map(|(t, spaces)| {
            spaces.iter().flat_map(move |(s, sp)| {
                let table = TableId(t as u16);
                let space = if s == 0 { PageSpace::Heap } else { PageSpace::Index((s - 1) as u8) };
                sp.pages.iter().map(move |(page_no, c)| (PageId { table, space, page_no }, c))
            })
        })
    }

    /// Snapshot of all page ids, in (table, space, page) order.
    pub fn page_ids(&self) -> Vec<PageId> {
        self.cells().map(|(id, _)| id).collect()
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.filled.load(Ordering::Acquire) as usize
    }

    /// True if the store holds no pages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Test hook: publish a new page's count before filling its slot, so
    /// a reader can see a count that covers an empty slot. A deliberate
    /// bug — the dmv-check model suite must catch it.
    pub fn set_publish_before_fill_for_test(&self, on: bool) {
        self.publish_before_fill.store(on, Ordering::Release);
    }

    /// Ensures `cell` is resident, charging the page-in cost if it was
    /// not. Returns `true` if a fault was taken.
    pub fn fault_in(&self, cell: &PageCell) -> bool {
        cell.mark_referenced();
        if cell.is_resident() {
            return false;
        }
        self.residency.charge();
        cell.set_resident(true);
        self.faults.fetch_add(1, Ordering::Relaxed); // relaxed-ok: fault diagnostics counter
        self.enforce_budget();
        true
    }

    /// Total page faults taken so far.
    pub fn fault_count(&self) -> u64 {
        self.faults.load(Ordering::Relaxed) // relaxed-ok: fault diagnostics counter
    }

    /// Number of resident pages — one atomic load; the counters are
    /// maintained by [`PageCell::set_resident`] itself.
    pub fn resident_count(&self) -> usize {
        self.counters.resident_pages() as usize
    }

    /// Resident bytes (all pages are [`crate::PAGE_SIZE`]).
    pub fn resident_bytes(&self) -> u64 {
        self.counters.resident_pages() * crate::PAGE_SIZE as u64
    }

    /// The store-wide residency counters (current, high-water,
    /// evictions), for benches and oracles.
    pub fn residency_counters(&self) -> &ResidencyCounters {
        &self.counters
    }

    /// Sets the resident-byte budget (`0` disables eviction) and
    /// immediately enforces it.
    pub fn set_budget_bytes(&self, bytes: u64) {
        self.budget_bytes.store(bytes, Ordering::Release);
        self.enforce_budget();
    }

    /// The configured resident-byte budget (`0` = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes.load(Ordering::Acquire)
    }

    /// Clock/second-chance eviction down to the budget: sweeps the page
    /// ring from the hand, skipping non-resident and dirty pages,
    /// clearing the referenced bit on the first pass and evicting on
    /// the second. Bounded at two full revolutions per call, so a
    /// working set of hot (recently-referenced) pages larger than the
    /// budget degrades to a bounded overage instead of livelock.
    pub fn enforce_budget(&self) {
        let budget = self.budget_bytes();
        if budget == 0 || self.resident_bytes() <= budget {
            return;
        }
        let mut clock = self.clock_state.lock();
        let n = clock.ring.len();
        if n == 0 {
            return;
        }
        let mut scanned = 0usize;
        while self.resident_bytes() > budget && scanned < 2 * n {
            let id = clock.ring[clock.hand];
            clock.hand = (clock.hand + 1) % n;
            scanned += 1;
            let Some(cell) = self.get(id) else { continue };
            if !cell.is_resident() || cell.is_dirty() {
                continue;
            }
            if cell.referenced.swap(false, Ordering::AcqRel) {
                continue; // second chance: survives one hand pass
            }
            cell.set_resident(false);
            // relaxed-ok: diagnostics counter, nothing ordered against it
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks every page non-resident (a completely cold cache, as on a
    /// just-booted or long-idle spare backup).
    pub fn evict_all(&self) {
        for (_, c) in self.cells() {
            c.set_resident(false);
        }
    }

    /// The residency model.
    pub fn residency(&self) -> &Residency {
        &self.residency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::clock::TimeScale;

    #[test]
    fn allocate_sequential_page_numbers() {
        let s = PageStore::new_free();
        let (a, _) = s.allocate(TableId(0), PageSpace::Heap);
        let (b, _) = s.allocate(TableId(0), PageSpace::Heap);
        let (c, _) = s.allocate(TableId(0), PageSpace::Index(0));
        assert_eq!(a.page_no, 0);
        assert_eq!(b.page_no, 1);
        assert_eq!(c.page_no, 0, "index space has its own counter");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn dense_slots_cross_chunk_boundaries_in_order() {
        let mut seen = std::collections::HashSet::new();
        for i in (0..5000).chain([u32::MAX - 1, u32::MAX]) {
            let (k, at) = Dense::<()>::locate(i);
            assert!(at < 1 << (FIRST_BITS as usize + k), "index {i} past its chunk");
            assert!(seen.insert((k, at)), "index {i} shares a slot");
        }
        let s = PageStore::new_free();
        for _ in 0..200 {
            s.allocate(TableId(2), PageSpace::Index(1));
        }
        let _ = s.get_or_create(PageId::heap(TableId(2), 40));
        let ids = s.page_ids();
        assert_eq!(ids.len(), 201);
        assert_eq!(ids[0], PageId::heap(TableId(2), 40), "heap space comes first");
        assert!(ids[1..].iter().zip(0..).all(|(id, n)| *id == PageId::index(TableId(2), 1, n)));
        assert!(s.get(PageId::heap(TableId(2), 39)).is_none(), "a gap stays an empty slot");
        assert_eq!(s.allocated_count(TableId(2), PageSpace::Heap), 41);
    }

    /// `allocated_count` must never cover a page that `get` cannot see:
    /// lock-free MVCC readers probe the count and then fetch the page
    /// with no lock held in between (regression: `allocate` used to
    /// publish the count before inserting the cell).
    #[test]
    fn allocated_count_never_covers_a_missing_page() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let s = &PageStore::new_free();
        let done = &AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..2000 {
                    s.allocate(TableId(0), PageSpace::Index(0));
                }
                done.store(true, Ordering::Release);
            });
            for _ in 0..3 {
                scope.spawn(|| {
                    let space = PageSpace::Index(0);
                    while !done.load(Ordering::Acquire) {
                        let n = s.allocated_count(TableId(0), space);
                        for no in 0..n {
                            let id = PageId { table: TableId(0), space, page_no: no };
                            assert!(
                                s.get(id).is_some(),
                                "count {n} covers page {no} but get() found nothing"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn get_or_create_advances_allocator() {
        let s = PageStore::new_free();
        let id = PageId::heap(TableId(1), 5);
        let _ = s.get_or_create(id);
        assert!(s.contains(id));
        let (next, _) = s.allocate(TableId(1), PageSpace::Heap);
        assert_eq!(next.page_no, 6, "allocation must skip mirrored pages");
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let s = PageStore::new_free();
        let id = PageId::heap(TableId(0), 0);
        let a = s.get_or_create(id);
        let b = s.get_or_create(id);
        assert!(std::ptr::eq(a, b));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fault_in_charges_once() {
        let s = PageStore::new_free();
        let (_, cell) = s.allocate(TableId(0), PageSpace::Heap);
        assert!(!s.fault_in(cell), "fresh pages are resident");
        cell.set_resident(false);
        assert!(s.fault_in(cell));
        assert!(!s.fault_in(cell));
        assert_eq!(s.fault_count(), 1);
    }

    #[test]
    fn evict_all_makes_cold() {
        let s = PageStore::new_free();
        for _ in 0..5 {
            s.allocate(TableId(0), PageSpace::Heap);
        }
        assert_eq!(s.resident_count(), 5);
        s.evict_all();
        assert_eq!(s.resident_count(), 0);
    }

    #[test]
    fn fault_latency_is_charged_in_scaled_time() {
        let clock = SimClock::new(TimeScale::new(0.001)); // 1 paper-s = 1 ms
        let s = PageStore::new(Residency::new(clock, Duration::from_secs(2)));
        let (_, cell) = s.allocate(TableId(0), PageSpace::Heap);
        cell.set_resident(false);
        let t0 = std::time::Instant::now();
        s.fault_in(cell);
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn resident_counter_tracks_flag_flips_exactly() {
        let s = PageStore::new_free();
        let cells: Vec<_> = (0..4).map(|_| s.allocate(TableId(0), PageSpace::Heap).1).collect();
        assert_eq!(s.resident_count(), 4);
        cells[0].set_resident(false);
        cells[1].set_resident(false);
        assert_eq!(s.resident_count(), 2);
        // Redundant flips must not skew the count.
        cells[0].set_resident(false);
        cells[2].set_resident(true);
        assert_eq!(s.resident_count(), 2);
        cells[0].set_resident(true);
        assert_eq!(s.resident_count(), 3);
        assert_eq!(s.resident_bytes(), 3 * crate::PAGE_SIZE as u64);
        assert_eq!(s.residency_counters().high_water_pages(), 4);
    }

    #[test]
    fn budget_clock_evicts_down_to_the_budget() {
        let s = PageStore::new_free();
        for _ in 0..8 {
            s.allocate(TableId(0), PageSpace::Heap);
        }
        assert_eq!(s.resident_count(), 8);
        s.set_budget_bytes(4 * crate::PAGE_SIZE as u64);
        assert_eq!(s.resident_count(), 4, "evictor must land exactly on the budget");
        assert_eq!(s.residency_counters().evictions(), 4);
        assert_eq!(s.residency_counters().high_water_pages(), 8);
        // New allocations keep the budget enforced.
        for _ in 0..4 {
            s.allocate(TableId(0), PageSpace::Heap);
        }
        assert_eq!(s.resident_count(), 4);
    }

    #[test]
    fn budget_clock_skips_dirty_pages() {
        let s = PageStore::new_free();
        let cells: Vec<_> = (0..4).map(|_| s.allocate(TableId(0), PageSpace::Heap).1).collect();
        for c in &cells {
            c.set_dirty(true);
        }
        s.set_budget_bytes(crate::PAGE_SIZE as u64);
        assert_eq!(s.resident_count(), 4, "dirty pages are not evictable");
        for c in &cells {
            c.set_dirty(false);
        }
        s.enforce_budget();
        assert_eq!(s.resident_count(), 1);
    }

    #[test]
    fn second_chance_spares_recently_referenced_pages() {
        let s = PageStore::new_free();
        let (_, hot) = s.allocate(TableId(0), PageSpace::Heap);
        for _ in 0..3 {
            s.allocate(TableId(0), PageSpace::Heap);
        }
        // One full budget pass clears every referenced bit…
        s.set_budget_bytes(2 * crate::PAGE_SIZE as u64);
        assert_eq!(s.resident_count(), 2);
        // …then a touch re-arms the hot page: tightening the budget to
        // one page must evict some *other* resident page first.
        s.fault_in(hot);
        s.set_budget_bytes(crate::PAGE_SIZE as u64);
        assert_eq!(s.resident_count(), 1);
        assert!(hot.is_resident(), "referenced page evicted before cold pages");
    }

    #[test]
    fn retouch_after_eviction_charges_a_fault() {
        let s = PageStore::new_free();
        let (_, first) = s.allocate(TableId(0), PageSpace::Heap);
        for _ in 0..3 {
            s.allocate(TableId(0), PageSpace::Heap);
        }
        s.set_budget_bytes(2 * crate::PAGE_SIZE as u64);
        // enforce_budget evicted the two oldest (first in the ring).
        assert!(!first.is_resident());
        let faults_before = s.fault_count();
        assert!(s.fault_in(first), "re-touch of an evicted page must fault");
        assert_eq!(s.fault_count(), faults_before + 1);
        assert!(s.resident_count() <= 3);
    }

    #[test]
    fn zero_budget_disables_eviction() {
        let s = PageStore::new_free();
        for _ in 0..16 {
            s.allocate(TableId(0), PageSpace::Heap);
        }
        s.enforce_budget();
        assert_eq!(s.resident_count(), 16);
        assert_eq!(s.residency_counters().evictions(), 0);
        assert_eq!(s.budget_bytes(), 0);
    }

    #[test]
    fn dirty_flag_roundtrip() {
        let s = PageStore::new_free();
        let (_, cell) = s.allocate(TableId(0), PageSpace::Heap);
        assert!(!cell.is_dirty());
        cell.set_dirty(true);
        assert!(cell.is_dirty());
        cell.set_dirty(false);
        assert!(!cell.is_dirty());
    }

    #[test]
    fn concurrent_readers_share_latch() {
        let s = PageStore::new_free();
        let (_, cell) = s.allocate(TableId(0), PageSpace::Heap);
        let g1 = cell.latch.read();
        let g2 = cell.latch.try_read();
        assert!(g2.is_some());
        drop(g1);
    }

    #[test]
    fn writer_excludes_readers() {
        let s = PageStore::new_free();
        let (_, cell) = s.allocate(TableId(0), PageSpace::Heap);
        let w = cell.latch.write();
        assert!(cell.latch.try_read().is_none());
        drop(w);
        assert!(cell.latch.try_read().is_some());
    }
}
