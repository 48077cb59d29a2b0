//! Heap storage: rows in slotted pages.
//!
//! Rows are addressed by stable `(page, slot)` [`RowId`]s; an update that
//! no longer fits its page relocates the row (returning the new id so the
//! caller can fix the indexes).
//!
//! The heap is concurrency-control agnostic: it reads and writes pages
//! only through [`Txn`], so its writes land in the transaction's private
//! copy-on-write buffers, after an exclusive lock under per-page 2PL.
//! The free-space *peek* below reads no lock in either mode
//! (`Txn::peek_page` checks the peeker's own COW copy first, so an
//! inserter sees space it has itself consumed); a stale peek costs only
//! a retry against the next page.

use crate::txn::Txn;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{PageId, PageSpace, RowId, TableId};
use dmv_pagestore::slotted;
use dmv_sql::exec::{RecordTest, Scanned};
use dmv_sql::row::{decode_cols_into, decode_row, encode_row, Row, RowBatch};

/// Inserts `row` into the table's heap, returning its new id.
///
/// # Errors
///
/// Propagates lock and storage errors; `Storage` if the encoded row
/// exceeds a page.
pub fn insert(txn: &mut Txn<'_>, table: TableId, row: &Row) -> DmvResult<RowId> {
    let bytes = encode_row(row);
    if bytes.len() > slotted::MAX_RECORD {
        return Err(DmvError::Storage(format!("row of {} bytes exceeds page size", bytes.len())));
    }
    // Try the hint page, then every later page, then allocate. Free
    // space is *peeked* under the latch first — exclusive-locking a full
    // page just to discover it is full would hold that lock until commit
    // (2PL) and serialize every concurrent inserter behind it.
    let count = txn.heap_page_count(table);
    let hint = txn.db().insert_hint(table).min(count.saturating_sub(1));
    for page_no in (hint..count).chain(0..hint) {
        let id = PageId::heap(table, page_no);
        let looks_roomy =
            txn.peek_page(id, |d| slotted::total_free(d) >= bytes.len() + 8).unwrap_or(false);
        if !looks_roomy {
            continue;
        }
        let slot = txn.write_page(id, |d| slotted::insert(d, &bytes))?;
        if let Some(slot) = slot {
            txn.db().set_insert_hint(table, page_no);
            return Ok(RowId::new(page_no, slot));
        }
    }
    // A fresh allocation is *published* (page count bumped, cell in the
    // store) before this transaction takes its base of it (after the
    // lock, under 2PL) — so a
    // concurrent inserter may discover the page through the count and use
    // it first. `ensure_init` leaves such a rival's records intact where
    // a blind re-init would wipe them, and if rivals filled the page
    // before we got to it we simply allocate another.
    for _ in 0..FRESH_PAGE_RACES {
        let id = txn.allocate_page(table, PageSpace::Heap)?;
        let slot = txn.write_page(id, |d| {
            slotted::ensure_init(d);
            slotted::insert(d, &bytes)
        })?;
        if let Some(slot) = slot {
            txn.db().set_insert_hint(table, id.page_no);
            return Ok(RowId::new(id.page_no, slot));
        }
        // Race lost outright: rivals filled the page to the brim before
        // our first write landed, so we never modified it. Drop it from
        // the transaction's footprint — kept, it would re-install an
        // identical image at commit (spurious conflicts for MVCC
        // rivals, possible abort of *this* transaction on the stale
        // base) and, under 2PL, pin an X lock rival inserters keep
        // queueing on — before trying the next allocation.
        txn.forget_fresh_page(id);
    }
    Err(DmvError::Storage(format!("{FRESH_PAGE_RACES} fresh pages filled by rival inserters")))
}

/// Attempts at winning a usable slot on a freshly allocated page before
/// the inserter gives up; each lost race costs one abandoned (rival-
/// filled) page in the store — dropped from the loser's transaction
/// footprint by `forget_fresh_page` — so in practice one retry
/// suffices.
const FRESH_PAGE_RACES: usize = 16;

/// Reads the whole row at `rid`, or `None` if the slot is dead.
///
/// # Errors
///
/// Propagates lock/version errors and decode failures.
pub fn read(txn: &mut Txn<'_>, table: TableId, rid: RowId) -> DmvResult<Option<Row>> {
    let id = PageId::heap(table, rid.page_no);
    txn.read_page(id, |d| slotted::read(d, rid.slot).map(decode_row).transpose())?
}

/// Columns `cols` (strictly ascending) of the rows at `rids`, as one
/// batch in `rids` order, and the positions in `rids` (ascending) whose
/// slot was dead — the batch leaves those out. Every page is visited once
/// — one pass through the transaction's read protocol per page, not per
/// row — and each row is decoded from the page bytes straight into its
/// place in the batch. Row ids that ascend by page (an index walk over
/// rows inserted in key order) are taken as they come; only others are
/// grouped by page first.
///
/// # Errors
///
/// Propagates lock/version errors and decode failures.
pub fn read_many(
    txn: &mut Txn<'_>,
    table: TableId,
    rids: Vec<RowId>,
    cols: &[usize],
) -> DmvResult<(RowBatch, Vec<usize>)> {
    // Positions in `rids` grouped by page — unless they already are.
    let mut grouped = Vec::new();
    if !rids.is_sorted_by_key(|rid| rid.page_no) {
        grouped = (0..rids.len()).collect();
        grouped.sort_by_key(|&i| rids[i].page_no);
    }
    let at = |k: usize| if grouped.is_empty() { k } else { grouped[k] };
    let mut batch = RowBatch::nulls(rids, cols.len());
    let mut dead = Vec::new();
    let mut from = 0;
    while from < batch.len() {
        let page_no = batch.rids()[at(from)].page_no;
        let on_page = (from..batch.len()).take_while(|&k| batch.rids()[at(k)].page_no == page_no);
        let to = from + on_page.count();
        // Under the page latch: decoding, nothing else.
        txn.read_page(PageId::heap(table, page_no), |d| {
            for i in (from..to).map(at) {
                match slotted::read(d, batch.rids()[i].slot) {
                    Some(rec) => decode_cols_into(rec, cols, batch.row_mut(i))?,
                    None => dead.push(i),
                }
            }
            Ok::<(), DmvError>(())
        })??;
        from = to;
    }
    dead.sort_unstable();
    batch.remove_rows(&dead);
    Ok((batch, dead))
}

/// Replaces the row at `rid`, relocating it if it no longer fits its
/// page. Returns the row's (possibly new) id.
///
/// # Errors
///
/// `NotFound` if the slot is dead; propagates lock/storage errors.
pub fn update(txn: &mut Txn<'_>, table: TableId, rid: RowId, row: &Row) -> DmvResult<RowId> {
    let bytes = encode_row(row);
    let id = PageId::heap(table, rid.page_no);
    let in_place = txn.write_page(id, |d| {
        if slotted::read(d, rid.slot).is_none() {
            None
        } else {
            Some(slotted::update(d, rid.slot, &bytes))
        }
    })?;
    match in_place {
        None => Err(DmvError::NotFound(format!("row {rid}"))),
        Some(true) => Ok(rid),
        Some(false) => {
            // Relocate: delete here, insert elsewhere.
            txn.write_page(id, |d| slotted::delete(d, rid.slot))?;
            insert(txn, table, row)
        }
    }
}

/// Deletes the row at `rid`.
///
/// # Errors
///
/// `NotFound` if the slot is already dead.
pub fn delete(txn: &mut Txn<'_>, table: TableId, rid: RowId) -> DmvResult<()> {
    let id = PageId::heap(table, rid.page_no);
    let ok = txn.write_page(id, |d| slotted::delete(d, rid.slot))?;
    if ok {
        Ok(())
    } else {
        Err(DmvError::NotFound(format!("row {rid}")))
    }
}

/// Columns `cols` (strictly ascending) of the live rows of the table that
/// `keep` accepts (all of them without a test), page by page from page
/// `from`, as one batch — the [`ExecContext::scan`] contract. `keep` sees
/// each live record's bytes under the page latch, and only a record it
/// accepts is decoded. The scan stops after the page on which the `want`th
/// row was kept. Returns the rows, the page a further scan resumes from,
/// and how many records were examined (tested, or taken untested).
///
/// [`ExecContext::scan`]: dmv_sql::exec::ExecContext::scan
///
/// # Errors
///
/// Propagates lock/version errors, decode failures and `keep`'s errors.
pub fn scan(
    txn: &mut Txn<'_>,
    table: TableId,
    cols: &[usize],
    keep: Option<RecordTest<'_>>,
    from: u32,
    want: usize,
) -> DmvResult<(Scanned, usize)> {
    let mut rows = RowBatch::new(cols.len());
    let mut examined = 0;
    let count = txn.heap_page_count(table);
    let mut page_no = from;
    while page_no < count {
        // Under the page latch: the record test and decoding, nothing else.
        txn.read_page(PageId::heap(table, page_no), |d| {
            for slot in slotted::live_slots(d) {
                if let Some(rec) = slotted::read(d, slot) {
                    examined += 1;
                    if keep.map_or(Ok(true), |keep| keep(rec))? {
                        decode_cols_into(rec, cols, rows.push_null_row(RowId::new(page_no, slot)))?;
                    }
                }
            }
            Ok::<(), DmvError>(())
        })??;
        page_no += 1;
        if rows.len() >= want {
            break;
        }
    }
    let next = (page_no < count).then_some(page_no);
    Ok((Scanned { rows, next }, examined))
}
