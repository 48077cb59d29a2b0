//! Slotted-page layout for variable-length records.
//!
//! Layout within a [`crate::PAGE_SIZE`] page:
//!
//! ```text
//! [0..2)  slot count (u16, little endian)
//! [2..4)  cell_start: offset of the lowest allocated cell byte
//! [4..)   slot directory, 4 bytes per slot: offset u16, len u16
//! ...     free space
//! [cell_start..PAGE_SIZE)  record cells, growing downward
//! ```
//!
//! A slot with offset `0xFFFF` is *dead* and may be reused by a later
//! insert; record bytes of dead slots are reclaimed by [`compact`].
//! Records keep their slot index for their lifetime, so `(page, slot)`
//! row ids remain stable across in-page updates.

use crate::page::PAGE_SIZE;

const HDR: usize = 4;
const SLOT_BYTES: usize = 4;
const DEAD: u16 = 0xFFFF;

/// Largest record a single page can hold.
pub const MAX_RECORD: usize = PAGE_SIZE - HDR - SLOT_BYTES;

fn get_u16(d: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([d[at], d[at + 1]])
}

fn put_u16(d: &mut [u8], at: usize, v: u16) {
    d[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn slot_entry(d: &[u8], slot: u16) -> (u16, u16) {
    let at = HDR + SLOT_BYTES * slot as usize;
    (get_u16(d, at), get_u16(d, at + 2))
}

fn set_slot_entry(d: &mut [u8], slot: u16, offset: u16, len: u16) {
    let at = HDR + SLOT_BYTES * slot as usize;
    put_u16(d, at, offset);
    put_u16(d, at + 2, len);
}

/// Initializes an empty slotted page.
pub fn init(d: &mut [u8]) {
    debug_assert_eq!(d.len(), PAGE_SIZE);
    put_u16(d, 0, 0);
    put_u16(d, 2, PAGE_SIZE as u16);
}

/// Initializes the page only if its header is still zeroed (a fresh,
/// never-written allocation); an already-used page is left untouched.
///
/// `cell_start == 0` uniquely identifies a virgin page: [`init`] sets it
/// to `PAGE_SIZE`, and inserts only ever move it down to the end of the
/// slot directory (≥ `HDR`), never to zero. Callers that allocate a
/// page which is *published* before they first write it (so a concurrent
/// inserter may legitimately have used it already) must use this instead
/// of [`init`] — re-initializing would wipe the rival's records.
pub fn ensure_init(d: &mut [u8]) {
    if get_u16(d, 2) == 0 {
        init(d);
    }
}

/// Number of slot directory entries (live + dead).
pub fn slot_count(d: &[u8]) -> u16 {
    get_u16(d, 0)
}

fn cell_start(d: &[u8]) -> usize {
    get_u16(d, 2) as usize
}

/// Contiguous free bytes between the slot directory and the cell area.
pub fn contiguous_free(d: &[u8]) -> usize {
    cell_start(d).saturating_sub(HDR + SLOT_BYTES * slot_count(d) as usize)
}

/// Total reclaimable free bytes (contiguous + dead-record cells).
pub fn total_free(d: &[u8]) -> usize {
    let live: usize = live_slots(d).map(|s| slot_entry(d, s).1 as usize).sum();
    PAGE_SIZE - HDR - SLOT_BYTES * slot_count(d) as usize - live
}

/// Iterator over live slot indices.
pub fn live_slots(d: &[u8]) -> impl Iterator<Item = u16> + '_ {
    (0..slot_count(d)).filter(|&s| slot_entry(d, s).0 != DEAD)
}

/// Number of live records.
pub fn live_count(d: &[u8]) -> usize {
    live_slots(d).count()
}

/// Reads the record in `slot`, or `None` if the slot is dead or out of
/// range.
pub fn read(d: &[u8], slot: u16) -> Option<&[u8]> {
    if slot >= slot_count(d) {
        return None;
    }
    let (off, len) = slot_entry(d, slot);
    if off == DEAD {
        return None;
    }
    Some(&d[off as usize..off as usize + len as usize])
}

/// Repacks live cells against the end of the page, preserving slot
/// indices, and reclaims dead-record space.
pub fn compact(d: &mut [u8]) {
    let n = slot_count(d);
    // Collect live records (slot, bytes), then rewrite cells from the end.
    let mut live: Vec<(u16, Vec<u8>)> = Vec::with_capacity(n as usize);
    for s in 0..n {
        let (off, len) = slot_entry(d, s);
        if off != DEAD {
            live.push((s, d[off as usize..(off + len) as usize].to_vec()));
        }
    }
    let mut cursor = PAGE_SIZE;
    for (s, bytes) in &live {
        cursor -= bytes.len();
        d[cursor..cursor + bytes.len()].copy_from_slice(bytes);
        set_slot_entry(d, *s, cursor as u16, bytes.len() as u16);
    }
    put_u16(d, 2, cursor as u16);
}

fn find_dead_slot(d: &[u8]) -> Option<u16> {
    (0..slot_count(d)).find(|&s| slot_entry(d, s).0 == DEAD)
}

/// Inserts a record, compacting first if fragmented. Returns the slot, or
/// `None` if the page cannot hold the record.
///
/// # Panics
///
/// Panics if `rec` exceeds [`MAX_RECORD`].
pub fn insert(d: &mut [u8], rec: &[u8]) -> Option<u16> {
    assert!(rec.len() <= MAX_RECORD, "record of {} bytes exceeds page capacity", rec.len());
    let reuse = find_dead_slot(d);
    let slot_overhead = if reuse.is_some() { 0 } else { SLOT_BYTES };
    if contiguous_free(d) < rec.len() + slot_overhead {
        if total_free(d) < rec.len() + slot_overhead {
            return None;
        }
        compact(d);
        if contiguous_free(d) < rec.len() + slot_overhead {
            return None;
        }
    }
    let new_start = cell_start(d) - rec.len();
    d[new_start..new_start + rec.len()].copy_from_slice(rec);
    put_u16(d, 2, new_start as u16);
    let slot = match reuse {
        Some(s) => s,
        None => {
            let s = slot_count(d);
            put_u16(d, 0, s + 1);
            s
        }
    };
    set_slot_entry(d, slot, new_start as u16, rec.len() as u16);
    Some(slot)
}

/// Deletes the record in `slot`. Returns `false` if the slot was already
/// dead or out of range.
pub fn delete(d: &mut [u8], slot: u16) -> bool {
    if slot >= slot_count(d) || slot_entry(d, slot).0 == DEAD {
        return false;
    }
    set_slot_entry(d, slot, DEAD, 0);
    true
}

/// Replaces the record in `slot` with `rec`, in place when it fits,
/// otherwise by reallocating within the page (compacting if needed).
/// Returns `false` if the slot is dead/out of range or the page cannot
/// hold the new record (caller must relocate the row to another page).
pub fn update(d: &mut [u8], slot: u16, rec: &[u8]) -> bool {
    if slot >= slot_count(d) {
        return false;
    }
    let (off, len) = slot_entry(d, slot);
    if off == DEAD {
        return false;
    }
    if rec.len() <= len as usize {
        let off = off as usize;
        d[off..off + rec.len()].copy_from_slice(rec);
        set_slot_entry(d, slot, off as u16, rec.len() as u16);
        return true;
    }
    // Grow: free the old cell, then allocate a new one.
    set_slot_entry(d, slot, DEAD, 0);
    if contiguous_free(d) < rec.len() {
        if total_free(d) < rec.len() {
            // Roll back the tombstone so the row stays readable.
            set_slot_entry(d, slot, off, len);
            return false;
        }
        compact(d);
    }
    let new_start = cell_start(d) - rec.len();
    d[new_start..new_start + rec.len()].copy_from_slice(rec);
    put_u16(d, 2, new_start as u16);
    set_slot_entry(d, slot, new_start as u16, rec.len() as u16);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Vec<u8> {
        let mut d = vec![0u8; PAGE_SIZE];
        init(&mut d);
        d
    }

    #[test]
    fn ensure_init_preserves_used_page() {
        let mut d = vec![0u8; PAGE_SIZE];
        ensure_init(&mut d);
        assert_eq!(slot_count(&d), 0);
        let s = insert(&mut d, b"kept").unwrap();
        // a second ensure_init (e.g. a racing allocator) must not wipe
        // the record the way a blind init would
        ensure_init(&mut d);
        assert_eq!(read(&d, s), Some(&b"kept"[..]));
    }

    #[test]
    fn insert_into_zeroed_page_works() {
        // A freshly allocated (all-zero) page is insertable without an
        // explicit init: the compact path rewrites the header.
        let mut d = vec![0u8; PAGE_SIZE];
        let s = insert(&mut d, b"first").unwrap();
        assert_eq!(read(&d, s), Some(&b"first"[..]));
        assert_eq!(live_count(&d), 1);
    }

    #[test]
    fn insert_and_read() {
        let mut d = page();
        let s = insert(&mut d, b"hello").unwrap();
        assert_eq!(read(&d, s), Some(&b"hello"[..]));
        assert_eq!(live_count(&d), 1);
    }

    #[test]
    fn multiple_inserts_have_distinct_slots() {
        let mut d = page();
        let a = insert(&mut d, b"aaa").unwrap();
        let b = insert(&mut d, b"bbbb").unwrap();
        assert_ne!(a, b);
        assert_eq!(read(&d, a), Some(&b"aaa"[..]));
        assert_eq!(read(&d, b), Some(&b"bbbb"[..]));
    }

    #[test]
    fn delete_then_reuse_slot() {
        let mut d = page();
        let a = insert(&mut d, b"one").unwrap();
        let _b = insert(&mut d, b"two").unwrap();
        assert!(delete(&mut d, a));
        assert_eq!(read(&d, a), None);
        let c = insert(&mut d, b"three").unwrap();
        assert_eq!(c, a, "dead slot should be reused");
        assert_eq!(read(&d, c), Some(&b"three"[..]));
    }

    #[test]
    fn delete_twice_fails() {
        let mut d = page();
        let a = insert(&mut d, b"x").unwrap();
        assert!(delete(&mut d, a));
        assert!(!delete(&mut d, a));
        assert!(!delete(&mut d, 99));
    }

    #[test]
    fn update_in_place_shrink() {
        let mut d = page();
        let a = insert(&mut d, b"longrecord").unwrap();
        assert!(update(&mut d, a, b"tiny"));
        assert_eq!(read(&d, a), Some(&b"tiny"[..]));
    }

    #[test]
    fn update_grow_reallocates() {
        let mut d = page();
        let a = insert(&mut d, b"ab").unwrap();
        let b = insert(&mut d, b"cd").unwrap();
        assert!(update(&mut d, a, b"a much longer record now"));
        assert_eq!(read(&d, a), Some(&b"a much longer record now"[..]));
        assert_eq!(read(&d, b), Some(&b"cd"[..]));
    }

    #[test]
    fn page_fills_and_rejects() {
        let mut d = page();
        let rec = [7u8; 100];
        let mut n = 0;
        while insert(&mut d, &rec).is_some() {
            n += 1;
        }
        // 100-byte records + 4-byte slots: expect ~39 of them
        assert!(n >= 35, "only {n} records fit");
        assert!(insert(&mut d, &rec).is_none());
        // but after deleting one, there is room again
        assert!(delete(&mut d, 0));
        assert!(insert(&mut d, &rec).is_some());
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut d = page();
        let mut slots = Vec::new();
        let rec = [1u8; 200];
        while let Some(s) = insert(&mut d, &rec) {
            slots.push(s);
        }
        // delete every other record, then insert one 300-byte record:
        // requires compaction because free space is fragmented
        for s in slots.iter().step_by(2) {
            assert!(delete(&mut d, *s));
        }
        let big = [2u8; 300];
        let s = insert(&mut d, &big).expect("compaction should make room");
        assert_eq!(read(&d, s), Some(&big[..]));
        // survivors intact
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(read(&d, *s), Some(&rec[..]));
        }
    }

    #[test]
    fn update_too_big_for_page_preserves_row() {
        let mut d = page();
        let a = insert(&mut d, &[1u8; 100]).unwrap();
        let _ = insert(&mut d, &[2u8; 3000]).unwrap();
        let huge = [3u8; 2000];
        assert!(!update(&mut d, a, &huge));
        assert_eq!(read(&d, a), Some(&[1u8; 100][..]), "failed update must not lose the row");
    }

    #[test]
    fn zero_length_record_is_live() {
        let mut d = page();
        let s = insert(&mut d, b"").unwrap();
        assert_eq!(read(&d, s), Some(&b""[..]));
        assert_eq!(live_count(&d), 1);
        assert!(delete(&mut d, s));
        assert_eq!(live_count(&d), 0);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>),
        Update(usize, Vec<u8>),
        Delete(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..300).prop_map(Op::Insert),
            (any::<usize>(), proptest::collection::vec(any::<u8>(), 0..300))
                .prop_map(|(i, r)| Op::Update(i, r)),
            any::<usize>().prop_map(Op::Delete),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn slotted_page_matches_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
            let mut d = vec![0u8; PAGE_SIZE];
            init(&mut d);
            let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
            let mut known_slots: Vec<u16> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(rec) => {
                        if let Some(s) = insert(&mut d, &rec) {
                            model.insert(s, rec);
                            if !known_slots.contains(&s) { known_slots.push(s); }
                        }
                    }
                    Op::Update(i, rec) => {
                        if known_slots.is_empty() { continue; }
                        let s = known_slots[i % known_slots.len()];
                        let ok = update(&mut d, s, &rec);
                        match model.entry(s) {
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                // failed grow must preserve the old record
                                if ok { e.insert(rec); }
                            }
                            std::collections::hash_map::Entry::Vacant(_) => {
                                prop_assert!(!ok, "update of dead slot succeeded");
                            }
                        }
                    }
                    Op::Delete(i) => {
                        if known_slots.is_empty() { continue; }
                        let s = known_slots[i % known_slots.len()];
                        let ok = delete(&mut d, s);
                        prop_assert_eq!(ok, model.remove(&s).is_some());
                    }
                }
                // model equivalence after every step
                prop_assert_eq!(live_count(&d), model.len());
                for (&s, rec) in &model {
                    prop_assert_eq!(read(&d, s), Some(&rec[..]));
                }
            }
        }
    }
}
