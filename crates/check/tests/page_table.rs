//! Model test for the page table's publication protocol
//! (`dmv-pagestore`).
//!
//! Run with `RUSTFLAGS="--cfg dmv_check" cargo test -p dmv-check`.
//!
//! A space's published count is what a heap scan and an index probe
//! read before they fetch pages by number with no lock held, so it must
//! never cover a slot that is still empty: `allocate` and
//! `get_or_create` fill the slot first and publish the count after. The
//! checker explores every interleaving of an allocator, a creator and a
//! reader against the real [`PageStore`], and a bug twin that publishes
//! first shows the check is load-bearing.

#![cfg(dmv_check)]

use std::sync::Arc;

use dmv_check::{model_result, thread, ModelOptions};
use dmv_common::ids::{PageId, PageSpace, TableId};
use dmv_pagestore::store::{PageStore, Residency};

const T: TableId = TableId(0);

/// An allocator and a creator of page 0 race a reader that checks every
/// page below the count it loads, twice.
fn racing_fills(publish_before_fill: bool) -> Result<dmv_check::Report, dmv_check::Failure> {
    model_result(ModelOptions::default(), move || {
        let store = Arc::new(PageStore::new(Residency::free()));
        store.set_publish_before_fill_for_test(publish_before_fill);
        let allocator = {
            let store = Arc::clone(&store);
            thread::spawn(move || store.allocate(T, PageSpace::Heap).0)
        };
        let creator = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                store.get_or_create(PageId::heap(T, 0));
            })
        };
        for _ in 0..2 {
            let n = store.allocated_count(T, PageSpace::Heap);
            for no in 0..n {
                assert!(
                    store.get(PageId::heap(T, no)).is_some(),
                    "count {n} covers the empty slot of page {no}"
                );
            }
        }
        let allocated = allocator.join().expect("join allocator");
        creator.join().expect("join creator");
        assert!(store.contains(allocated) && store.contains(PageId::heap(T, 0)));
        assert_eq!(store.allocated_count(T, PageSpace::Heap), allocated.page_no + 1);
    })
}

#[test]
fn the_count_never_covers_an_empty_slot() {
    let report = racing_fills(false).expect("a published count covers filled slots only");
    assert!(report.exhausted, "bounded space should be fully explored");
}

/// Bug twin: the count is published before the slot is filled, and a
/// reader that runs in between finds the page missing.
#[test]
fn publishing_before_filling_is_caught() {
    let failure = racing_fills(true).expect_err("an early count must expose an empty slot");
    assert!(failure.message.contains("covers the empty slot"), "got: {}", failure.message);
}
