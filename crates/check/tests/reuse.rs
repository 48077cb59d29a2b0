//! Model tests for the slaves' result store (`dmv_core::reuse`).
//!
//! Run with `RUSTFLAGS="--cfg dmv_check" cargo test -p dmv-check`.
//!
//! An entry carries the applier lineage its reader loaded *before* it
//! read any page, and is served only while that lineage is current. A
//! change that gives a version other content (fail-over's discard, a
//! migration or checkpoint install) completes its page writes first and
//! then starts a new lineage. These tests race a reader storing an entry
//! against such a change, with the real `ResultStore` and
//! `PendingApplier`, and check that nothing read before the change is
//! ever served after it — plus a deliberate-bug twin that loads the
//! lineage after reading.

#![cfg(dmv_check)]

use std::sync::Arc;
use std::time::Duration;

use dmv_check::sync::atomic::{AtomicU64, Ordering};
use dmv_check::{model_result, thread, ModelOptions};
use dmv_common::ids::TableId;
use dmv_common::version::VersionVector;
use dmv_core::reuse::{Key, Lookup, ResultStore};
use dmv_core::PendingApplier;
use dmv_memdb::StatementCost;
use dmv_pagestore::{PageStore, Residency};
use dmv_sql::exec::ResultSet;
use dmv_sql::query::{Query, Select};
use dmv_sql::value::Value;

/// The page a select reads, as one value: 1 before the change, 2 after.
struct Scene {
    applier: PendingApplier,
    store: ResultStore,
    page: AtomicU64,
    query: Query,
    tag: VersionVector,
}

impl Scene {
    fn new() -> Arc<Self> {
        let pages = Arc::new(PageStore::new(Residency::free()));
        Arc::new(Scene {
            applier: PendingApplier::new(pages, 1, Duration::from_secs(5)),
            store: ResultStore::new(),
            page: AtomicU64::new(1),
            query: Query::Select(Select::scan(TableId(0))),
            tag: VersionVector::new(1),
        })
    }

    fn key(&self) -> Key<'_> {
        Key::new(&self.query, &self.tag).expect("a select has a key")
    }

    /// The change: rewrite the page, then start a new lineage — the
    /// shape of `apply_page_batch`, `restore_from_checkpoint` and
    /// `discard_above`.
    fn change(&self) {
        self.page.store(2, Ordering::SeqCst);
        self.applier.new_lineage();
    }

    /// Stores what the page reads, under the lineage loaded before.
    fn store_read(&self, lineage: u64, read: u64) {
        let rows = ResultSet { rows: vec![vec![Value::Int(read as i64)]], affected: 0 };
        self.store.insert(&self.key(), lineage, rows, StatementCost::default());
    }

    /// Once the change is visible, whatever the store serves must have
    /// been read after it.
    fn check_served(&self) {
        let lineage = self.applier.lineage();
        if lineage == 0 {
            return;
        }
        if let Lookup::Hit(entry) = self.store.lookup(&self.key(), lineage) {
            let served = &entry.result().rows[0][0];
            assert_eq!(served, &Value::Int(2), "an entry read before the change was served");
        }
    }
}

/// A reader stores an entry while the change runs; an observer looks the
/// key up as soon as it sees the new lineage. Loading the lineage before
/// reading (as `ResultStore::answer` does) keeps every pre-change read
/// out of the new lineage.
#[test]
fn an_entry_read_before_a_lineage_change_is_never_served_after_it() {
    let report = model_result(ModelOptions::default(), || {
        let scene = Scene::new();
        let changer = {
            let scene = Arc::clone(&scene);
            thread::spawn(move || scene.change())
        };
        let observer = {
            let scene = Arc::clone(&scene);
            thread::spawn(move || scene.check_served())
        };
        let lineage = scene.applier.lineage();
        let read = scene.page.load(Ordering::SeqCst);
        scene.store_read(lineage, read);
        changer.join().expect("join changer");
        observer.join().expect("join observer");
        scene.check_served();
    })
    .expect("no pre-change read is served after the change");
    assert!(report.exhausted, "bounded space should be fully explored");
}

/// Companion: a reader that loads the lineage *after* reading the page
/// can store a pre-change read under the new lineage, and the checker
/// finds the interleaving that serves it.
#[test]
fn loading_the_lineage_after_the_read_is_caught() {
    let failure = model_result(ModelOptions::default(), || {
        let scene = Scene::new();
        let changer = {
            let scene = Arc::clone(&scene);
            thread::spawn(move || scene.change())
        };
        // BUG (deliberate): the lineage is loaded after the page is read.
        let read = scene.page.load(Ordering::SeqCst);
        let lineage = scene.applier.lineage();
        scene.store_read(lineage, read);
        changer.join().expect("join changer");
        scene.check_served();
    })
    .expect_err("a pre-change read stored under the new lineage must be caught");
    assert!(failure.message.contains("read before the change"), "got: {}", failure.message);
}
