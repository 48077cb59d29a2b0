//! Fuzzy checkpointing (paper §4.4).
//!
//! At regular intervals each slave persists every page's current contents
//! together with its current version to local stable storage. The flush
//! of one page and its version is atomic (here: under the page's read
//! latch), but the checkpoint is **fuzzy**: it is synchronous neither
//! across pages nor across replicas — in-memory DMV replicas routinely
//! hold pages at different versions, so a mixed-version snapshot is a
//! perfectly valid starting point for reintegration. Dirty (uncommitted)
//! pages are skipped.

use crate::page::Page;
use crate::store::PageStore;
use dmv_common::ids::PageId;
use std::collections::HashMap;
use std::time::Duration;

/// A checkpoint: per-page (version, image) snapshots plus the paper time
/// at which it was taken.
#[derive(Debug, Clone, Default)]
pub struct CheckpointImage {
    pages: HashMap<PageId, (u64, Vec<u8>)>,
    taken_at: Duration,
}

impl CheckpointImage {
    /// An empty checkpoint (a node that never checkpointed: worst case
    /// for reintegration, every page must be transferred).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Paper time at which the checkpoint was taken.
    pub fn taken_at(&self) -> Duration {
        self.taken_at
    }

    /// Number of pages captured.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if no pages were captured.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Per-page versions — what a reintegrating node sends to its support
    /// slave so only newer pages are transferred back.
    pub fn page_versions(&self) -> HashMap<PageId, u64> {
        self.pages.iter().map(|(id, (v, _))| (*id, *v)).collect()
    }

    /// Version recorded for one page, if captured.
    pub fn version_of(&self, id: PageId) -> Option<u64> {
        self.pages.get(&id).map(|(v, _)| *v)
    }

    /// Restores the checkpoint into `store`. Restored pages are marked
    /// non-resident when `resident` is false (they live on the recovering
    /// node's disk until first touch).
    pub fn restore_into(&self, store: &PageStore, resident: bool) {
        for (id, (version, image)) in &self.pages {
            let cell = store.get_or_create(*id);
            let mut page = cell.latch.write();
            *page = Page::from_image(*version, image);
            drop(page);
            cell.set_resident(resident);
        }
    }

    /// Total bytes of page images held.
    pub fn byte_size(&self) -> usize {
        self.pages.values().map(|(_, img)| img.len()).sum()
    }
}

/// Takes a fuzzy checkpoint of `store` at paper time `now`.
///
/// Pages are captured one at a time under their read latch; dirty pages
/// (uncommitted master-side modifications) are skipped. The system keeps
/// running — no quiescence is required.
pub fn fuzzy_checkpoint(store: &PageStore, now: Duration) -> CheckpointImage {
    let mut pages = HashMap::new();
    for id in store.page_ids() {
        let Some(cell) = store.get(id) else { continue };
        if cell.is_dirty() {
            continue;
        }
        let page = cell.latch.read();
        pages.insert(id, (page.version, page.to_image()));
    }
    CheckpointImage { pages, taken_at: now }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::ids::{PageSpace, TableId};

    fn store_with_pages(n: u32) -> PageStore {
        let s = PageStore::new_free();
        for i in 0..n {
            let (_, cell) = s.allocate(TableId(0), PageSpace::Heap);
            let mut p = cell.latch.write();
            p.version = u64::from(i) + 1;
            p.data_mut()[0] = i as u8;
        }
        s
    }

    #[test]
    fn checkpoint_captures_versions_and_images() {
        let s = store_with_pages(4);
        let ck = fuzzy_checkpoint(&s, Duration::from_secs(10));
        assert_eq!(ck.len(), 4);
        assert_eq!(ck.taken_at(), Duration::from_secs(10));
        assert_eq!(ck.version_of(PageId::heap(TableId(0), 2)), Some(3));
        assert_eq!(ck.byte_size(), 4 * crate::PAGE_SIZE);
    }

    #[test]
    fn dirty_pages_are_skipped() {
        let s = store_with_pages(3);
        s.get(PageId::heap(TableId(0), 1)).unwrap().set_dirty(true);
        let ck = fuzzy_checkpoint(&s, Duration::ZERO);
        assert_eq!(ck.len(), 2);
        assert_eq!(ck.version_of(PageId::heap(TableId(0), 1)), None);
    }

    #[test]
    fn restore_reproduces_state() {
        let s = store_with_pages(3);
        let ck = fuzzy_checkpoint(&s, Duration::ZERO);
        let t = PageStore::new_free();
        ck.restore_into(&t, false);
        assert_eq!(t.len(), 3);
        for i in 0..3u32 {
            let cell = t.get(PageId::heap(TableId(0), i)).unwrap();
            assert!(!cell.is_resident(), "restored pages start cold");
            let p = cell.latch.read();
            assert_eq!(p.version, u64::from(i) + 1);
            assert_eq!(p.data()[0], i as u8);
        }
    }

    #[test]
    fn restore_resident_flag() {
        let s = store_with_pages(1);
        let ck = fuzzy_checkpoint(&s, Duration::ZERO);
        let t = PageStore::new_free();
        ck.restore_into(&t, true);
        assert_eq!(t.resident_count(), 1);
    }

    #[test]
    fn page_versions_map() {
        let s = store_with_pages(2);
        let ck = fuzzy_checkpoint(&s, Duration::ZERO);
        let vs = ck.page_versions();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[&PageId::heap(TableId(0), 0)], 1);
    }

    #[test]
    fn empty_checkpoint() {
        let ck = CheckpointImage::empty();
        assert!(ck.is_empty());
        assert_eq!(ck.page_versions().len(), 0);
    }
}
