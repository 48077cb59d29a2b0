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
//!
//! A checkpoint holds each page's shared [`Image`], not a copy of it:
//! images are immutable while shared, and a later write to the page
//! copies it first ([`crate::page::Page::data_mut`]), so the checkpoint
//! keeps the bytes it captured at the cost of a reference count.

use crate::page::Image;
use crate::store::PageStore;
use dmv_common::ids::PageId;
use std::collections::HashMap;
use std::sync::Arc;

/// A checkpoint: per-page (version, image) snapshots.
#[derive(Debug, Clone, Default)]
pub struct CheckpointImage {
    pages: HashMap<PageId, (u64, Image)>,
}

impl CheckpointImage {
    /// An empty checkpoint (a node that never checkpointed: worst case
    /// for reintegration, every page must be transferred).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Per-page versions — what a reintegrating node sends to its support
    /// slave so only newer pages are transferred back.
    pub fn page_versions(&self) -> HashMap<PageId, u64> {
        self.pages.iter().map(|(id, (v, _))| (*id, *v)).collect()
    }

    /// Version and image recorded for one page, if captured.
    pub fn page(&self, id: PageId) -> Option<(u64, &Image)> {
        self.pages.get(&id).map(|(v, image)| (*v, image))
    }

    /// Restores the checkpoint into `store`, each page sharing the
    /// checkpoint's image. Restored pages are marked non-resident when
    /// `resident` is false (they live on the recovering node's disk
    /// until first touch).
    pub fn restore_into(&self, store: &PageStore, resident: bool) {
        for (id, (version, image)) in &self.pages {
            let cell = store.get_or_create(*id);
            let mut page = cell.latch.write();
            page.set_image(Arc::clone(image));
            page.version = *version;
            drop(page);
            cell.set_resident(resident);
        }
    }
}

/// Takes a fuzzy checkpoint of `store`.
///
/// Pages are captured one at a time under their read latch; dirty pages
/// (uncommitted master-side modifications) are skipped. The system keeps
/// running — no quiescence is required.
pub fn fuzzy_checkpoint(store: &PageStore) -> CheckpointImage {
    let mut pages = HashMap::new();
    for id in store.page_ids() {
        let Some(cell) = store.get(id) else { continue };
        if cell.is_dirty() {
            continue;
        }
        let page = cell.latch.read();
        pages.insert(id, (page.version, Arc::clone(page.image())));
    }
    CheckpointImage { pages }
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
        let ck = fuzzy_checkpoint(&s);
        assert_eq!(ck.page_versions().len(), 4);
        let id = PageId::heap(TableId(0), 2);
        let (version, image) = ck.page(id).unwrap();
        assert_eq!(version, 3);
        assert_eq!(image[0], 2);
    }

    #[test]
    fn a_checkpoint_shares_images_and_keeps_its_bytes_across_a_write() {
        let s = store_with_pages(1);
        let id = PageId::heap(TableId(0), 0);
        let ck = fuzzy_checkpoint(&s);
        let cell = s.get(id).unwrap();
        assert!(Arc::ptr_eq(ck.page(id).unwrap().1, cell.latch.read().image()));
        cell.latch.write().data_mut()[0] = 99;
        assert_eq!(ck.page(id).unwrap().1[0], 0, "the write copied the page first");
        let t = PageStore::new_free();
        ck.restore_into(&t, true);
        assert!(Arc::ptr_eq(ck.page(id).unwrap().1, t.get(id).unwrap().latch.read().image()));
    }

    #[test]
    fn dirty_pages_are_skipped() {
        let s = store_with_pages(3);
        s.get(PageId::heap(TableId(0), 1)).unwrap().set_dirty(true);
        let ck = fuzzy_checkpoint(&s);
        assert_eq!(ck.page_versions().len(), 2);
        assert!(ck.page(PageId::heap(TableId(0), 1)).is_none());
    }

    #[test]
    fn restore_reproduces_state() {
        let s = store_with_pages(3);
        let ck = fuzzy_checkpoint(&s);
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
        let ck = fuzzy_checkpoint(&s);
        let t = PageStore::new_free();
        ck.restore_into(&t, true);
        assert_eq!(t.resident_count(), 1);
    }

    #[test]
    fn page_versions_map() {
        let s = store_with_pages(2);
        let ck = fuzzy_checkpoint(&s);
        let vs = ck.page_versions();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[&PageId::heap(TableId(0), 0)], 1);
    }

    #[test]
    fn empty_checkpoint() {
        let ck = CheckpointImage::empty();
        assert!(ck.page_versions().is_empty());
    }
}
