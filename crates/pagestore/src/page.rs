//! The fixed-size page, the paper's unit of concurrency control and
//! replication.

use std::sync::{Arc, OnceLock};

/// Page payload size in bytes (matching the 4 KiB pages of the modified
/// MySQL heap-table storage manager).
pub const PAGE_SIZE: usize = 4096;

/// A page image: `PAGE_SIZE` bytes behind a reference count. Committed
/// images are shared, never changed in place while shared: an update
/// transaction's base is a clone of the page's handle, and a writer
/// that finds the image shared copies it first ([`Page::data_mut`]).
pub type Image = Arc<[u8; PAGE_SIZE]>;

/// The image every fresh page starts from, shared until first written.
fn zero_image() -> Image {
    static ZERO: OnceLock<Image> = OnceLock::new();
    Arc::clone(ZERO.get_or_init(|| Arc::new([0u8; PAGE_SIZE])))
}

/// Copies a full page image into a fresh [`Image`]: the one way bytes
/// from outside the store (a decoded migration frame) become a page's.
///
/// # Panics
///
/// Panics if `data` is not exactly [`PAGE_SIZE`] bytes.
pub fn image_of(data: &[u8]) -> Image {
    let bytes: &[u8; PAGE_SIZE] = data.try_into().expect("page image must be PAGE_SIZE bytes"); // unwrap-ok: documented panic on a wrong-sized image
    Arc::new(*bytes)
}

/// A page: `PAGE_SIZE` bytes of payload plus the version of the owning
/// table at which the payload was last modified (on a master) or last
/// applied (on a slave).
///
/// The version is metadata, not part of the diffable payload: write-set
/// messages carry the post-commit version explicitly.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    /// Last table-version applied to (or produced on) this page.
    pub version: u64,
    data: Image,
}

impl Page {
    /// Creates a zeroed page at version 0.
    pub fn new() -> Self {
        Page { version: 0, data: zero_image() }
    }

    /// Read-only view of the payload.
    pub fn data(&self) -> &[u8] {
        &self.data[..]
    }

    /// Mutable view of the payload, copied first if the image is shared.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.data)[..]
    }

    /// The payload's shared handle: a clone costs a reference count.
    pub fn image(&self) -> &Image {
        &self.data
    }

    /// Replaces the payload with `image` (an install of a committed
    /// copy-on-write buffer, a migrated page or a checkpointed one).
    pub fn set_image(&mut self, image: Image) {
        self.data = image;
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nonzero = self.data.iter().filter(|&&b| b != 0).count();
        f.debug_struct("Page")
            .field("version", &self.version)
            .field("nonzero_bytes", &nonzero)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_zeroed() {
        let p = Page::new();
        assert_eq!(p.version, 0);
        assert!(p.data().iter().all(|&b| b == 0));
        assert_eq!(p.data().len(), PAGE_SIZE);
    }

    #[test]
    fn image_roundtrip() {
        let mut img = vec![0u8; PAGE_SIZE];
        img[7] = 42;
        let mut p = Page::new();
        p.set_image(image_of(&img));
        assert_eq!(p.data(), &img[..]);
    }

    #[test]
    #[should_panic]
    fn wrong_size_image_panics() {
        let _ = image_of(&[0u8; 100]);
    }

    #[test]
    fn a_shared_image_is_copied_before_a_write() {
        let mut p = Page::new();
        let base = Arc::clone(p.image());
        p.data_mut()[0] = 1;
        assert_eq!(base[0], 0, "the shared image must not change");
        assert_eq!(p.data()[0], 1);
        let before = Arc::as_ptr(p.image());
        p.data_mut()[1] = 2;
        assert_eq!(Arc::as_ptr(p.image()), before, "an unshared image is written in place");
    }

    #[test]
    fn debug_is_compact() {
        let s = format!("{:?}", Page::new());
        assert!(s.contains("version"));
        assert!(!s.contains("data: ["));
    }
}
