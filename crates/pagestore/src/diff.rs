//! Byte-range page diffs — the "per-page modification encodings" of the
//! paper's redo log and write-set messages.
//!
//! A master computes the diff between a page's before- and after-image at
//! pre-commit; slaves apply the diff to their own copy of the page. Runs
//! of changed bytes separated by fewer than `MERGE_GAP` unchanged bytes
//! are coalesced to amortize per-run overhead.

use crate::page::PAGE_SIZE;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::wire::{put_u16, Reader, Wire};
use serde::{Deserialize, Serialize};

/// Unchanged-byte gaps up to this length are swallowed into one run.
const MERGE_GAP: usize = 8;

/// Word width of the fast comparison path in [`PageDiff::compute`].
const WORD: usize = 8;

/// Per-run wire overhead (`u16` offset + `u16` length).
const RUN_HEADER: usize = 4;

/// Wire overhead of the diff itself (`u16` run count).
const DIFF_HEADER: usize = 2;

/// A single contiguous run of modified bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffRun {
    /// Byte offset within the page.
    pub offset: u16,
    /// Replacement bytes.
    pub bytes: Vec<u8>,
}

/// A byte-range diff between two images of the same page.
///
/// ```
/// use dmv_pagestore::diff::PageDiff;
///
/// let before = vec![0u8; dmv_pagestore::PAGE_SIZE];
/// let mut after = before.clone();
/// after[100] = 7;
/// after[101] = 8;
/// let d = PageDiff::compute(&before, &after);
/// let mut target = before.clone();
/// d.apply(&mut target);
/// assert_eq!(target, after);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PageDiff {
    runs: Vec<DiffRun>,
}

impl PageDiff {
    /// Computes the diff turning `before` into `after`.
    ///
    /// Scans the images `WORD` bytes at a time and descends to byte
    /// granularity only inside words that differ, so the common case —
    /// pages that are mostly unchanged — costs one `u64` compare per
    /// eight bytes. Produces output identical to
    /// [`compute_bytewise`](Self::compute_bytewise) (proptest-checked):
    /// a change merges into the previous run iff it starts no more than
    /// `MERGE_GAP + 1` bytes past the run's last changed byte.
    ///
    /// # Panics
    ///
    /// Panics if the images are not both [`PAGE_SIZE`] bytes.
    pub fn compute(before: &[u8], after: &[u8]) -> Self {
        assert_eq!(before.len(), PAGE_SIZE, "before image must be a full page");
        assert_eq!(after.len(), PAGE_SIZE, "after image must be a full page");
        let mut runs: Vec<DiffRun> = Vec::new();
        let mut i = next_changed(before, after, 0);
        while i < PAGE_SIZE {
            let start = i;
            let mut last_change = i;
            loop {
                let j = next_changed(before, after, last_change + 1);
                if j < PAGE_SIZE && j - last_change <= MERGE_GAP + 1 {
                    last_change = j;
                } else {
                    let run_end = last_change + 1;
                    runs.push(DiffRun {
                        offset: start as u16,
                        bytes: after[start..run_end].to_vec(),
                    });
                    i = j;
                    break;
                }
            }
        }
        PageDiff { runs }
    }

    /// Byte-at-a-time reference implementation of [`compute`](Self::compute).
    ///
    /// Kept public as the specification the word-wise scanner is tested
    /// against (and as the baseline in the diff micro-benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if the images are not both [`PAGE_SIZE`] bytes.
    pub fn compute_bytewise(before: &[u8], after: &[u8]) -> Self {
        assert_eq!(before.len(), PAGE_SIZE, "before image must be a full page");
        assert_eq!(after.len(), PAGE_SIZE, "after image must be a full page");
        let mut runs: Vec<DiffRun> = Vec::new();
        let mut i = 0usize;
        while i < PAGE_SIZE {
            if before[i] == after[i] {
                i += 1;
                continue;
            }
            // Start of a changed run; extend while changed or gap < MERGE_GAP.
            let start = i;
            let mut end = i + 1;
            let mut last_change = i;
            while end < PAGE_SIZE {
                if before[end] != after[end] {
                    last_change = end;
                    end += 1;
                } else if end - last_change <= MERGE_GAP {
                    end += 1;
                } else {
                    break;
                }
            }
            let run_end = last_change + 1;
            runs.push(DiffRun { offset: start as u16, bytes: after[start..run_end].to_vec() });
            i = run_end;
        }
        PageDiff { runs }
    }

    /// Diff that replaces the whole page (used for page transfer during
    /// data migration, where no before-image is available).
    ///
    /// # Panics
    ///
    /// Panics if `image` is not [`PAGE_SIZE`] bytes.
    pub fn full(image: &[u8]) -> Self {
        assert_eq!(image.len(), PAGE_SIZE, "image must be a full page");
        PageDiff { runs: vec![DiffRun { offset: 0, bytes: image.to_vec() }] }
    }

    /// Applies the diff to `target` in place.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not [`PAGE_SIZE`] bytes or a run is out of
    /// bounds (which indicates a corrupted diff).
    pub fn apply(&self, target: &mut [u8]) {
        assert_eq!(target.len(), PAGE_SIZE, "target must be a full page");
        for run in &self.runs {
            let start = run.offset as usize;
            let end = start + run.bytes.len();
            target[start..end].copy_from_slice(&run.bytes);
        }
    }

    /// The inverse diff: applying the result to the after-image restores
    /// the before-image. Each run keeps its range and takes its payload
    /// from `before`, so the cost is proportional to the diff's payload,
    /// not the page — this is how slaves retain bounded version history
    /// (one reverse step per applied write-set) without copying pages.
    ///
    /// Only meaningful when `before` is the exact image this diff was
    /// computed against (outside the runs the images agree, so restoring
    /// the runs restores the page).
    ///
    /// # Panics
    ///
    /// Panics if `before` is not [`PAGE_SIZE`] bytes or a run is out of
    /// bounds.
    pub fn reverse_of(&self, before: &[u8]) -> PageDiff {
        assert_eq!(before.len(), PAGE_SIZE, "before image must be a full page");
        let runs = self
            .runs
            .iter()
            .map(|run| {
                let start = run.offset as usize;
                let end = start + run.bytes.len();
                DiffRun { offset: run.offset, bytes: before[start..end].to_vec() }
            })
            .collect();
        PageDiff { runs }
    }

    /// True if the diff changes nothing.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total modified payload bytes.
    pub fn payload_len(&self) -> usize {
        self.runs.iter().map(|r| r.bytes.len()).sum()
    }

    /// Exact wire size: run-count header, then per-run header plus
    /// payload. Matches [`Wire::encode`] byte for byte, so network
    /// transfer cost is charged on the real frame size.
    pub fn encoded_len(&self) -> usize {
        DIFF_HEADER + self.payload_len() + RUN_HEADER * self.runs.len()
    }

    /// The runs, for inspection.
    pub fn runs(&self) -> &[DiffRun] {
        &self.runs
    }

    /// Builds a diff from explicit runs, validating that every run stays
    /// inside a page — the boundary [`apply`](Self::apply) would
    /// otherwise panic on. This is the only way untrusted (decoded) runs
    /// enter a `PageDiff`.
    pub fn from_runs(runs: Vec<DiffRun>) -> DmvResult<Self> {
        for run in &runs {
            let end = run.offset as usize + run.bytes.len();
            if end > PAGE_SIZE {
                return Err(DmvError::Codec(format!(
                    "diff run at offset {} with {} bytes exceeds page size {PAGE_SIZE}",
                    run.offset,
                    run.bytes.len()
                )));
            }
        }
        Ok(PageDiff { runs })
    }
}

impl Wire for DiffRun {
    fn encoded_len(&self) -> usize {
        RUN_HEADER + self.bytes.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u16(out, self.offset);
        // A run never exceeds PAGE_SIZE bytes, so its length fits u16.
        put_u16(out, self.bytes.len() as u16);
        out.extend_from_slice(&self.bytes);
    }

    fn decode(r: &mut Reader<'_>) -> DmvResult<Self> {
        let offset = r.u16()?;
        let len = r.u16()? as usize;
        Ok(DiffRun { offset, bytes: r.bytes(len)?.to_vec() })
    }
}

impl Wire for PageDiff {
    fn encoded_len(&self) -> usize {
        PageDiff::encoded_len(self)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u16(out, self.runs.len() as u16);
        for run in &self.runs {
            run.encode_into(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> DmvResult<Self> {
        let count = r.u16()? as usize;
        let n = r.seq_len(count, RUN_HEADER)?;
        let mut runs = Vec::with_capacity(n);
        for _ in 0..n {
            runs.push(DiffRun::decode(r)?);
        }
        PageDiff::from_runs(runs)
    }
}

/// Index of the first byte at or after `i` where the images differ, or
/// `PAGE_SIZE` if they agree to the end. Compares whole words once `i`
/// is word-aligned; on a word mismatch the first differing byte inside
/// it is located through the XOR of the two words.
fn next_changed(before: &[u8], after: &[u8], mut i: usize) -> usize {
    while i < PAGE_SIZE && !i.is_multiple_of(WORD) {
        if before[i] != after[i] {
            return i;
        }
        i += 1;
    }
    while i + WORD <= PAGE_SIZE {
        let a = u64::from_le_bytes(before[i..i + WORD].try_into().expect("word slice")); // unwrap-ok: slice length is WORD by construction
        let b = u64::from_le_bytes(after[i..i + WORD].try_into().expect("word slice")); // unwrap-ok: slice length is WORD by construction
        let x = a ^ b;
        if x != 0 {
            // from_le_bytes maps byte k of the slice to bits 8k..8k+8,
            // so the lowest set bit identifies the first differing byte.
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += WORD;
    }
    while i < PAGE_SIZE {
        if before[i] != after[i] {
            return i;
        }
        i += 1;
    }
    PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(changes: &[(usize, u8)]) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        for &(i, b) in changes {
            p[i] = b;
        }
        p
    }

    #[test]
    fn identical_pages_empty_diff() {
        let a = page_with(&[(5, 1)]);
        let d = PageDiff::compute(&a, &a);
        assert!(d.is_empty());
        // Even an empty diff carries its run-count header on the wire.
        assert_eq!(d.encoded_len(), 2);
        assert_eq!(Wire::encode(&d).len(), 2);
    }

    #[test]
    fn wire_roundtrip_and_exact_len() {
        let before = page_with(&[]);
        let after = page_with(&[(0, 9), (100, 1), (104, 2), (4000, 3)]);
        for d in [PageDiff::compute(&before, &after), PageDiff::full(&after), PageDiff::default()] {
            let bytes = Wire::encode(&d);
            assert_eq!(bytes.len(), d.encoded_len());
            assert_eq!(dmv_common::wire::decode_exact::<PageDiff>(&bytes).unwrap(), d);
        }
    }

    #[test]
    fn out_of_bounds_run_rejected_at_decode() {
        // A run that would write past the page must be caught at decode
        // time (apply panics on such runs by design).
        let evil = DiffRun { offset: (PAGE_SIZE - 1) as u16, bytes: vec![0; 2] };
        assert!(PageDiff::from_runs(vec![evil.clone()]).is_err());
        let mut bytes = Vec::new();
        put_u16(&mut bytes, 1);
        evil.encode_into(&mut bytes);
        assert!(dmv_common::wire::decode_exact::<PageDiff>(&bytes).is_err());
    }

    #[test]
    fn single_byte_change() {
        let before = page_with(&[]);
        let after = page_with(&[(2048, 99)]);
        let d = PageDiff::compute(&before, &after);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.payload_len(), 1);
        let mut t = before.clone();
        d.apply(&mut t);
        assert_eq!(t, after);
    }

    #[test]
    fn nearby_changes_coalesce() {
        let before = page_with(&[]);
        let after = page_with(&[(100, 1), (104, 2)]); // gap of 3 <= MERGE_GAP
        let d = PageDiff::compute(&before, &after);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.payload_len(), 5);
    }

    #[test]
    fn distant_changes_stay_separate() {
        let before = page_with(&[]);
        let after = page_with(&[(0, 1), (4000, 2)]);
        let d = PageDiff::compute(&before, &after);
        assert_eq!(d.run_count(), 2);
        assert_eq!(d.payload_len(), 2);
    }

    #[test]
    fn change_at_page_boundaries() {
        let before = page_with(&[]);
        let after = page_with(&[(0, 9), (PAGE_SIZE - 1, 9)]);
        let d = PageDiff::compute(&before, &after);
        let mut t = before.clone();
        d.apply(&mut t);
        assert_eq!(t, after);
    }

    #[test]
    fn full_diff_replaces_everything() {
        let img = page_with(&[(1, 1), (2, 2), (4095, 3)]);
        let d = PageDiff::full(&img);
        let mut t = page_with(&[(500, 77)]);
        d.apply(&mut t);
        assert_eq!(t, img);
        assert_eq!(d.payload_len(), PAGE_SIZE);
    }

    #[test]
    fn diff_much_smaller_than_page_for_small_change() {
        let before = page_with(&[]);
        let after = page_with(&[(10, 1), (11, 2), (12, 3)]);
        let d = PageDiff::compute(&before, &after);
        assert!(d.encoded_len() < PAGE_SIZE / 100);
    }

    #[test]
    fn reverse_of_inverts_apply() {
        let before = page_with(&[(10, 1), (500, 2)]);
        let after = page_with(&[(10, 9), (500, 2), (4000, 3)]);
        let d = PageDiff::compute(&before, &after);
        let rev = d.reverse_of(&before);
        let mut t = before.clone();
        d.apply(&mut t);
        assert_eq!(t, after);
        rev.apply(&mut t);
        assert_eq!(t, before, "reverse diff restores the before-image");
        assert_eq!(rev.run_count(), d.run_count());
        assert_eq!(rev.payload_len(), d.payload_len());
    }

    #[test]
    fn merge_gap_boundary_exact() {
        let before = page_with(&[]);
        // A second change MERGE_GAP + 1 bytes past the first still merges…
        let merged = page_with(&[(100, 1), (100 + MERGE_GAP + 1, 2)]);
        assert_eq!(PageDiff::compute(&before, &merged).run_count(), 1);
        // …one byte further and the runs split.
        let split = page_with(&[(100, 1), (100 + MERGE_GAP + 2, 2)]);
        assert_eq!(PageDiff::compute(&before, &split).run_count(), 2);
    }

    #[test]
    fn wordwise_and_bytewise_agree_on_fixtures() {
        let before = page_with(&[(7, 3), (8, 4), (63, 5)]);
        let cases = [
            page_with(&[]),
            page_with(&[(0, 9)]),
            page_with(&[(7, 3), (8, 4), (63, 5)]), // identical to before
            page_with(&[(6, 1), (9, 2), (64, 3), (PAGE_SIZE - 1, 4)]),
            page_with(&[(15, 1), (16, 2), (17, 3)]), // straddles a word boundary
        ];
        for after in &cases {
            assert_eq!(
                PageDiff::compute(&before, after),
                PageDiff::compute_bytewise(&before, after)
            );
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn arb_page() -> impl Strategy<Value = Vec<u8>> {
        // sparse random modifications over a zero page keep cases tractable
        proptest::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..64).prop_map(|muts| {
            let mut p = vec![0u8; PAGE_SIZE];
            for (i, b) in muts {
                p[i] = b;
            }
            p
        })
    }

    fn arb_page_blocks() -> impl Strategy<Value = Vec<u8>> {
        // contiguous mutated blocks exercise the word-compare path and
        // the MERGE_GAP boundary between nearby runs
        proptest::collection::vec((0usize..PAGE_SIZE, 1usize..24, any::<u8>()), 0..16).prop_map(
            |blocks| {
                let mut p = vec![0u8; PAGE_SIZE];
                for (start, len, b) in blocks {
                    let end = (start + len).min(PAGE_SIZE);
                    for slot in &mut p[start..end] {
                        *slot = b;
                    }
                }
                p
            },
        )
    }

    proptest! {
        #[test]
        fn wordwise_matches_bytewise_sparse(before in arb_page(), after in arb_page()) {
            prop_assert_eq!(
                PageDiff::compute(&before, &after),
                PageDiff::compute_bytewise(&before, &after)
            );
        }

        #[test]
        fn wordwise_matches_bytewise_blocks(
            before in arb_page_blocks(),
            after in arb_page_blocks(),
        ) {
            prop_assert_eq!(
                PageDiff::compute(&before, &after),
                PageDiff::compute_bytewise(&before, &after)
            );
        }

        #[test]
        fn block_diffs_roundtrip(before in arb_page_blocks(), after in arb_page_blocks()) {
            let d = PageDiff::compute(&before, &after);
            let mut t = before.clone();
            d.apply(&mut t);
            prop_assert_eq!(t, after);
        }

        #[test]
        fn apply_compute_roundtrip(before in arb_page(), after in arb_page()) {
            let d = PageDiff::compute(&before, &after);
            let mut t = before.clone();
            d.apply(&mut t);
            prop_assert_eq!(t, after);
        }

        #[test]
        fn self_diff_is_empty(p in arb_page()) {
            prop_assert!(PageDiff::compute(&p, &p).is_empty());
        }

        #[test]
        fn diff_payload_bounded_by_page(before in arb_page(), after in arb_page()) {
            let d = PageDiff::compute(&before, &after);
            prop_assert!(d.payload_len() <= PAGE_SIZE);
        }

        #[test]
        fn reverse_of_is_an_inverse(before in arb_page_blocks(), after in arb_page_blocks()) {
            let d = PageDiff::compute(&before, &after);
            let rev = d.reverse_of(&before);
            let mut t = before.clone();
            d.apply(&mut t);
            rev.apply(&mut t);
            prop_assert_eq!(t, before);
        }

        #[test]
        fn sequential_diffs_compose(a in arb_page(), b in arb_page(), c in arb_page()) {
            // applying diff(a->b) then diff(b->c) on a yields c
            let d1 = PageDiff::compute(&a, &b);
            let d2 = PageDiff::compute(&b, &c);
            let mut t = a.clone();
            d1.apply(&mut t);
            d2.apply(&mut t);
            prop_assert_eq!(t, c);
        }
    }
}
