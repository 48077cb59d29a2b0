//! The Fx hash: multiply-rotate hashing for small keys of trusted
//! origin (page ids, transaction ids, select fingerprints).
//!
//! The std map's SipHash resists hash flooding, which costs a few dozen
//! ns per key; no key hashed here comes from outside the process, and
//! the per-transaction page maps and the 2PL lock table hash on every
//! page access. A collision costs a probe, never a wrong answer.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A [`HashSet`] keyed through [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Multiply-rotate hasher: one rotate, xor and multiply per word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("chunks of 8"))); // unwrap-ok: chunks_exact(8)
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_le_bytes(tail) ^ bytes.len() as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are its well-mixed ones; hash maps and
        // the result store's doorkeeper index by the low ones.
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PageId, TableId};
    use std::hash::BuildHasher;

    #[test]
    fn page_ids_of_one_space_spread_over_low_bits() {
        let b = BuildHasherDefault::<FxHasher>::default();
        let hashes: Vec<u64> = (0..1024).map(|n| b.hash_one(PageId::heap(TableId(3), n))).collect();
        let distinct: FxHashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), 1024, "page ids of one space collide");
        let buckets: FxHashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
        assert!(buckets.len() >= 256, "only {} of 1024 low-bit buckets used", buckets.len());
    }

    #[test]
    fn equal_keys_hash_equal() {
        let b = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(
            b.hash_one(PageId::index(TableId(1), 2, 9)),
            b.hash_one(PageId::index(TableId(1), 2, 9))
        );
        let mut m: FxHashMap<PageId, u32> = FxHashMap::default();
        m.insert(PageId::heap(TableId(0), 1), 7);
        assert_eq!(m.get(&PageId::heap(TableId(0), 1)), Some(&7));
    }
}
