//! Strongly-typed identifiers used throughout the workspace.
//!
//! Newtypes (per C-NEWTYPE) keep node ids, table ids, page ids and
//! transaction ids statically distinct: a [`PageId`] can never be confused
//! with a [`TxnId`] at a call site.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a cluster node (scheduler, master, slave, spare backup or
/// on-disk backend).
///
/// ```
/// use dmv_common::ids::NodeId;
/// let n = NodeId(3);
/// assert_eq!(format!("{n}"), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a table within a database schema.
///
/// The replication protocol maintains one version-vector entry per table,
/// indexed by `TableId`, mirroring the paper's `DBVersion` vector that has
/// "a single integer entry for each table of the application".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TableId(pub u16);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Which page space within a table a page belongs to.
///
/// Heap pages store row data; index pages store B+Tree nodes. Both are
/// replicated identically (the paper replicates "physical memory
/// modifications performed by the storage manager", which covers index
/// structures as well as row storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PageSpace {
    /// Slotted row-storage pages.
    Heap,
    /// B+Tree node pages of the `n`-th index of the table.
    Index(u8),
}

impl fmt::Display for PageSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSpace::Heap => write!(f, "heap"),
            PageSpace::Index(i) => write!(f, "idx{i}"),
        }
    }
}

/// Globally unique identifier of a page: (table, space, page number).
///
/// The page is the unit of both concurrency control and replication in
/// Dynamic Multiversioning, so `PageId` is the key of the pending-update
/// queues on slave replicas and of the page-version maps used during data
/// migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId {
    /// Owning table.
    pub table: TableId,
    /// Heap or index space within the table.
    pub space: PageSpace,
    /// Page number within the space (dense, starting at 0).
    pub page_no: u32,
}

impl PageId {
    /// Convenience constructor for a heap page.
    pub fn heap(table: TableId, page_no: u32) -> Self {
        PageId { table, space: PageSpace::Heap, page_no }
    }

    /// Convenience constructor for an index page.
    pub fn index(table: TableId, index_no: u8, page_no: u32) -> Self {
        PageId { table, space: PageSpace::Index(index_no), page_no }
    }

    /// Fibonacci-hashes the id onto one of `shards` lock shards
    /// (`shards` must be a power of two). All three id components
    /// participate, so heap and index pages of one table spread out.
    pub fn shard(self, shards: usize) -> usize {
        debug_assert!(shards.is_power_of_two() && shards > 1);
        let space = match self.space {
            PageSpace::Heap => 0u64,
            PageSpace::Index(n) => 1 + n as u64,
        };
        let key = (self.table.0 as u64) << 48 | space << 40 | self.page_no as u64;
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - shards.trailing_zeros())) as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/p{}", self.table, self.space, self.page_no)
    }
}

/// Identifier of a transaction, unique per originating node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId {
    /// Node that started the transaction.
    pub node: NodeId,
    /// Sequence number local to that node.
    pub seq: u64,
}

impl TxnId {
    /// Creates a transaction id.
    pub fn new(node: NodeId, seq: u64) -> Self {
        TxnId { node, seq }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.node, self.seq)
    }
}

/// Row locator within a table's heap: page number and slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RowId {
    /// Heap page number.
    pub page_no: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl RowId {
    /// Creates a row id from a heap page number and slot.
    pub fn new(page_no: u32, slot: u16) -> Self {
        RowId { page_no, slot }
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}:{}", self.page_no, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn page_id_display_and_ordering() {
        let a = PageId::heap(TableId(1), 0);
        let b = PageId::heap(TableId(1), 1);
        let c = PageId::index(TableId(1), 0, 0);
        assert!(a < b);
        assert_ne!(a, c);
        assert_eq!(format!("{a}"), "t1/heap/p0");
        assert_eq!(format!("{c}"), "t1/idx0/p0");
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let mut set = HashSet::new();
        for t in 0..4u16 {
            for p in 0..4u32 {
                set.insert(PageId::heap(TableId(t), p));
                set.insert(PageId::index(TableId(t), 0, p));
                set.insert(PageId::index(TableId(t), 1, p));
            }
        }
        assert_eq!(set.len(), 48);
    }

    #[test]
    fn page_shards_stay_in_range_and_spread() {
        let hit: HashSet<usize> =
            (0..200u32).map(|n| PageId::heap(TableId(0), n).shard(64)).collect();
        assert!(hit.iter().all(|&s| s < 64));
        assert!(hit.len() > 16, "200 pages concentrated on {} of 64 shards", hit.len());
        let heap = PageId::heap(TableId(3), 9).shard(16);
        assert!(heap < 16 && PageId::index(TableId(3), 0, 9).shard(16) < 16);
    }

    #[test]
    fn txn_id_uniqueness_per_node() {
        let a = TxnId::new(NodeId(1), 7);
        let b = TxnId::new(NodeId(2), 7);
        assert_ne!(a, b);
        assert_eq!(format!("{a}"), "n1#7");
    }

    #[test]
    fn row_id_roundtrip() {
        let r = RowId::new(3, 12);
        assert_eq!(r.page_no, 3);
        assert_eq!(r.slot, 12);
        assert_eq!(format!("{r}"), "r3:12");
    }
}
