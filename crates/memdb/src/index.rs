//! Page-based B+Tree indexes.
//!
//! Index nodes are serialized into ordinary pages of the owning table's
//! index space, so **index maintenance is page modification**: splits and
//! key inserts are captured by the transaction's undo/diff machinery and
//! replicate to slaves exactly like heap data. (The paper attributes the
//! master's saturation under the ordering mix to "costly index updates
//! ... due to rebalancing for inserts" — the same effect arises here.)
//!
//! Entries are ordered by `(key, row id)`, which makes non-unique keys
//! unambiguous. Deletes do not rebalance (TPC-W's delete rate is zero);
//! empty leaves are tolerated and skipped by scans.

use crate::txn::Txn;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{PageId, PageSpace, RowId, TableId};
use dmv_pagestore::PAGE_SIZE;
use dmv_sql::row::{cmp_prefix, cmp_row, decode_row, encode_row_into, encoded_len, Row};
use dmv_sql::value::Value;
use std::cmp::Ordering;

// Node layout (all integers little endian):
//
//   meta      [0] NODE_META      [1..5) root page
//   leaf      [0] NODE_LEAF      [1..3) entry count   [3..7) next leaf + 1 (0 = none)
//             [7..) entries
//   internal  [0] NODE_INTERNAL  [1..3) key count n   [3..3+4(n+1)) child pages
//             then n separator entries; child i holds what sorts before
//             separator i, child n the rest
//   entry     key length (u16) | key (`encode_row` bytes) | row id: page (u32), slot (u16)
//
// Entries have no offset directory, so a node is searched front to back.
const NODE_LEAF: u8 = 0;
const NODE_INTERNAL: u8 = 1;
const NODE_META: u8 = 2;
const LEAF_HDR: usize = 7;
const INTERNAL_HDR: usize = 3;
/// An entry's bytes besides its key: the length before, the row id after.
const ENTRY_OVERHEAD: usize = 8;

/// An index entry: full key plus the row it points at.
pub type Entry = (Row, RowId);

/// A decoded tree node. Only a node about to be rewritten is decoded;
/// everything that just reads walks the page bytes ([`NodeRef`]).
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf { next: Option<u32>, entries: Vec<Entry> },
    Internal { keys: Vec<Entry>, children: Vec<u32> },
}

fn entry_encoded_len(key: &[Value]) -> usize {
    ENTRY_OVERHEAD + encoded_len(key)
}

fn leaf_size(entries: &[Entry]) -> usize {
    LEAF_HDR + entries.iter().map(|e| entry_encoded_len(&e.0)).sum::<usize>()
}

fn internal_size(keys: &[Entry], children: &[u32]) -> usize {
    INTERNAL_HDR + 4 * children.len() + keys.iter().map(|e| entry_encoded_len(&e.0)).sum::<usize>()
}

fn put_u16(d: &mut [u8], at: usize, v: u16) {
    d[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn put_u32(d: &mut [u8], at: usize, v: u32) {
    d[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

#[cold]
fn corrupt(what: &str) -> DmvError {
    DmvError::Storage(format!("corrupt index node: {what}"))
}

fn get<const N: usize>(d: &[u8], at: usize) -> DmvResult<[u8; N]> {
    d.get(at..).and_then(<[u8]>::first_chunk).copied().ok_or_else(|| corrupt("truncated"))
}

fn get_u16(d: &[u8], at: usize) -> DmvResult<u16> {
    get(d, at).map(u16::from_le_bytes)
}

fn get_u32(d: &[u8], at: usize) -> DmvResult<u32> {
    get(d, at).map(u32::from_le_bytes)
}

fn write_entry(d: &mut [u8], at: &mut usize, e: &Entry) {
    let klen = encode_row_into(&e.0, &mut d[*at + 2..]);
    put_u16(d, *at, klen as u16);
    *at += 2 + klen;
    put_u32(d, *at, e.1.page_no);
    put_u16(d, *at + 4, e.1.slot);
    *at += 6;
}

fn encode_meta(d: &mut [u8], root: u32) {
    d[0] = NODE_META;
    put_u32(d, 1, root);
}

/// The root page a meta page names; `None` if `d` is not a meta page.
fn meta_root(d: &[u8]) -> Option<u32> {
    (d.first() == Some(&NODE_META)).then(|| get_u32(d, 1).ok()).flatten()
}

fn encode_node(node: &Node, d: &mut [u8]) {
    match node {
        Node::Leaf { next, entries } => {
            debug_assert!(leaf_size(entries) <= PAGE_SIZE, "leaf overflow");
            d[0] = NODE_LEAF;
            put_u16(d, 1, entries.len() as u16);
            put_u32(d, 3, next.map_or(0, |n| n + 1));
            let mut at = LEAF_HDR;
            for e in entries {
                write_entry(d, &mut at, e);
            }
        }
        Node::Internal { keys, children } => {
            debug_assert!(internal_size(keys, children) <= PAGE_SIZE, "internal overflow");
            debug_assert_eq!(children.len(), keys.len() + 1);
            d[0] = NODE_INTERNAL;
            put_u16(d, 1, keys.len() as u16);
            let mut at = INTERNAL_HDR;
            for c in children {
                put_u32(d, at, *c);
                at += 4;
            }
            for k in keys {
                write_entry(d, &mut at, k);
            }
        }
    }
}

/// A serialized tree node read where it lies. Nothing here trusts the
/// page: every offset and length taken from the bytes is bounds-checked
/// (a violation is [`DmvError::Storage`], never a panic), keys stay
/// encoded and are compared through `dmv_sql::row`'s in-place codec.
enum NodeRef<'a> {
    Leaf {
        next: Option<u32>,
        entries: Entries<'a>,
    },
    /// `children` holds the `n + 1` child page numbers, 4 bytes each.
    Internal {
        children: &'a [u8],
        keys: Entries<'a>,
    },
}

impl<'a> NodeRef<'a> {
    fn parse(d: &'a [u8]) -> DmvResult<Self> {
        let entries = |at: usize, left: u16| {
            Ok(Entries { rest: d.get(at..).ok_or_else(|| corrupt("truncated"))?, left })
        };
        match d.first() {
            Some(&NODE_LEAF) => {
                let next = get_u32(d, 3)?.checked_sub(1);
                Ok(NodeRef::Leaf { next, entries: entries(LEAF_HDR, get_u16(d, 1)?)? })
            }
            Some(&NODE_INTERNAL) => {
                let n = get_u16(d, 1)?;
                let keys_at = INTERNAL_HDR + 4 * (n as usize + 1);
                let children =
                    d.get(INTERNAL_HDR..keys_at).ok_or_else(|| corrupt("child array"))?;
                Ok(NodeRef::Internal { children, keys: entries(keys_at, n)? })
            }
            Some(&NODE_META) => Err(DmvError::Storage("meta page inside tree".into())),
            t => Err(DmvError::Storage(format!("bad index node type {t:?}"))),
        }
    }
}

/// The entries of a serialized node, front to back: `(encoded key, row
/// id)`.
struct Entries<'a> {
    rest: &'a [u8],
    left: u16,
}

impl<'a> Iterator for Entries<'a> {
    type Item = DmvResult<(&'a [u8], RowId)>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let entry = (|| {
            let (klen, rest) = self.rest.split_first_chunk()?;
            let (key, rest) = rest.split_at_checked(u16::from_le_bytes(*klen) as usize)?;
            let ([p0, p1, p2, p3, s0, s1], rest) = rest.split_first_chunk()?;
            self.rest = rest;
            let rid = RowId::new(
                u32::from_le_bytes([*p0, *p1, *p2, *p3]),
                u16::from_le_bytes([*s0, *s1]),
            );
            Some((key, rid))
        })();
        if entry.is_none() {
            self.left = 0;
        }
        Some(entry.ok_or_else(|| corrupt("truncated entry")))
    }
}

impl Entries<'_> {
    fn decode(self) -> DmvResult<Vec<Entry>> {
        // The shortest entry has an empty key (two bytes of column count);
        // that bounds the count the page header claims.
        let fit = self.rest.len() / (ENTRY_OVERHEAD + 2);
        let mut out = Vec::with_capacity((self.left as usize).min(fit));
        for e in self {
            let (key, rid) = e?;
            out.push((decode_row(key)?, rid));
        }
        Ok(out)
    }
}

fn decode_node(d: &[u8]) -> DmvResult<Node> {
    Ok(match NodeRef::parse(d)? {
        NodeRef::Leaf { next, entries } => Node::Leaf { next, entries: entries.decode()? },
        NodeRef::Internal { children, keys } => Node::Internal {
            keys: keys.decode()?,
            children: children
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        },
    })
}

/// The child an internal node routes to: the one after its last leading
/// separator for which `sorts_before` holds. Returns `(index, page)`.
fn child_for<'a>(
    children: &[u8],
    keys: Entries<'a>,
    mut sorts_before: impl FnMut(&'a [u8], RowId) -> DmvResult<bool>,
) -> DmvResult<(usize, u32)> {
    let mut idx = 0;
    for sep in keys {
        let (key, rid) = sep?;
        if !sorts_before(key, rid)? {
            break;
        }
        idx += 1;
    }
    Ok((idx, get_u32(children, 4 * idx)?))
}

/// Full-entry ordering: key, then row id.
fn cmp_entry(a: &Entry, b: &Entry) -> Ordering {
    a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

/// [`cmp_entry`] of a serialized entry against a decoded one.
fn cmp_encoded_entry(key: &[u8], rid: RowId, probe: &Entry) -> DmvResult<Ordering> {
    Ok(cmp_row(key, &probe.0)?.then_with(|| rid.cmp(&probe.1)))
}

/// One step of a descent towards the leaf of an entry being inserted or
/// deleted: an internal node is only looked at, the leaf comes back
/// decoded because it is about to be rewritten.
enum Step {
    /// Descend into child number `.0`, page `.1`.
    Down(usize, u32),
    Leaf {
        next: Option<u32>,
        entries: Vec<Entry>,
    },
}

/// State of one range scan as it visits pages: descends from the root to
/// the leaf where `lo` begins, then follows the leaf chain collecting the
/// row ids of entries inside the bounds (each `(key prefix, inclusive)`).
struct RangeScan<'q> {
    lo: Option<(&'q [Value], bool)>,
    hi: Option<(&'q [Value], bool)>,
    limit: usize,
    /// An entry inside the lower bound was seen: all later ones are too.
    past_lo: bool,
    in_leaves: bool,
    out: Vec<RowId>,
}

impl RangeScan<'_> {
    /// Visits one page; returns the page to visit next, `None` when the
    /// scan is complete.
    fn visit(&mut self, d: &[u8]) -> DmvResult<Option<u32>> {
        let (next, entries) = match NodeRef::parse(d)? {
            NodeRef::Internal { .. } if self.in_leaves => {
                return Err(DmvError::Storage("expected leaf during range scan".into()));
            }
            NodeRef::Internal { children, keys } => {
                let below_lo = |key, _| match self.lo {
                    Some((lo, _)) => Ok(cmp_prefix(key, lo)? == Ordering::Less),
                    None => Ok(false),
                };
                return Ok(Some(child_for(children, keys, below_lo)?.1));
            }
            NodeRef::Leaf { next, entries } => (next, entries),
        };
        self.in_leaves = true;
        for e in entries {
            let (key, rid) = e?;
            if self.out.len() >= self.limit {
                return Ok(None);
            }
            if let (false, Some((lo, inclusive))) = (self.past_lo, self.lo) {
                match cmp_prefix(key, lo)? {
                    Ordering::Less => continue,
                    Ordering::Equal if !inclusive => continue,
                    _ => self.past_lo = true,
                }
            }
            if let Some((hi, inclusive)) = self.hi {
                match cmp_prefix(key, hi)? {
                    Ordering::Greater => return Ok(None),
                    Ordering::Equal if !inclusive => return Ok(None),
                    _ => {}
                }
            }
            self.out.push(rid);
        }
        Ok(next.filter(|_| self.out.len() < self.limit))
    }
}

/// Page visits of one tree walk. A valid walk visits no page twice, so
/// one that outlasts the index's page count has met a pointer cycle — a
/// corrupt page — and ends in [`DmvError::Storage`] instead of never.
#[derive(Default)]
struct Visits {
    made: u32,
    /// The index's page count when last looked at (it only grows).
    allowed: u32,
}

/// A B+Tree index handle (stateless; all state is in pages).
#[derive(Debug, Clone, Copy)]
pub struct BTreeIndex {
    table: TableId,
    index_no: u8,
}

impl BTreeIndex {
    /// Handle for index `index_no` of `table`.
    pub fn new(table: TableId, index_no: u8) -> Self {
        BTreeIndex { table, index_no }
    }

    fn space(&self) -> PageSpace {
        PageSpace::Index(self.index_no)
    }

    fn pid(&self, no: u32) -> PageId {
        PageId { table: self.table, space: self.space(), page_no: no }
    }

    fn page_count(&self, txn: &Txn<'_>) -> u32 {
        txn.db().store().allocated_count(self.table, self.space())
    }

    fn count_visit(&self, txn: &Txn<'_>, visits: &mut Visits) -> DmvResult<()> {
        visits.made += 1;
        if visits.made > visits.allowed {
            visits.allowed = self.page_count(txn);
            if visits.made > visits.allowed {
                return Err(corrupt("page cycle"));
            }
        }
        Ok(())
    }

    fn read_node(&self, txn: &mut Txn<'_>, no: u32) -> DmvResult<Node> {
        txn.read_page(self.pid(no), decode_node)?
    }

    fn write_node(&self, txn: &mut Txn<'_>, no: u32, node: &Node) -> DmvResult<()> {
        txn.write_page(self.pid(no), |d| encode_node(node, d))
    }

    /// Writes the meta page naming `root` and an empty root leaf there.
    fn write_bootstrap(&self, txn: &mut Txn<'_>, root: u32) -> DmvResult<()> {
        txn.write_page(self.pid(0), |d| encode_meta(d, root))?;
        self.write_node(txn, root, &Node::Leaf { next: None, entries: Vec::new() })
    }

    /// Allocates the meta page (page 0) and an empty root leaf on first
    /// use within an update transaction, so the initialization itself
    /// replicates.
    ///
    /// Under MVCC two writers can race here with no locks to serialize
    /// them: both write their own meta node into page 0 and first-
    /// committer-wins validation settles the duel (the loser aborts with
    /// a retryable conflict, retries, and adopts the winner's tree).
    fn ensure_init(&self, txn: &mut Txn<'_>) -> DmvResult<()> {
        if self.page_count(txn) == 0 {
            let meta = txn.allocate_page(self.table, self.space())?;
            if meta.page_no == 0 {
                // Drawing page 0 does not make us the bootstrapper: the
                // allocation published the page before this transaction
                // protected it (2PL acquires the lock only after
                // allocating; MVCC snapshots the base then), so a rival
                // may have bootstrapped page 0 — and committed — while we
                // waited. Re-read under the protection we now hold and
                // adopt a committed meta node rather than orphan its tree.
                if let Ok(Some(_)) = self.read_root(txn) {
                    return Ok(());
                }
                let root = txn.allocate_page(self.table, self.space())?;
                return self.write_bootstrap(txn, root.page_no);
            }
            // A concurrent bootstrapper drew page 0 between our count
            // check and the allocation (page allocation is shared state
            // even under MVCC); fall through and adopt page 0. The page
            // we drew goes unused.
        }
        match self.read_root(txn) {
            Ok(Some(_)) => Ok(()),
            Err(e) if e.is_retryable() => Err(e),
            // Page 0 is allocated but holds no committed meta node: the
            // bootstrapper's install is still private (or it aborted).
            // Write our own bootstrap; validation picks one winner.
            _ => {
                let root = txn.allocate_page(self.table, self.space())?;
                self.write_bootstrap(txn, root.page_no)
            }
        }
    }

    /// The root page number page 0 names, `None` if it is not (yet) a
    /// meta node.
    fn read_root(&self, txn: &mut Txn<'_>) -> DmvResult<Option<u32>> {
        txn.read_page(self.pid(0), meta_root)
    }

    fn root(&self, txn: &mut Txn<'_>) -> DmvResult<u32> {
        self.read_root(txn)?
            .ok_or_else(|| DmvError::Storage("index page 0 is not a meta page".into()))
    }

    /// Where a walk of the committed tree starts: the root page number
    /// and the walk's page budget — or `None` when the index holds no
    /// committed data: either no pages are allocated, or page 0 is
    /// allocated but its meta node is not committed yet (an MVCC
    /// bootstrapper's install is still private, so readers correctly see
    /// an empty index — and carry page 0 in their validated read set).
    fn root_opt(&self, txn: &mut Txn<'_>) -> DmvResult<Option<(u32, Visits)>> {
        let allowed = self.page_count(txn);
        if allowed == 0 {
            return Ok(None);
        }
        match self.read_root(txn) {
            Err(e) if !e.is_retryable() => Ok(None),
            root => Ok(root?.map(|root| (root, Visits { made: 0, allowed }))),
        }
    }

    /// Inserts `(key, rid)`.
    ///
    /// Inserting the exact same `(key, rid)` twice is idempotent.
    /// Uniqueness is enforced by the caller (engine layer) via
    /// [`BTreeIndex::lookup_eq`] so that failed statements leave no trace.
    ///
    /// # Errors
    ///
    /// Propagates lock/storage errors; `Storage` if a single entry cannot
    /// fit in a page.
    pub fn insert(&self, txn: &mut Txn<'_>, key: &[Value], rid: RowId) -> DmvResult<()> {
        if LEAF_HDR + entry_encoded_len(key) > PAGE_SIZE {
            return Err(DmvError::Storage("index key too large for a page".into()));
        }
        self.ensure_init(txn)?;
        let root = self.root(txn)?;
        let entry = (key.to_vec(), rid);
        if let Some((sep, new_page)) = self.insert_rec(txn, root, entry, &mut Visits::default())? {
            let new_root = txn.allocate_page(self.table, self.space())?;
            self.write_node(
                txn,
                new_root.page_no,
                &Node::Internal { keys: vec![sep], children: vec![root, new_page] },
            )?;
            txn.write_page(self.pid(0), |d| encode_meta(d, new_root.page_no))?;
        }
        Ok(())
    }

    /// Looks at node `page_no` on the way to where `probe` belongs.
    fn descend(
        &self,
        txn: &mut Txn<'_>,
        page_no: u32,
        probe: &Entry,
        visits: &mut Visits,
    ) -> DmvResult<Step> {
        self.count_visit(txn, visits)?;
        txn.read_page(self.pid(page_no), |d| match NodeRef::parse(d)? {
            NodeRef::Internal { children, keys } => {
                // Separators equal to the probe route right, as in a split.
                let at_or_before =
                    |key, rid| Ok(cmp_encoded_entry(key, rid, probe)? != Ordering::Greater);
                child_for(children, keys, at_or_before).map(|(idx, child)| Step::Down(idx, child))
            }
            NodeRef::Leaf { next, entries } => Ok(Step::Leaf { next, entries: entries.decode()? }),
        })?
    }

    fn insert_rec(
        &self,
        txn: &mut Txn<'_>,
        page_no: u32,
        entry: Entry,
        visits: &mut Visits,
    ) -> DmvResult<Option<(Entry, u32)>> {
        match self.descend(txn, page_no, &entry, visits)? {
            Step::Leaf { next, mut entries } => {
                match entries.binary_search_by(|e| cmp_entry(e, &entry)) {
                    Ok(_) => return Ok(None), // exact duplicate: idempotent
                    Err(pos) => entries.insert(pos, entry),
                }
                if leaf_size(&entries) <= PAGE_SIZE {
                    self.write_node(txn, page_no, &Node::Leaf { next, entries })?;
                    return Ok(None);
                }
                // Split.
                let mid = entries.len() / 2;
                let right: Vec<Entry> = entries.split_off(mid);
                let sep = right[0].clone();
                let new = txn.allocate_page(self.table, self.space())?;
                self.write_node(txn, new.page_no, &Node::Leaf { next, entries: right })?;
                self.write_node(txn, page_no, &Node::Leaf { next: Some(new.page_no), entries })?;
                Ok(Some((sep, new.page_no)))
            }
            Step::Down(idx, child) => {
                let split = self.insert_rec(txn, child, entry, visits)?;
                let Some((sep, new_child)) = split else { return Ok(None) };
                // The child split: this node takes the separator.
                let Node::Internal { mut keys, mut children } = self.read_node(txn, page_no)?
                else {
                    return Err(corrupt("internal node became a leaf"));
                };
                keys.insert(idx, sep);
                children.insert(idx + 1, new_child);
                if internal_size(&keys, &children) <= PAGE_SIZE {
                    self.write_node(txn, page_no, &Node::Internal { keys, children })?;
                    return Ok(None);
                }
                // Split the internal node; the middle key is promoted.
                let mid = keys.len() / 2;
                let promoted = keys[mid].clone();
                let right_keys: Vec<Entry> = keys.split_off(mid + 1);
                keys.pop(); // remove the promoted key from the left node
                let right_children: Vec<u32> = children.split_off(mid + 1);
                let new = txn.allocate_page(self.table, self.space())?;
                self.write_node(
                    txn,
                    new.page_no,
                    &Node::Internal { keys: right_keys, children: right_children },
                )?;
                self.write_node(txn, page_no, &Node::Internal { keys, children })?;
                Ok(Some((promoted, new.page_no)))
            }
        }
    }

    /// Removes `(key, rid)`. Returns whether the entry existed. No
    /// rebalancing is performed (empty leaves are tolerated).
    ///
    /// # Errors
    ///
    /// Propagates lock/storage errors.
    pub fn delete(&self, txn: &mut Txn<'_>, key: &[Value], rid: RowId) -> DmvResult<bool> {
        let Some((mut no, mut visits)) = self.root_opt(txn)? else {
            return Ok(false);
        };
        let probe: Entry = (key.to_vec(), rid);
        loop {
            match self.descend(txn, no, &probe, &mut visits)? {
                Step::Down(_, child) => no = child,
                Step::Leaf { next, mut entries } => {
                    let Ok(pos) = entries.binary_search_by(|e| cmp_entry(e, &probe)) else {
                        return Ok(false);
                    };
                    entries.remove(pos);
                    self.write_node(txn, no, &Node::Leaf { next, entries })?;
                    return Ok(true);
                }
            }
        }
    }

    /// Row ids of the entries with keys between the bounds (each a
    /// `(prefix, inclusive)` pair), in key order — or reverse key order
    /// when `rev` is true. `limit` bounds the number of returned ids.
    /// Nothing is decoded: the pages are searched as they lie.
    ///
    /// # Errors
    ///
    /// Propagates lock/version/storage errors; `Storage` on a corrupt
    /// node.
    pub fn range(
        &self,
        txn: &mut Txn<'_>,
        lo: Option<(&[Value], bool)>,
        hi: Option<(&[Value], bool)>,
        rev: bool,
        limit: Option<usize>,
    ) -> DmvResult<Vec<RowId>> {
        let limit = limit.unwrap_or(usize::MAX);
        // A reverse scan's limit counts from the far end of the range.
        let collect = if rev { usize::MAX } else { limit };
        let mut scan =
            RangeScan { lo, hi, limit: collect, past_lo: false, in_leaves: false, out: Vec::new() };
        let Some((root, mut visits)) = self.root_opt(txn)? else {
            return Ok(Vec::new());
        };
        let mut next = Some(root);
        while let Some(no) = next {
            self.count_visit(txn, &mut visits)?;
            next = txn.read_page(self.pid(no), |d| scan.visit(d))??;
        }
        let mut out = scan.out;
        if rev {
            out.reverse();
            out.truncate(limit);
        }
        Ok(out)
    }

    /// Row ids of entries whose key equals `key` exactly (on the probe's
    /// prefix length).
    ///
    /// # Errors
    ///
    /// Propagates lock/version/storage errors.
    pub fn lookup_eq(&self, txn: &mut Txn<'_>, key: &[Value]) -> DmvResult<Vec<RowId>> {
        self.range(txn, Some((key, true)), Some((key, true)), false, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_sql::row::encode_row;

    fn sample_leaf() -> Node {
        Node::Leaf {
            next: Some(7),
            entries: vec![
                (vec![Value::Int(1)], RowId::new(0, 0)),
                (vec![Value::from("abc"), Value::Null], RowId::new(3, 9)),
            ],
        }
    }

    fn sample_internal() -> Node {
        Node::Internal {
            keys: vec![
                (vec![Value::Int(5)], RowId::new(1, 1)),
                (vec![Value::Int(9)], RowId::new(2, 0)),
            ],
            children: vec![2, 3, 4],
        }
    }

    #[test]
    fn node_codec_roundtrip() {
        let mut page = vec![0u8; PAGE_SIZE];
        for node in [sample_leaf(), sample_internal()] {
            encode_node(&node, &mut page);
            assert_eq!(decode_node(&page).unwrap(), node);
        }
        encode_meta(&mut page, 42);
        assert_eq!(meta_root(&page), Some(42));
        assert!(decode_node(&page).is_err(), "a meta page is not a tree node");
    }

    #[test]
    fn leaf_next_none_roundtrip() {
        let mut page = vec![0u8; PAGE_SIZE];
        let leaf = Node::Leaf { next: None, entries: vec![] };
        encode_node(&leaf, &mut page);
        assert_eq!(decode_node(&page).unwrap(), leaf);
        assert_eq!(meta_root(&page), None);
    }

    #[test]
    fn bad_node_type_errors() {
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 77;
        assert!(decode_node(&page).is_err());
        assert!(decode_node(&[]).is_err());
    }

    /// The page image an entry-at-a-time `encode_row` would produce: the
    /// computed sizes and the encode-into-the-page path must not change
    /// a byte of it (replication diffs and replica digests depend on it).
    #[test]
    fn sizes_and_images_match_the_owned_encoding() {
        fn entry_bytes(e: &Entry) -> Vec<u8> {
            let key = encode_row(&e.0);
            let mut out = (key.len() as u16).to_le_bytes().to_vec();
            out.extend(key);
            out.extend(e.1.page_no.to_le_bytes());
            out.extend(e.1.slot.to_le_bytes());
            out
        }
        let (Node::Leaf { next, entries }, Node::Internal { keys, children }) =
            (sample_leaf(), sample_internal())
        else {
            unreachable!()
        };
        let mut leaf = vec![NODE_LEAF];
        leaf.extend((entries.len() as u16).to_le_bytes());
        leaf.extend((next.unwrap() + 1).to_le_bytes());
        leaf.extend(entries.iter().flat_map(entry_bytes));
        assert_eq!(leaf_size(&entries), leaf.len());
        let mut internal = vec![NODE_INTERNAL];
        internal.extend((keys.len() as u16).to_le_bytes());
        internal.extend(children.iter().flat_map(|c| c.to_le_bytes()));
        internal.extend(keys.iter().flat_map(entry_bytes));
        assert_eq!(internal_size(&keys, &children), internal.len());
        for (node, want) in [(sample_leaf(), leaf), (sample_internal(), internal)] {
            let mut page = vec![0xEEu8; PAGE_SIZE];
            encode_node(&node, &mut page);
            assert_eq!(page[..want.len()], want[..]);
            assert!(page[want.len()..].iter().all(|&b| b == 0xEE), "bytes past the node untouched");
        }
    }

    #[test]
    fn entry_ordering() {
        let a: Entry = (vec![Value::Int(1)], RowId::new(0, 0));
        let b: Entry = (vec![Value::Int(1)], RowId::new(0, 1));
        let c: Entry = (vec![Value::Int(2)], RowId::new(0, 0));
        assert_eq!(cmp_entry(&a, &b), Ordering::Less);
        assert_eq!(cmp_entry(&b, &c), Ordering::Less);
        assert_eq!(cmp_entry(&a, &a), Ordering::Equal);
        for (x, y) in [(&a, &b), (&b, &a), (&b, &c), (&c, &a), (&a, &a)] {
            let in_place = cmp_encoded_entry(&encode_row(&x.0), x.1, y).unwrap();
            assert_eq!(in_place, cmp_entry(x, y));
        }
    }

    #[test]
    fn internal_node_routing() {
        let mut page = vec![0u8; PAGE_SIZE];
        encode_node(&sample_internal(), &mut page);
        let route = |probe: i64| {
            let mut scan = RangeScan {
                lo: Some((&[Value::Int(probe)], true)),
                hi: None,
                limit: usize::MAX,
                past_lo: false,
                in_leaves: false,
                out: Vec::new(),
            };
            scan.visit(&page).unwrap()
        };
        // A read starts in the leftmost child that can hold the probe …
        assert_eq!(
            [route(4), route(5), route(6), route(9), route(10)].map(Option::unwrap),
            [2, 2, 3, 3, 4]
        );
        // … an insert of an entry equal to a separator goes right of it.
        let NodeRef::Internal { children, keys } = NodeRef::parse(&page).unwrap() else {
            unreachable!()
        };
        let probe: Entry = (vec![Value::Int(5)], RowId::new(1, 1));
        let at_or_before = |k, rid| Ok(cmp_encoded_entry(k, rid, &probe)? != Ordering::Greater);
        assert_eq!(child_for(children, keys, at_or_before).unwrap(), (1, 3));
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::{MemDb, MemDbOptions};
    use dmv_sql::schema::{ColType, Column, IndexDef, Schema, TableSchema};
    use proptest::prelude::*;

    /// Everything that reads a serialized node, on bytes it cannot trust.
    fn read_every_way(d: &[u8]) {
        let _ = decode_node(d);
        let _ = meta_root(d);
        let probe = [Value::Int(3), Value::from("m")];
        for (lo, hi) in [(None, None), (Some((&probe[..], true)), Some((&probe[..1], false)))] {
            let mut scan =
                RangeScan { lo, hi, limit: 5, past_lo: false, in_leaves: false, out: Vec::new() };
            let _ = scan.visit(d);
        }
        if let Ok(NodeRef::Internal { children, keys }) = NodeRef::parse(d) {
            let probe: Entry = (probe.to_vec(), RowId::new(1, 1));
            let _ = child_for(children, keys, |k, rid| {
                Ok(cmp_encoded_entry(k, rid, &probe)? != Ordering::Greater)
            });
        }
    }

    fn arb_key() -> impl Strategy<Value = Row> {
        let value = prop_oneof![
            Just(Value::Null),
            (-5i64..5).prop_map(Value::Int),
            (-2.0f64..2.0).prop_map(Value::Float),
            "[a-z]{0,12}".prop_map(Value::from),
        ];
        proptest::collection::vec(value, 0..3)
    }

    fn arb_node() -> impl Strategy<Value = Node> {
        let entries = || {
            proptest::collection::vec((arb_key(), 0u32..50, 0u16..50), 0..40).prop_map(|es| {
                es.into_iter().map(|(k, p, s)| (k, RowId::new(p, s))).collect::<Vec<Entry>>()
            })
        };
        prop_oneof![
            (entries(), 0u32..9)
                .prop_map(|(entries, next)| Node::Leaf { next: next.checked_sub(1), entries }),
            entries().prop_map(|keys| Node::Internal {
                children: (0..=keys.len() as u32).collect(),
                keys,
            }),
        ]
    }

    fn kv_db() -> MemDb {
        let schema = Schema::new(vec![TableSchema::new(
            TableId(0),
            "kv",
            vec![Column::new("k", ColType::Str)],
            vec![IndexDef::unique("pk", vec![0])],
        )]);
        MemDb::new(schema, MemDbOptions::default())
    }

    /// A three-level tree (wide keys keep the fan-out small).
    fn grown_tree(db: &MemDb, ix: BTreeIndex) -> u32 {
        let mut txn = db.begin_update();
        for i in 0..150u32 {
            let key = [Value::from(format!("{i:04}{}", "x".repeat(500)))];
            ix.insert(&mut txn, &key, RowId::new(i, 0)).unwrap();
        }
        let root = ix.root(&mut txn).unwrap();
        assert!(
            matches!(ix.descend(&mut txn, root, &(vec![], RowId::new(0, 0)), &mut Visits::default()), Ok(Step::Down(_, child))
                if matches!(ix.read_node(&mut txn, child), Ok(Node::Internal { .. }))),
            "the tree has internal nodes below the root"
        );
        txn.commit(None);
        ix.page_count(&db.begin_read_local())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_pages_never_panic(mut page in proptest::collection::vec(any::<u8>(), PAGE_SIZE), ty in 0u8..4) {
            read_every_way(&page);
            page[0] = ty; // get past the node-type check more often than chance would
            read_every_way(&page);
            read_every_way(&page[..page.len() / 3]);
        }

        #[test]
        fn one_mutated_byte_never_panics(node in arb_node(), at in 0usize..PAGE_SIZE, byte in any::<u8>()) {
            let mut page = vec![0u8; PAGE_SIZE];
            encode_node(&node, &mut page);
            prop_assert_eq!(decode_node(&page).unwrap(), node);
            page[at] = byte;
            read_every_way(&page);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One corrupt page inside a real tree: every operation either
        /// works or reports an error — no panic, no endless walk along a
        /// pointer cycle.
        #[test]
        fn one_mutated_byte_in_a_tree_never_panics_or_hangs(page_pick in 0u32..1000, at in 0usize..600, byte in any::<u8>()) {
            let db = kv_db();
            let ix = BTreeIndex::new(TableId(0), 0);
            let pages = grown_tree(&db, ix);
            let cell = db.store().get(ix.pid(page_pick % pages)).unwrap();
            cell.latch.write().data_mut()[at] = byte;
            let probe = [Value::from(format!("0075{}", "x".repeat(500)))];
            let mut txn = db.begin_update();
            let _ = ix.lookup_eq(&mut txn, &probe);
            let _ = ix.range(&mut txn, None, None, false, None);
            let _ = ix.range(&mut txn, Some((&probe, false)), None, true, Some(3));
            let _ = ix.delete(&mut txn, &probe, RowId::new(75, 0));
            let _ = ix.insert(&mut txn, &probe, RowId::new(999, 0));
        }
    }

    #[test]
    fn leaf_chain_cycle_is_an_error() {
        let db = kv_db();
        let ix = BTreeIndex::new(TableId(0), 0);
        grown_tree(&db, ix);
        // Find the first leaf and point its successor's `next` back at it.
        let mut txn = db.begin_update();
        let mut no = ix.root(&mut txn).unwrap();
        let first = loop {
            match ix.descend(&mut txn, no, &(vec![], RowId::new(0, 0)), &mut Visits::default()) {
                Ok(Step::Down(_, child)) => no = child,
                Ok(Step::Leaf { next, .. }) => break (no, next.unwrap()),
                Err(e) => panic!("{e}"),
            }
        };
        txn.write_page(ix.pid(first.1), |d| put_u32(d, 3, first.0 + 1)).unwrap();
        let err = ix.range(&mut txn, None, None, false, None).unwrap_err();
        assert!(matches!(err, DmvError::Storage(_)), "{err}");
    }
}
