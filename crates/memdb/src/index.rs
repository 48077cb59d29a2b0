//! Page-based B+Tree indexes.
//!
//! Index nodes are serialized into ordinary pages of the owning table's
//! index space, so **index maintenance is page modification**: splits and
//! key inserts are captured by the transaction's page copies and diffs and
//! replicate to slaves exactly like heap data. (The paper attributes the
//! master's saturation under the ordering mix to "costly index updates
//! ... due to rebalancing for inserts" — the same effect arises here.)
//!
//! Entries are ordered by `(key, row id)`, which makes non-unique keys
//! unambiguous. An insert or delete edits its leaf where it lies: the
//! entries after it shift, nothing is decoded. Only a leaf that must split,
//! and the internal node that takes its separator, are decoded and
//! re-encoded. Deletes do not rebalance. TPC-W does delete: each
//! BuyConfirm drops its cart and the cart's lines, and cart ids ascend,
//! so the cart tables' indexes leave emptied leaves behind them. Empty
//! leaves are tolerated and skipped by scans.

use crate::txn::Txn;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{PageId, PageSpace, RowId, TableId};
use dmv_pagestore::PAGE_SIZE;
use dmv_sql::row::{cmp_prefix, cmp_row, decode_row, encode_row_into, encoded_len, Row};
use dmv_sql::value::Value;
use std::cmp::Ordering;
use std::ops::Range;

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
// Entries have no offset directory. A search reads every length field once
// into a table of where each entry starts ([`Starts`]) and bisects over it,
// comparing about log2(n) keys of a node's n. So before an edit writes a
// byte, every length field of its leaf has been parsed, and the keys the
// bisection compared.
const NODE_LEAF: u8 = 0;
const NODE_INTERNAL: u8 = 1;
const NODE_META: u8 = 2;
const LEAF_HDR: usize = 7;
const INTERNAL_HDR: usize = 3;
/// An entry's bytes besides its key: the length before, the row id after.
const ENTRY_OVERHEAD: usize = 8;
/// The largest entry an index takes: a third of a leaf's payload. A node
/// that overflows by one such entry always splits into two halves that
/// fit (see [`split_point`]), whatever mix of widths it holds.
const MAX_ENTRY: usize = (PAGE_SIZE - LEAF_HDR) / 3;
/// The most entries a node holds: each is its overhead and a key of at
/// least two bytes (the column count).
const MAX_ENTRIES: usize = (PAGE_SIZE - LEAF_HDR) / (ENTRY_OVERHEAD + 2);

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

/// Where to split a node whose entries have these encoded sizes: the
/// last position that leaves the left part at most half of the bytes
/// (`len / 2` for entries of one width), but at least one entry. With `S`
/// the sum of the sizes and `m` the largest, the left part is at most
/// `S / 2` and the right part less than `S / 2 + m`; a node that fit
/// before one entry was added has `S <= payload + m`, so both parts fit
/// as long as `m <= payload / 3` ([`MAX_ENTRY`]).
fn split_point(sizes: impl Iterator<Item = usize> + Clone) -> usize {
    let total: usize = sizes.clone().sum();
    let mut left = 0;
    let within_half = |size: &usize| {
        left += size;
        2 * left <= total
    };
    sizes.take_while(within_half).count().max(1)
}

#[cold]
fn split_overflow() -> DmvError {
    DmvError::Storage("index node does not split into two pages".into())
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
            Ok(Entries { rest: d.get(at..).ok_or_else(|| corrupt("truncated"))?, at, left })
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
#[derive(Clone)]
struct Entries<'a> {
    rest: &'a [u8],
    /// Where `rest` begins in the page.
    at: usize,
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
            self.at += ENTRY_OVERHEAD + key.len();
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

impl<'a> Entries<'a> {
    /// Where each entry starts, read off the length fields alone — every
    /// one of them, with the checks the iterator makes, so a malformed
    /// node is `Storage` here, before any key is compared.
    fn starts(self) -> DmvResult<Starts<'a>> {
        let Entries { rest, at, left } = self;
        let len = left as usize;
        let mut offs = [0; MAX_ENTRIES + 1];
        let ends = offs.get_mut(1..=len).ok_or_else(|| corrupt("too many entries"))?;
        // No entry of a node ends past its page, nor past what a `u16` holds.
        let bound = rest.len().min(u16::MAX as usize);
        let mut end = 0;
        for slot in ends {
            end += ENTRY_OVERHEAD + get_u16(rest, end)? as usize;
            if end > bound {
                return Err(corrupt("truncated entry"));
            }
            *slot = end as u16;
        }
        Ok(Starts { rest, at, offs, len })
    }
}

/// The entries of a serialized node by position: where each begins, so
/// that a search bisects instead of walking.
struct Starts<'a> {
    /// The node's bytes from its first entry on, and where they begin in
    /// the page.
    rest: &'a [u8],
    at: usize,
    /// Entry `i` spans `rest[offs[i]..offs[i + 1]]`; `offs[len]` is where
    /// the last one ends.
    offs: [u16; MAX_ENTRIES + 1],
    len: usize,
}

impl<'a> Starts<'a> {
    /// Where entry `i` begins in the page — where the last one ends for
    /// `i == len`.
    fn start(&self, i: usize) -> usize {
        self.at + self.offs[i] as usize
    }

    /// The encoded key and row id of entry `i < len` (checked when the
    /// starts were read).
    fn entry(&self, i: usize) -> (&'a [u8], RowId) {
        let bytes = &self.rest[self.offs[i] as usize + 2..self.offs[i + 1] as usize];
        let (key, rid) = bytes.split_at(bytes.len() - 6);
        let page = u32::from_le_bytes([rid[0], rid[1], rid[2], rid[3]]);
        (key, RowId::new(page, u16::from_le_bytes([rid[4], rid[5]])))
    }

    /// The entries from position `i` on.
    fn from(&self, i: usize) -> Entries<'a> {
        let off = self.offs[i] as usize;
        Entries { rest: &self.rest[off..], at: self.at + off, left: (self.len - i) as u16 }
    }

    /// How many leading entries `before` holds for. It must hold for a
    /// prefix of them, as an ordering against a probe does on entries
    /// that ascend: the search bisects, calling it about log2(len) times.
    fn partition_point(
        &self,
        mut before: impl FnMut(&'a [u8], RowId) -> DmvResult<bool>,
    ) -> DmvResult<usize> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (key, rid) = self.entry(mid);
            if before(key, rid)? {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
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
    sorts_before: impl FnMut(&'a [u8], RowId) -> DmvResult<bool>,
) -> DmvResult<(usize, u32)> {
    let idx = keys.starts()?.partition_point(sorts_before)?;
    Ok((idx, get_u32(children, 4 * idx)?))
}

/// Full-entry ordering: key, then row id.
#[cfg(test)]
fn cmp_entry(a: &Entry, b: &Entry) -> Ordering {
    a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

/// The full-entry ordering — key, then row id — of a serialized entry
/// against a decoded one.
fn cmp_encoded_entry(key: &[u8], rid: RowId, probe: &Entry) -> DmvResult<Ordering> {
    Ok(cmp_row(key, &probe.0)?.then_with(|| rid.cmp(&probe.1)))
}

/// One step of a descent towards the leaf of an entry being inserted or
/// deleted: an internal node is only looked at, and so is a leaf that has
/// room for the edit. A leaf that must split comes back decoded.
enum Step {
    /// Descend into child number `.0`, page `.1`.
    Down(usize, u32),
    /// The leaf, with room for the edit, and where the entry lies in it.
    Leaf(Place),
    /// The leaf, too full to take the entry, and where it goes among the
    /// leaf's entries.
    Split { next: Option<u32>, entries: Vec<Entry>, at: usize },
}

/// Where an entry lies in a serialized leaf, or would go: found by
/// bisecting the leaf's entries as they lie.
struct Place {
    /// Its position among the entries.
    index: usize,
    /// The bytes it spans if the leaf holds it, else the empty range
    /// where it would begin.
    span: Range<usize>,
    /// Where the leaf's entries end, and how many there are.
    end: usize,
    count: u16,
}

impl Place {
    fn find(entries: Entries<'_>, probe: &Entry) -> DmvResult<Place> {
        let starts = entries.starts()?;
        let index = starts.partition_point(|key, rid| {
            Ok(cmp_encoded_entry(key, rid, probe)? == Ordering::Less)
        })?;
        let found = index < starts.len && {
            let (key, rid) = starts.entry(index);
            cmp_encoded_entry(key, rid, probe)? == Ordering::Equal
        };
        let start = starts.start(index);
        let span = start..if found { starts.start(index + 1) } else { start };
        Ok(Place { index, span, end: starts.start(starts.len), count: starts.len as u16 })
    }

    fn found(&self) -> bool {
        !self.span.is_empty()
    }
}

/// The last step of a descent: where `probe` lies among a leaf's
/// `entries`, and — when it is absent and the leaf lacks `room` more bytes
/// — the leaf decoded for the split. `leaf_size <= PAGE_SIZE` after the
/// insert is `end + room <= PAGE_SIZE` before it.
fn leaf_step(
    next: Option<u32>,
    entries: Entries<'_>,
    probe: &Entry,
    room: usize,
) -> DmvResult<Step> {
    let place = Place::find(entries.clone(), probe)?;
    if place.found() || place.end + room <= PAGE_SIZE {
        return Ok(Step::Leaf(place));
    }
    Ok(Step::Split { next, entries: entries.decode()?, at: place.index })
}

/// One step of a descent on the node `d`: where `probe` goes in an
/// internal node, and [`leaf_step`] in a leaf.
fn step(d: &[u8], probe: &Entry, room: usize) -> DmvResult<Step> {
    match NodeRef::parse(d)? {
        NodeRef::Internal { children, keys } => {
            // Separators equal to the probe route right, as in a split.
            let at_or_before =
                |key, rid| Ok(cmp_encoded_entry(key, rid, probe)? != Ordering::Greater);
            child_for(children, keys, at_or_before).map(|(idx, child)| Step::Down(idx, child))
        }
        NodeRef::Leaf { next, entries } => leaf_step(next, entries, probe, room),
    }
}

/// Writes `entry` into a leaf at `place` (an absent entry's, found on
/// these bytes, with room for it): the entries after it move right by
/// its length. The bytes are those [`encode_node`] writes for the leaf
/// with the entry inserted.
fn splice_in(d: &mut [u8], place: &Place, entry: &Entry) -> DmvResult<()> {
    let len = entry_encoded_len(&entry.0);
    let Place { span, end, count, .. } = place;
    if end + len > d.len() {
        return Err(corrupt("leaf overflow"));
    }
    d.copy_within(span.start..*end, span.start + len);
    let mut at = span.start;
    write_entry(d, &mut at, entry);
    // A page holds fewer than `u16::MAX` entries of 8 bytes or more.
    put_u16(d, 1, count + 1);
    Ok(())
}

/// Drops the entry a leaf holds at `place` (found on these bytes): the
/// entries after it move left over it. The vacated bytes at the end keep
/// what they held, as when [`encode_node`] writes the shorter leaf.
fn splice_out(d: &mut [u8], place: &Place) {
    let Place { span, end, count, .. } = place;
    d.copy_within(span.end..*end, span.start);
    put_u16(d, 1, count - 1);
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
        let (next, mut entries) = match NodeRef::parse(d)? {
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
        if let (false, Some((lo, inclusive))) = (self.past_lo, self.lo) {
            let starts = entries.starts()?;
            let first = starts.partition_point(|key, _| {
                Ok(match cmp_prefix(key, lo)? {
                    Ordering::Less => true,
                    Ordering::Equal => !inclusive,
                    Ordering::Greater => false,
                })
            })?;
            self.past_lo = first < starts.len;
            entries = starts.from(first);
        }
        for e in entries {
            let (key, rid) = e?;
            if self.out.len() >= self.limit {
                return Ok(None);
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

/// Which keys of a [`ManyScan`] can match in one leaf, as the separator
/// above that leaf — its *fence* — tells.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Reach {
    /// `keys[..sure]` sort before the fence: they match nothing past the
    /// leaf.
    sure: usize,
    /// `keys[sure..upto]` equal the fence (on their length): what they
    /// match may begin in the leaf and go on in the next. `keys[upto..]`
    /// sort after it and match nothing in the leaf.
    upto: usize,
}

/// State of one [`BTreeIndex::lookup_many`] walk: descends to the leaf
/// where the first key begins, then merges the remaining keys with the
/// leaf chain — both ascend, so each entry and each key is passed once.
///
/// A descent reads the fences right of the child it takes — above the
/// leaf it ends in, above that leaf's right sibling, and on for as long
/// as the next leaf can match a key — so the walk knows the reach of the
/// keys in each of them: it leaves a leaf as soon as the keys that can
/// match there are resolved, follows `next` through exactly those leaves,
/// and descends again for the first key past them. A leaf whose fence is
/// not known (a run of equal keys leading past the last fence read) is
/// merged to its end, and whether it lay wholly before the wanted key
/// shows afterwards.
struct ManyScan<'q> {
    keys: &'q [&'q [Value]],
    /// `keys[..done]` are resolved; `keys[done]` is being looked for.
    done: usize,
    in_leaves: bool,
    /// The reach of the keys in the leaf being visited, if known.
    reach: Option<Reach>,
    /// … and in the leaves to follow it to, nearest last.
    ahead: Vec<Reach>,
    /// A key every entry of the leaf being entered along the chain must
    /// sort after (it sorts before the fence of the leaf just left): a
    /// `next` that leads back shows on the first entry.
    floor: Option<usize>,
    out: Vec<RowId>,
    /// Per resolved key, where its row ids end in `out`.
    ends: Vec<usize>,
}

/// Where a [`ManyScan`] goes after a page.
enum ManyStep {
    Page(u32),
    /// `keys[done]` is a gap away — past the fences read, or the sibling
    /// just visited lies wholly before it: descend for it instead of
    /// walking the gap.
    Descend,
    Done,
}

impl<'q> ManyScan<'q> {
    fn new(keys: &'q [&'q [Value]]) -> Self {
        ManyScan {
            keys,
            done: 0,
            in_leaves: false,
            reach: None,
            ahead: Vec::new(),
            floor: None,
            out: Vec::new(),
            ends: Vec::with_capacity(keys.len()),
        }
    }

    /// Forgets what the last descent showed, for the next one.
    fn descend(&mut self) {
        (self.in_leaves, self.reach, self.floor) = (false, None, None);
        self.ahead.clear();
    }

    fn visit(&mut self, d: &[u8]) -> DmvResult<ManyStep> {
        let (next, entries) = match NodeRef::parse(d)? {
            NodeRef::Internal { .. } if self.in_leaves => {
                return Err(DmvError::Storage("expected leaf during key merge".into()));
            }
            NodeRef::Internal { children, keys: seps } => {
                return Ok(ManyStep::Page(self.route(children, seps)?));
            }
            NodeRef::Leaf { next, entries } => (next, entries),
        };
        self.in_leaves = true;
        let upto = self.reach.map_or(self.keys.len(), |reach| reach.upto);
        // Whether the leaf has entries, and whether any of them is at or
        // past the key wanted when it was looked at.
        let (mut any, mut reached) = (false, false);
        for e in entries {
            if self.done == upto {
                break; // the keys left match nothing here
            }
            let (key, rid) = e?;
            if let Some(floor) = self.floor.take() {
                if cmp_prefix(key, self.keys[floor])? != Ordering::Greater {
                    return Err(corrupt("leaf chain out of key order"));
                }
            }
            any = true;
            loop {
                match cmp_prefix(key, self.keys[self.done])? {
                    Ordering::Less => break,
                    Ordering::Equal => {
                        reached = true;
                        self.out.push(rid);
                        break;
                    }
                    // The entry is past the key: the key has matched all
                    // it matches, and the entry belongs to a later one.
                    Ordering::Greater => {
                        reached = true;
                        if self.close_key() {
                            return Ok(ManyStep::Done);
                        }
                    }
                }
            }
        }
        let Some(next) = next else {
            self.ends.resize(self.keys.len(), self.out.len());
            return Ok(ManyStep::Done);
        };
        let follow = match self.reach {
            // No fence known: a leaf wholly before the wanted key shows
            // that the key is a gap away.
            None => !any || reached,
            Some(reach) => {
                // Keys before the fence that the leaf's end has not
                // resolved match nothing more.
                while self.done < reach.sure {
                    if self.close_key() {
                        return Ok(ManyStep::Done);
                    }
                }
                // On to the next leaf a key can match in, or after a key
                // equal to the fence.
                !self.ahead.is_empty() || self.done < reach.upto
            }
        };
        if !follow {
            return Ok(ManyStep::Descend);
        }
        self.floor = self.reach.and_then(|reach| reach.sure.checked_sub(1));
        self.reach = self.ahead.pop();
        Ok(ManyStep::Page(next))
    }

    /// The wanted key has matched all it matches. Returns whether it was
    /// the last key.
    fn close_key(&mut self) -> bool {
        self.ends.push(self.out.len());
        self.done += 1;
        self.done == self.keys.len()
    }

    /// The child of an internal node to look for `keys[done]` in, and
    /// from the separators right of it the reach of the keys after it.
    fn route(&mut self, children: &[u8], seps: Entries<'_>) -> DmvResult<u32> {
        let want = self.keys[self.done];
        // The first separator not below the wanted key is the fence above
        // the child to take.
        let seps = seps.starts()?;
        let idx = seps.partition_point(|sep, _| Ok(cmp_prefix(sep, want)? == Ordering::Less))?;
        // Without one (the last child) a fence from further up still
        // holds: it bounds this whole subtree. The leaves to follow are
        // read off this node's separators alone.
        self.ahead.clear();
        if idx < seps.len {
            let mut reach = self.reach_below(seps.entry(idx).0, self.done)?;
            self.reach = Some(reach);
            // The separators after it are the fences of the leaves to the
            // right, each worth reading while a key after the fence
            // before it can match in its leaf.
            for sep in seps.from(idx + 1) {
                let next = self.reach_below(sep?.0, reach.sure)?;
                if next.upto == reach.upto {
                    break;
                }
                self.ahead.push(next);
                reach = next;
            }
            self.ahead.reverse();
        }
        get_u32(children, 4 * idx)
    }

    /// The reach, under `fence`, of the keys from `from` on (those before
    /// it sort before the fence).
    fn reach_below(&self, fence: &[u8], from: usize) -> DmvResult<Reach> {
        // The keys ascend, so those a fence is not above are a tail. It
        // begins near `from` when the keys are far apart: gallop, then
        // bisect.
        let first = |from: usize, past: fn(Ordering) -> bool| {
            let (mut lo, mut hi, mut step) = (from, self.keys.len(), 1);
            while lo + step <= hi {
                if past(cmp_prefix(fence, self.keys[lo + step - 1])?) {
                    hi = lo + step - 1;
                    break;
                }
                lo += step;
                step *= 2;
            }
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if past(cmp_prefix(fence, self.keys[mid])?) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            Ok::<usize, DmvError>(lo)
        };
        let sure = first(from, |fence_to_key| fence_to_key != Ordering::Greater)?;
        Ok(Reach { sure, upto: first(sure, |fence_to_key| fence_to_key == Ordering::Less)? })
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
                // took its base (after the lock, under 2PL), so a rival
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
    /// A read of page 0 that fails is the walk's error, never "no data".
    fn root_opt(&self, txn: &mut Txn<'_>) -> DmvResult<Option<(u32, Visits)>> {
        let allowed = self.page_count(txn);
        if allowed == 0 {
            return Ok(None);
        }
        Ok(self.read_root(txn)?.map(|root| (root, Visits { made: 0, allowed })))
    }

    /// Inserts `(key, rid)`.
    ///
    /// Inserting the exact same `(key, rid)` twice is idempotent.
    /// Uniqueness is enforced by the caller (engine layer) via
    /// [`BTreeIndex::lookup_eq`] so that failed statements leave no trace.
    ///
    /// # Errors
    ///
    /// Propagates lock/storage errors; `Storage` if the entry is larger
    /// than a third of a page.
    pub fn insert(&self, txn: &mut Txn<'_>, key: &[Value], rid: RowId) -> DmvResult<()> {
        if entry_encoded_len(key) > MAX_ENTRY {
            return Err(DmvError::Storage("index key larger than a third of a page".into()));
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

    /// Looks at node `page_no` on the way to where `probe` belongs; a
    /// leaf that lacks `room` free bytes for it is decoded.
    fn descend(
        &self,
        txn: &mut Txn<'_>,
        page_no: u32,
        probe: &Entry,
        room: usize,
        visits: &mut Visits,
    ) -> DmvResult<Step> {
        self.count_visit(txn, visits)?;
        txn.read_page(self.pid(page_no), |d| step(d, probe, room))?
    }

    fn insert_rec(
        &self,
        txn: &mut Txn<'_>,
        page_no: u32,
        entry: Entry,
        visits: &mut Visits,
    ) -> DmvResult<Option<(Entry, u32)>> {
        let room = entry_encoded_len(&entry.0);
        match self.descend(txn, page_no, &entry, room, visits)? {
            // An exact duplicate is idempotent.
            Step::Leaf(place) if place.found() => Ok(None),
            Step::Leaf(place) => {
                txn.write_page(self.pid(page_no), |d| splice_in(d, &place, &entry))??;
                Ok(None)
            }
            Step::Split { next, mut entries, at } => {
                entries.insert(at, entry);
                // Split where the bytes halve, not the entry count: keys
                // of unequal width would overflow one half.
                let mid = split_point(entries.iter().map(|e| entry_encoded_len(&e.0)));
                let right: Vec<Entry> = entries.split_off(mid);
                if leaf_size(&entries).max(leaf_size(&right)) > PAGE_SIZE {
                    return Err(split_overflow());
                }
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
                // Split the internal node; the key where the bytes halve
                // (each key counted with a child pointer) is promoted.
                let mid = split_point(keys.iter().map(|k| 4 + entry_encoded_len(&k.0)));
                let right_keys: Vec<Entry> = keys.split_off(mid + 1);
                let promoted = keys.pop().expect("the promoted key"); // unwrap-ok: split_point < len
                let right_children: Vec<u32> = children.split_off(mid + 1);
                if internal_size(&keys, &children).max(internal_size(&right_keys, &right_children))
                    > PAGE_SIZE
                {
                    return Err(split_overflow());
                }
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
            match self.descend(txn, no, &probe, 0, &mut visits)? {
                Step::Down(_, child) => no = child,
                Step::Leaf(place) if place.found() => {
                    txn.write_page(self.pid(no), |d| splice_out(d, &place))?;
                    return Ok(true);
                }
                Step::Leaf(_) => return Ok(false),
                // A leaf always has room for nothing more.
                Step::Split { .. } => return Err(corrupt("leaf overflow")),
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

    /// [`BTreeIndex::lookup_eq`] of every key of `keys` in one walk:
    /// returns all matching row ids, key after key, and per key where its
    /// row ids end (key `i`'s are `rids[ends[i - 1]..ends[i]]`). The walk
    /// descends once, then merges the keys with the leaf chain: it
    /// advances inside a leaf, follows `next` while the next key is not
    /// past the sibling's fence (the separators the descent passed say
    /// so), and descends again — for that key — only across a gap. So a
    /// dense key set costs about one visit per leaf it touches, and a
    /// sparse one a descent per key without the meta page.
    ///
    /// `keys` must be strictly ascending. If they are not, a key still
    /// gets only row ids that match it, though maybe not all of them;
    /// nothing worse happens.
    ///
    /// # Errors
    ///
    /// Propagates lock/version/storage errors; `Storage` on a corrupt
    /// node, including a leaf chain that leads back (a leaf entered along
    /// the chain must begin after the keys the leaf before it closed, each
    /// stretch of the walk between two descents has the index's page count
    /// as its visit budget, and no key is descended for twice).
    pub fn lookup_many(
        &self,
        txn: &mut Txn<'_>,
        keys: &[&[Value]],
    ) -> DmvResult<(Vec<RowId>, Vec<usize>)> {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "probe keys must ascend strictly");
        let mut scan = ManyScan::new(keys);
        let start = if keys.is_empty() { None } else { self.root_opt(txn)? };
        let Some((root, mut visits)) = start else {
            return Ok((Vec::new(), vec![0; keys.len()]));
        };
        // The key the last descent was for; the walk begins with one for
        // the first.
        let mut descended_for = 0;
        let mut step = ManyStep::Page(root);
        loop {
            step = match step {
                ManyStep::Page(no) => {
                    self.count_visit(txn, &mut visits)?;
                    txn.read_page(self.pid(no), |d| scan.visit(d))??
                }
                // In a sound tree a descent for a key ends in a leaf that
                // resolves it or begins its matches: a second gap before
                // the same key is a chain that leads back.
                ManyStep::Descend if scan.done == descended_for => {
                    return Err(corrupt("leaf chain out of key order"));
                }
                ManyStep::Descend => {
                    descended_for = scan.done;
                    scan.descend();
                    visits.made = 0;
                    ManyStep::Page(root)
                }
                ManyStep::Done => return Ok((scan.out, scan.ends)),
            };
        }
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

    /// Entries of one width split where they always did — at `len / 2` —
    /// so the page images of an index over such keys (every TPC-W index)
    /// are what they were when nodes split by entry count.
    #[test]
    fn equal_width_entries_split_at_half_the_count() {
        for len in 2..400 {
            for width in [11, 19, 300] {
                assert_eq!(
                    split_point(std::iter::repeat_n(width, len)),
                    len / 2,
                    "{len} x {width}"
                );
            }
        }
    }

    #[test]
    fn unequal_entries_split_where_the_bytes_halve() {
        // Count would put the three wide entries into one half.
        let sizes = [18; 50].into_iter().chain([1300; 3]);
        let mid = split_point(sizes.clone());
        assert_eq!(mid, 51);
        let left: usize = sizes.clone().take(mid).sum();
        let right: usize = sizes.skip(mid).sum();
        assert!(LEAF_HDR + left.max(right) <= PAGE_SIZE, "{left} / {right}");
        // Never an empty half, however lopsided.
        assert_eq!(split_point([MAX_ENTRY, 10, 10].into_iter()), 1);
        assert_eq!(split_point([10, 10, MAX_ENTRY].into_iter()), 2);
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
    use dmv_sql::row::encode_row;
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
        for chained in [false, true] {
            let keys = [&probe[..1], &probe[..]];
            let mut scan = ManyScan::new(&keys);
            scan.in_leaves = chained;
            scan.reach = (!chained).then_some(Reach { sure: 1, upto: 2 });
            let _ = scan.visit(d);
            assert!(
                scan.ends.len() <= keys.len() && scan.ends.iter().all(|&e| e <= scan.out.len())
            );
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

    fn grown_key(i: u32) -> Row {
        vec![Value::from(format!("{i:04}{}", "x".repeat(500)))]
    }

    /// A three-level tree (wide keys keep the fan-out small).
    fn grown_tree(db: &MemDb, ix: BTreeIndex) -> u32 {
        let mut txn = db.begin_update();
        for i in 0..150u32 {
            ix.insert(&mut txn, &grown_key(i), RowId::new(i, 0)).unwrap();
        }
        let root = ix.root(&mut txn).unwrap();
        assert!(
            matches!(ix.descend(&mut txn, root, &(vec![], RowId::new(0, 0)), 0, &mut Visits::default()), Ok(Step::Down(_, child))
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
            let probe = grown_key(75);
            let mut txn = db.begin_update();
            let _ = ix.lookup_eq(&mut txn, &probe);
            // Every other key (gaps to walk or descend across), and every
            // key there is and a few there are not.
            for step in [2, 1] {
                let keys: Vec<Row> = (0..160).step_by(step).map(grown_key).collect();
                let keys: Vec<&[Value]> = keys.iter().map(Vec::as_slice).collect();
                if let Ok((rids, ends)) = ix.lookup_many(&mut txn, &keys) {
                    prop_assert_eq!(ends.len(), keys.len());
                    prop_assert!(ends.is_sorted() && ends.last() == Some(&rids.len()));
                }
            }
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
            match ix.descend(&mut txn, no, &(vec![], RowId::new(0, 0)), 0, &mut Visits::default()) {
                Ok(Step::Down(_, child)) => no = child,
                Ok(Step::Leaf(_)) => match ix.read_node(&mut txn, no) {
                    Ok(Node::Leaf { next, .. }) => break (no, next.unwrap()),
                    node => panic!("{node:?}"),
                },
                Ok(Step::Split { .. }) => unreachable!("a leaf has room for nothing more"),
                Err(e) => panic!("{e}"),
            }
        };
        txn.write_page(ix.pid(first.1), |d| put_u32(d, 3, first.0 + 1)).unwrap();
        let err = ix.range(&mut txn, None, None, false, None).unwrap_err();
        assert!(matches!(err, DmvError::Storage(_)), "{err}");
        // The key merge enters the first leaf again as the sibling of the
        // second: it does not begin after the keys the second leaf closed.
        let all: Vec<Row> = (0..150).map(grown_key).collect();
        let all: Vec<&[Value]> = all.iter().map(Vec::as_slice).collect();
        let merge_fails = |txn: &mut Txn<'_>, keys: &[&[Value]]| {
            let err = ix.lookup_many(txn, keys).unwrap_err();
            assert!(matches!(err, DmvError::Storage(_)), "{err}");
        };
        merge_fails(&mut txn, &all);
        // The first key of the third leaf, alone: it equals its leaf's
        // fence, so the descent ends in the second leaf and follows
        // `next` with no key closed to hold the sibling against. The
        // first leaf lies wholly before the key, the walk descends again —
        // into the second leaf — and the second gap before the same key
        // is the error.
        let Node::Leaf { entries, .. } = ix.read_node(&mut txn, first.1).unwrap() else {
            unreachable!("the first leaf's successor is a leaf")
        };
        let third = all[2 * entries.len()];
        assert_eq!(cmp_row(&encode_row(&entries[entries.len() - 1].0), third), Ok(Ordering::Less));
        merge_fails(&mut txn, &[third]);
        // A leaf that is its own successor ends the same way …
        txn.write_page(ix.pid(first.1), |d| put_u32(d, 3, first.1 + 1)).unwrap();
        merge_fails(&mut txn, &all);
        merge_fails(&mut txn, &[third]);
        // … and an empty one, which is no gap and closes no key, when the
        // walk has visited more pages than the index has.
        ix.write_node(&mut txn, first.1, &Node::Leaf { next: Some(first.1), entries: vec![] })
            .unwrap();
        merge_fails(&mut txn, &[third]);
    }

    /// The widest key an index takes is a third of a page, and a tree of
    /// such keys next to the narrowest splits without overflowing a half.
    #[test]
    fn a_key_over_a_third_of_a_page_is_refused() {
        let db = kv_db();
        let ix = BTreeIndex::new(TableId(0), 0);
        let mut txn = db.begin_update();
        // An entry is its key's encoding (2 + 1 + 4 + the text) and 8 more.
        let widest = MAX_ENTRY - ENTRY_OVERHEAD - 7;
        let err = ix.insert(&mut txn, &["w".repeat(widest + 1).into()], RowId::new(0, 0));
        assert!(matches!(err, Err(DmvError::Storage(_))), "{err:?}");
        let mut want = Vec::new();
        for i in 0..40u32 {
            let wide = format!("{i:02}{}", "w".repeat(widest - 2));
            for key in [Value::from(format!("{i:02}")), Value::from(wide)] {
                ix.insert(&mut txn, std::slice::from_ref(&key), RowId::new(i, 0)).unwrap();
                want.push(RowId::new(i, 0));
            }
        }
        assert_eq!(ix.range(&mut txn, None, None, false, None).unwrap(), want);
        assert!(ix.page_count(&txn) > 10);
    }

    /// An internal node splits where its bytes halve, too. Built by hand:
    /// a root over eight leaves whose first three separators are as wide
    /// as keys get and whose last four are narrow; a fourth wide
    /// separator arrives from below. Halving the *count* would put all
    /// four wide ones into the left half.
    #[test]
    fn an_internal_node_of_unequal_separators_splits_by_size() {
        let db = kv_db();
        let ix = BTreeIndex::new(TableId(0), 0);
        let mut txn = db.begin_update();
        let wide = |tag: &str| Value::from(format!("{tag}{}", "w".repeat(1290)));
        let groups: [Vec<Value>; 8] = [
            vec!["0".into()],
            vec![wide("a0"), wide("a1"), wide("a3")], // a leaf one wide entry from overflowing
            vec![wide("b")],
            vec![wide("c")],
            vec!["d".into()],
            vec!["e".into()],
            vec!["f".into()],
            vec!["g".into()],
        ];
        let entry = |key: &Value| (vec![key.clone()], RowId::new(0, 0));
        for _ in 0..10 {
            txn.allocate_page(ix.table, ix.space()).unwrap();
        }
        txn.write_page(ix.pid(0), |d| encode_meta(d, 1)).unwrap();
        let root = Node::Internal {
            keys: groups[1..].iter().map(|g| entry(&g[0])).collect(),
            children: (2..10).collect(),
        };
        ix.write_node(&mut txn, 1, &root).unwrap();
        for (i, group) in groups.iter().enumerate() {
            let next = (i < 7).then_some(i as u32 + 3);
            let leaf = Node::Leaf { next, entries: group.iter().map(entry).collect() };
            ix.write_node(&mut txn, i as u32 + 2, &leaf).unwrap();
        }
        ix.insert(&mut txn, &[wide("a2")], RowId::new(0, 0)).unwrap();
        let mut want: Vec<Value> = groups.concat();
        want.push(wide("a2"));
        want.sort();
        for key in &want {
            assert_eq!(ix.lookup_eq(&mut txn, std::slice::from_ref(key)).unwrap().len(), 1);
        }
        assert_eq!(ix.range(&mut txn, None, None, false, None).unwrap().len(), want.len());
        let new_root = ix.root(&mut txn).unwrap();
        let Node::Internal { keys, children } = ix.read_node(&mut txn, new_root).unwrap() else {
            unreachable!("the root split")
        };
        assert_eq!((keys.len(), children.len()), (1, 2));
        assert!(keys[0].0 == [wide("b")], "two wide separators stay left, the third goes up");
    }

    /// An edit of one leaf, as an insert or a delete that reaches it makes
    /// it.
    #[derive(Debug, Clone)]
    enum Edit {
        Insert(Entry),
        Delete(Entry),
    }

    /// What a leaf becomes when an insert overflows it: its `next` and its
    /// entries with the new one, to be split.
    type Overflow = Option<(Option<u32>, Vec<Entry>)>;

    /// The reference edit: decode the leaf, edit the `Vec`, encode it back
    /// onto the same bytes — unless it overflows.
    fn edit_decoded(page: &mut [u8], edit: &Edit) -> Overflow {
        let Ok(Node::Leaf { next, mut entries }) = decode_node(page) else { unreachable!() };
        match edit {
            Edit::Insert(e) => match entries.binary_search_by(|x| cmp_entry(x, e)) {
                Ok(_) => return None,
                Err(pos) => entries.insert(pos, e.clone()),
            },
            Edit::Delete(e) => match entries.binary_search_by(|x| cmp_entry(x, e)) {
                Ok(pos) => drop(entries.remove(pos)),
                Err(_) => return None,
            },
        }
        if leaf_size(&entries) > PAGE_SIZE {
            return Some((next, entries));
        }
        encode_node(&Node::Leaf { next, entries }, page);
        None
    }

    /// The edit as [`BTreeIndex::insert`] and [`BTreeIndex::delete`] make
    /// it on the leaf they reach.
    fn edit_in_place(page: &mut [u8], edit: &Edit) -> Overflow {
        let (probe, room) = match edit {
            Edit::Insert(e) => (e, entry_encoded_len(&e.0)),
            Edit::Delete(e) => (e, 0),
        };
        let Ok(NodeRef::Leaf { next, entries }) = NodeRef::parse(page) else { unreachable!() };
        match leaf_step(next, entries, probe, room).unwrap() {
            Step::Leaf(place) => match edit {
                Edit::Insert(e) if !place.found() => splice_in(page, &place, e).unwrap(),
                Edit::Delete(_) if place.found() => splice_out(page, &place),
                _ => {}
            },
            Step::Split { next, mut entries, at } => {
                entries.insert(at, probe.clone());
                return Some((next, entries));
            }
            Step::Down(..) => unreachable!("a leaf routes nowhere"),
        }
        None
    }

    /// How a step of [`run_edits`] picks its edit: `kind` 0–1 inserts a
    /// new entry, 2 one the leaf holds, 3 deletes one it holds, 4 a new
    /// one, 5 inserts the widest entry that fits — the one that fills the
    /// leaf to its last byte when the leaf lacks at most [`MAX_ENTRY`].
    /// `pick` chooses among the leaf's entries.
    type EditSpec = (u8, u16, Entry);

    /// A leaf's bytes past its entries are never looked at, and edits
    /// leave them as they are; start with garbage there.
    fn garbage_leaf() -> Vec<u8> {
        let mut page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7 + 3) as u8).collect();
        encode_node(&Node::Leaf { next: Some(3), entries: Vec::new() }, &mut page);
        page
    }

    fn str_entry(first: char, width: usize, rid: RowId) -> Entry {
        // An entry of one string column is the text and 15 bytes more.
        let text: String =
            std::iter::once(first).chain(std::iter::repeat_n('x', width - 16)).collect();
        (vec![text.into()], rid)
    }

    /// Edits one leaf in place and by the reference, step after step: the
    /// two pages must be equal after every step, and an insert must
    /// overflow both or neither; an overflowing leaf keeps its left half,
    /// as a split does. Returns whether a step began on a leaf filled to
    /// `PAGE_SIZE` exactly, and whether some leaf split.
    fn run_edits(specs: &[EditSpec]) -> Result<(bool, bool), TestCaseError> {
        let (mut tree, mut reference) = (garbage_leaf(), garbage_leaf());
        let (mut filled, mut split) = (false, false);
        for (kind, pick, new) in specs {
            let Ok(Node::Leaf { entries: held, .. }) = decode_node(&reference) else {
                unreachable!()
            };
            let held_one = (!held.is_empty()).then(|| held[*pick as usize % held.len()].clone());
            let size = leaf_size(&held);
            filled |= size == PAGE_SIZE;
            let edit = match (kind, held_one) {
                (2, Some(e)) => Edit::Insert(e),
                (3, Some(e)) => Edit::Delete(e),
                (3 | 4, _) => Edit::Delete(new.clone()),
                (5, _) if PAGE_SIZE - size >= 16 => {
                    let first = char::from(b'a' + (*pick % 26) as u8);
                    Edit::Insert(str_entry(first, (PAGE_SIZE - size).min(MAX_ENTRY), new.1))
                }
                _ => Edit::Insert(new.clone()),
            };
            let overflow = edit_in_place(&mut tree, &edit);
            prop_assert_eq!(&overflow, &edit_decoded(&mut reference, &edit), "{:?}", edit);
            prop_assert!(tree == reference, "pages differ after {:?}", edit);
            if let Some((next, mut entries)) = overflow {
                split = true;
                entries.truncate(split_point(entries.iter().map(|e| entry_encoded_len(&e.0))));
                for page in [&mut tree, &mut reference] {
                    encode_node(&Node::Leaf { next, entries: entries.clone() }, page);
                }
            }
        }
        Ok((filled, split))
    }

    fn arb_edit() -> impl Strategy<Value = EditSpec> {
        let key = prop_oneof![
            (-20i64..20).prop_map(|k| vec![Value::Int(k)]),
            ("[a-e]{0,3}", 0usize..40).prop_map(|(s, n)| vec![Value::from(s + &"x".repeat(n))]),
            (0usize..=MAX_ENTRY - 15).prop_map(|n| vec![Value::from("w".repeat(n))]),
            (-3i64..3, "[a-c]{0,2}").prop_map(|(k, s)| vec![Value::Int(k), Value::from(s)]),
        ];
        (0u8..6, any::<u16>(), key, 0u32..3, 0u16..3)
            .prop_map(|(kind, pick, key, page, slot)| (kind, pick, (key, RowId::new(page, slot))))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// An edit made where the leaf lies writes the page the reference
        /// writes, byte for byte: the same entries, the same count, the
        /// same stale bytes past the end.
        #[test]
        fn an_edit_in_place_writes_the_bytes_of_decode_edit_encode(specs in proptest::collection::vec(arb_edit(), 1..300)) {
            run_edits(&specs)?;
        }
    }

    /// The two boundaries of the split test, hit on purpose: a leaf that
    /// fills to its last byte without splitting, then splits on one entry
    /// more.
    #[test]
    fn a_leaf_fills_to_its_last_byte_then_splits() {
        let rid = RowId::new(1, 1);
        let mut specs: Vec<EditSpec> = (0..4).map(|i| (5, i, (vec![], rid))).collect();
        specs.push((0, 0, (vec![Value::Int(7)], rid)));
        assert_eq!(run_edits(&specs).unwrap(), (true, true));
    }

    /// A node as a tree holds it: entries ascending by [`cmp_entry`], keys
    /// of one column count (one or two), runs of equal keys that differ
    /// only in row id, and a page that fits them.
    fn arb_sorted_node() -> impl Strategy<Value = Node> {
        (arb_node(), 1usize..3, 0u16..3).prop_map(|(node, width, run)| {
            let shape = |entries: Vec<Entry>, fits: &dyn Fn(&[Entry]) -> bool| {
                let mut out: Vec<Entry> = entries
                    .into_iter()
                    .flat_map(|(mut key, rid)| {
                        key.resize(width, Value::Null);
                        (0..=run)
                            .map(move |i| (key.clone(), RowId::new(rid.page_no, rid.slot + 50 * i)))
                    })
                    .collect();
                out.sort_by(cmp_entry);
                out.dedup_by(|a, b| cmp_entry(a, b) == Ordering::Equal);
                while !fits(&out) {
                    out.pop();
                }
                out
            };
            match node {
                Node::Leaf { next, entries } => {
                    let fits = |es: &[Entry]| leaf_size(es) <= PAGE_SIZE;
                    Node::Leaf { next, entries: shape(entries, &fits) }
                }
                Node::Internal { keys, .. } => {
                    let fits =
                        |es: &[Entry]| internal_size(es, &vec![0; es.len() + 1]) <= PAGE_SIZE;
                    let keys = shape(keys, &fits);
                    Node::Internal { children: (0..=keys.len() as u32).collect(), keys }
                }
            }
        })
    }

    /// What a prefix probe orders on: the columns the key and the probe
    /// share, as `cmp_prefix` does on the encoded key.
    fn cmp_on_prefix(key: &[Value], probe: &[Value]) -> Ordering {
        let n = key.len().min(probe.len());
        key[..n].cmp(&probe[..n])
    }

    /// The linear reference: how many leading entries `before` holds for,
    /// walking front to back.
    fn leading(entries: &[Entry], before: impl Fn(&Entry) -> bool) -> usize {
        entries.iter().take_while(|e| before(e)).count()
    }

    /// Where entry `i` of a leaf begins, counted over the entries before it.
    fn start_of(entries: &[Entry], i: usize) -> usize {
        LEAF_HDR + entries[..i].iter().map(|e| entry_encoded_len(&e.0)).sum::<usize>()
    }

    /// Every search that bisects a node's entries on `page`, against a
    /// front-to-back walk of them decoded, for the full entries `probes`
    /// and the key prefixes `prefixes`.
    fn bisection_matches_the_walk(
        node: &Node,
        page: &[u8],
        probes: &[Entry],
        prefixes: &[Row],
    ) -> Result<(), TestCaseError> {
        match node {
            Node::Leaf { next, entries } => {
                for probe in probes {
                    let Ok(Step::Leaf(place)) = step(page, probe, 0) else {
                        return Err(TestCaseError::fail("a leaf with room is a place"));
                    };
                    let index = leading(entries, |e| cmp_entry(e, probe) == Ordering::Less);
                    let found = entries.get(index) == Some(probe);
                    let start = start_of(entries, index);
                    let span = start..if found { start_of(entries, index + 1) } else { start };
                    let want = (index, span, start_of(entries, entries.len()), entries.len());
                    let got = (place.index, place.span, place.end, place.count as usize);
                    prop_assert_eq!(got, want, "{:?}", probe);
                }
                for lo in prefixes {
                    for inclusive in [true, false] {
                        let mut scan = RangeScan {
                            lo: Some((lo, inclusive)),
                            hi: None,
                            limit: usize::MAX,
                            past_lo: false,
                            in_leaves: false,
                            out: Vec::new(),
                        };
                        let after = scan.visit(page).unwrap();
                        let first = leading(entries, |e| match cmp_on_prefix(&e.0, lo) {
                            Ordering::Less => true,
                            Ordering::Equal => !inclusive,
                            Ordering::Greater => false,
                        });
                        let rids: Vec<RowId> = entries[first..].iter().map(|e| e.1).collect();
                        prop_assert_eq!(&scan.out, &rids, "{:?} inclusive {}", lo, inclusive);
                        prop_assert_eq!(scan.past_lo, first < entries.len());
                        prop_assert_eq!(after, *next);
                    }
                }
            }
            Node::Internal { keys, children } => {
                for probe in probes {
                    let at_or_before = leading(keys, |k| cmp_entry(k, probe) != Ordering::Greater);
                    let got = match step(page, probe, 0) {
                        Ok(Step::Down(idx, child)) => (idx, child),
                        _ => return Err(TestCaseError::fail("an internal node routes down")),
                    };
                    prop_assert_eq!(got, (at_or_before, children[at_or_before]), "{:?}", probe);
                }
                for lo in prefixes {
                    let mut scan = RangeScan {
                        lo: Some((lo, true)),
                        hi: None,
                        limit: usize::MAX,
                        past_lo: false,
                        in_leaves: false,
                        out: Vec::new(),
                    };
                    let below_lo = leading(keys, |k| cmp_on_prefix(&k.0, lo) == Ordering::Less);
                    prop_assert_eq!(scan.visit(page).unwrap(), Some(children[below_lo]));
                }
                // `route` for every key of each width: the child, the fence's
                // reach and the reaches of the leaves to follow.
                for width in 0..=2 {
                    let mut wanted: Vec<&[Value]> =
                        prefixes.iter().filter(|p| p.len() == width).map(Vec::as_slice).collect();
                    wanted.sort();
                    wanted.dedup();
                    let reach = |scan: &ManyScan<'_>, fence: &Entry, from| {
                        scan.reach_below(&encode_row(&fence.0), from).unwrap()
                    };
                    for done in 0..wanted.len() {
                        let mut scan = ManyScan::new(&wanted);
                        scan.done = done;
                        let Ok(NodeRef::Internal { children: child_bytes, keys: seps }) =
                            NodeRef::parse(page)
                        else {
                            unreachable!()
                        };
                        let child = scan.route(child_bytes, seps).unwrap();
                        let idx =
                            leading(keys, |k| cmp_on_prefix(&k.0, wanted[done]) == Ordering::Less);
                        let fence = keys.get(idx).map(|fence| reach(&scan, fence, done));
                        let mut ahead = Vec::new();
                        if let Some(mut at) = fence {
                            for sep in &keys[idx + 1..] {
                                let next = reach(&scan, sep, at.sure);
                                if next.upto == at.upto {
                                    break;
                                }
                                ahead.insert(0, next);
                                at = next;
                            }
                        }
                        prop_assert_eq!(child, children[idx], "{:?}", wanted[done]);
                        prop_assert_eq!(scan.reach, fence);
                        prop_assert_eq!(&scan.ahead, &ahead);
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each search that bisects a node finds what walking it front to
        /// back finds: the descent's child (a separator equal to the probe
        /// routes right), a range's first child and first entry in its
        /// lower bound (inclusive and exclusive), `lookup_many`'s child and
        /// fences, and an edit's place. Probes are the node's own entries,
        /// their neighbours by row id, every prefix of their keys, and
        /// keys the node lacks.
        #[test]
        fn bisection_finds_what_a_front_to_back_walk_finds(
            node in arb_sorted_node(),
            others in proptest::collection::vec((arb_key(), 0u32..50, 0u16..200), 0..8),
        ) {
            let mut page = vec![0u8; PAGE_SIZE];
            encode_node(&node, &mut page);
            let (Node::Leaf { entries, .. } | Node::Internal { keys: entries, .. }) = &node;
            let width = entries.first().map_or(1, |e| e.0.len());
            let mut probes: Vec<Entry> = others
                .into_iter()
                .map(|(mut key, page, slot)| {
                    key.resize(width, Value::Null);
                    (key, RowId::new(page, slot))
                })
                .collect();
            for (key, rid) in entries {
                for slot in [rid.slot.wrapping_sub(1), rid.slot, rid.slot + 1] {
                    probes.push((key.clone(), RowId::new(rid.page_no, slot)));
                }
            }
            let mut prefixes: Vec<Row> = probes
                .iter()
                .flat_map(|(key, _)| (0..=key.len()).map(|n| key[..n].to_vec()))
                .collect();
            prefixes.sort();
            prefixes.dedup();
            bisection_matches_the_walk(&node, &page, &probes, &prefixes)?;
        }
    }

    fn int_keys(keys: &[i64]) -> Vec<[Value; 1]> {
        keys.iter().map(|&k| [Value::Int(k)]).collect()
    }

    /// A tree of the even numbers below 2 000, each under two row ids.
    fn even_numbers(db: &MemDb, ix: BTreeIndex) {
        let mut txn = db.begin_update();
        for k in (0..2000).step_by(2) {
            for slot in 0..2 {
                ix.insert(&mut txn, &[Value::Int(k)], RowId::new(k as u32, slot)).unwrap();
            }
        }
        txn.commit(None);
    }

    #[test]
    fn lookup_many_resolves_each_key_to_its_own_run() {
        let db = kv_db();
        let ix = BTreeIndex::new(TableId(0), 0);
        even_numbers(&db, ix);
        let mut txn = db.begin_read_local();
        // Below the first key, absent between present ones, a present one
        // far along the chain, above the last key.
        let keys = int_keys(&[-5, 10, 11, 12, 1500, 1998, 1999, 5000]);
        let keys: Vec<&[Value]> = keys.iter().map(|k| &k[..]).collect();
        let (rids, ends) = ix.lookup_many(&mut txn, &keys).unwrap();
        let both = |k: u32| [RowId::new(k, 0), RowId::new(k, 1)];
        assert_eq!(rids, [both(10), both(12), both(1500), both(1998)].concat());
        assert_eq!(ends, [0, 2, 2, 4, 6, 8, 8, 8]);
        assert_eq!(ix.lookup_many(&mut txn, &[]).unwrap(), (vec![], vec![]));
        // An index nobody wrote to matches nothing.
        let empty = BTreeIndex::new(TableId(0), 1);
        assert_eq!(empty.lookup_many(&mut txn, &keys).unwrap(), (vec![], vec![0; 8]));
    }

    /// Keys out of order are the caller's bug (debug builds say so); a
    /// release build still gives every key a run of its own that holds
    /// nothing but row ids matching it.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "ascend strictly"))]
    fn lookup_many_never_gives_a_key_the_rows_of_another() {
        let db = kv_db();
        let ix = BTreeIndex::new(TableId(0), 0);
        even_numbers(&db, ix);
        let mut txn = db.begin_read_local();
        for ks in [&[10, 10, 4, 700, 700, 12, 1998][..], &[1998, 4], &[6, 4, 2, 0], &[3, 3, 3]] {
            let keys = int_keys(ks);
            let keys: Vec<&[Value]> = keys.iter().map(|k| &k[..]).collect();
            let (rids, ends) = ix.lookup_many(&mut txn, &keys).unwrap();
            assert_eq!(ends.len(), ks.len());
            assert!(ends.is_sorted() && ends.last() == Some(&rids.len()), "{ends:?}");
            let mut from = 0;
            for (&k, &to) in ks.iter().zip(&ends) {
                assert!(rids[from..to].iter().all(|rid| rid.page_no as i64 == k), "key {k}");
                from = to;
            }
        }
    }
}
