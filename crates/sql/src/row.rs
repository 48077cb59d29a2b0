//! Compact row codec: rows are serialized into page records with a
//! self-describing, deterministic byte encoding.
//!
//! Besides the owned [`encode_row`]/[`decode_row`] pair the module reads
//! encoded rows *where they lie*: a [`RowCursor`] walks the columns of a
//! record inside a page and hands out [`ValueRef`]s borrowed from its
//! bytes, [`decode_cols_into`] materializes only the columns a statement
//! asked for — straight into its row of the read's [`RowBatch`] — and
//! [`cmp_prefix`]/[`cmp_row`] order an encoded index key against a probe
//! without decoding it. Every length read from the bytes is
//! bounds-checked and every string UTF-8-validated before it is handed
//! out; malformed bytes are a [`DmvError::Storage`], never a panic.

use crate::value::{Value, ValueRef};
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::RowId;
use std::cmp::Ordering;

/// A row: one value per column.
pub type Row = Vec<Value>;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;

/// Length of [`encode_row`]'s output for `row`, without encoding it.
pub fn encoded_len(row: &[Value]) -> usize {
    let payload = |v: &Value| match v {
        Value::Null | Value::Bool(_) => 0,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => 4 + s.len(),
    };
    2 + row.iter().map(|v| 1 + payload(v)).sum::<usize>()
}

/// Encodes `row` into the front of `out` and returns the number of bytes
/// written ([`encoded_len`]); the bytes are exactly [`encode_row`]'s.
///
/// # Panics
///
/// Panics if `out` is shorter than [`encoded_len`]`(row)`.
pub fn encode_row_into(row: &[Value], out: &mut [u8]) -> usize {
    let mut at = 0;
    let mut put = |bytes: &[u8]| {
        out[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    put(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Null => put(&[TAG_NULL]),
            Value::Bool(false) => put(&[TAG_FALSE]),
            Value::Bool(true) => put(&[TAG_TRUE]),
            Value::Int(i) => {
                put(&[TAG_INT]);
                put(&i.to_le_bytes());
            }
            Value::Float(f) => {
                put(&[TAG_FLOAT]);
                put(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                put(&[TAG_STR]);
                put(&(s.len() as u32).to_le_bytes());
                put(s.as_bytes());
            }
        }
    }
    at
}

/// Encodes a row into bytes.
///
/// The encoding is deterministic: the same row always produces the same
/// bytes, which keeps replica page images bit-identical.
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = vec![0u8; encoded_len(row)];
    encode_row_into(row, &mut out);
    out
}

#[cold]
fn malformed() -> DmvError {
    DmvError::Storage("malformed row encoding".into())
}

/// Walks the columns of an encoded row in place, left to right.
#[derive(Debug, Clone)]
pub struct RowCursor<'a> {
    /// The bytes of the columns not yet consumed.
    rest: &'a [u8],
    /// How many columns those bytes hold.
    left: usize,
}

impl<'a> RowCursor<'a> {
    /// A cursor positioned on the first column of `bytes`.
    ///
    /// # Errors
    ///
    /// [`DmvError::Storage`] if the column count is truncated.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> DmvResult<Self> {
        let (count, rest) = bytes.split_first_chunk().ok_or_else(malformed)?;
        Ok(RowCursor { rest, left: u16::from_le_bytes(*count) as usize })
    }

    /// Number of columns not yet consumed.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Consumes the next column: its tag and its payload bytes (the
    /// string bytes for `TAG_STR`, not yet validated).
    #[inline]
    fn take(&mut self) -> DmvResult<(u8, &'a [u8])> {
        let (&tag, rest) =
            self.rest.split_first().filter(|_| self.left > 0).ok_or_else(malformed)?;
        let (len, rest) = match tag {
            TAG_NULL | TAG_FALSE | TAG_TRUE => (0, rest),
            TAG_INT | TAG_FLOAT => (8, rest),
            TAG_STR => {
                let (len, rest) = rest.split_first_chunk().ok_or_else(malformed)?;
                (u32::from_le_bytes(*len) as usize, rest)
            }
            _ => return Err(malformed()),
        };
        let (payload, rest) = rest.split_at_checked(len).ok_or_else(malformed)?;
        self.rest = rest;
        self.left -= 1;
        Ok((tag, payload))
    }

    /// Consumes the next column and returns its value, borrowed from the
    /// row's bytes.
    ///
    /// # Errors
    ///
    /// [`DmvError::Storage`] past the last column, on an unknown tag, a
    /// truncated payload or a string that is not UTF-8.
    #[inline]
    pub fn next_value(&mut self) -> DmvResult<ValueRef<'a>> {
        let (tag, payload) = self.take()?;
        let bits = || u64::from_le_bytes(payload.try_into().unwrap_or_default());
        Ok(match tag {
            TAG_NULL => ValueRef::Null,
            TAG_FALSE => ValueRef::Bool(false),
            TAG_TRUE => ValueRef::Bool(true),
            TAG_INT => ValueRef::Int(bits() as i64),
            TAG_FLOAT => ValueRef::Float(f64::from_bits(bits())),
            _ => ValueRef::Str(std::str::from_utf8(payload).map_err(|_| malformed())?),
        })
    }

    /// Consumes the next column without looking at its payload.
    ///
    /// # Errors
    ///
    /// As [`RowCursor::next_value`], except that a skipped string is not
    /// UTF-8-validated.
    pub fn skip(&mut self) -> DmvResult<()> {
        self.take().map(|_| ())
    }
}

/// Decodes a row previously produced by [`encode_row`].
///
/// # Errors
///
/// Returns [`DmvError::Storage`] if the bytes are truncated or malformed.
pub fn decode_row(bytes: &[u8]) -> DmvResult<Row> {
    let mut c = RowCursor::new(bytes)?;
    // Every column takes at least its tag byte, which bounds the count.
    let mut row = Vec::with_capacity(c.remaining().min(bytes.len()));
    while c.remaining() > 0 {
        row.push(c.next_value()?.to_value());
    }
    if !c.rest.is_empty() {
        return Err(malformed());
    }
    Ok(row)
}

/// Decodes only columns `cols` (strictly ascending) of an encoded row
/// into `out`, one value per entry of `cols`, in that order; a column the
/// stored row does not have reads as NULL. Bytes after the last requested
/// column are not looked at.
///
/// # Errors
///
/// [`DmvError::Storage`] if the bytes up to the last requested column are
/// malformed; [`DmvError::Query`] if `cols` is not strictly ascending or
/// `out` is not `cols.len()` long.
pub fn decode_cols_into(bytes: &[u8], cols: &[usize], out: &mut [Value]) -> DmvResult<()> {
    if out.len() != cols.len() {
        return Err(DmvError::Query("row width differs from the column set".into()));
    }
    let mut c = RowCursor::new(bytes)?;
    let mut at = 0; // index of the column the cursor is positioned on
    for (i, (&want, out)) in cols.iter().zip(out).enumerate() {
        if i > 0 && want <= cols[i - 1] {
            return Err(DmvError::Query("column set is not strictly ascending".into()));
        }
        if want - at >= c.remaining() {
            *out = Value::Null;
            continue;
        }
        while at < want {
            c.skip()?;
            at += 1;
        }
        *out = c.next_value()?.to_value();
        at += 1;
    }
    Ok(())
}

/// The rows of one read, stored as runs of values: a row is `width`
/// consecutive values and came from the row id at its position. The runs
/// are *chunks* of a fixed number of rows (a power of two, [`CHUNK`]
/// values or fewer), so a read of any size costs an allocation per few
/// thousand values where a `Vec<Row>` takes one per row, and most reads
/// are one chunk. Chunks rather than one run, because a whole-table scan
/// in a single allocation is served by the allocator from fresh pages
/// while the heap memory earlier statements gave back lies idle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RowBatch {
    rids: Vec<RowId>,
    width: usize,
    /// A chunk holds `1 << shift` rows, the last one maybe fewer.
    shift: u32,
    chunks: Vec<Vec<Value>>,
}

/// The most values a chunk holds (unless one row has more): under the
/// size from which allocators map an allocation on its own.
const CHUNK: usize = 2048;

impl RowBatch {
    /// An empty batch of rows of `width` columns.
    pub fn new(width: usize) -> Self {
        let shift = (CHUNK / width.max(1)).max(1).ilog2();
        RowBatch { rids: Vec::new(), width, shift, chunks: Vec::new() }
    }

    /// A batch of `rids.len()` all-NULL rows of `width` columns, to be
    /// filled through [`RowBatch::row_mut`].
    pub fn nulls(rids: Vec<RowId>, width: usize) -> Self {
        let mut batch = RowBatch::new(width);
        let per_chunk = width << batch.shift;
        let mut values = rids.len() * width;
        while values > 0 {
            batch.chunks.push(vec![Value::Null; values.min(per_chunk)]);
            values -= values.min(per_chunk);
        }
        batch.rids = rids;
        batch
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rids.len()
    }

    /// True if the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// Where each row came from.
    pub fn rids(&self) -> &[RowId] {
        &self.rids
    }

    /// Row `i`'s chunk, and where in it the row begins.
    #[inline]
    fn place(&self, i: usize) -> (usize, usize) {
        assert!(i < self.rids.len(), "row {i} of a batch of {}", self.rids.len());
        (i >> self.shift, (i & ((1 << self.shift) - 1)) * self.width)
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// If `i` is not less than [`RowBatch::len`].
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        let (chunk, at) = self.place(i);
        match self.width {
            0 => &[],
            width => &self.chunks[chunk][at..][..width],
        }
    }

    /// Row `i`, to decode into.
    ///
    /// # Panics
    ///
    /// If `i` is not less than [`RowBatch::len`].
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Value] {
        let (chunk, at) = self.place(i);
        match self.width {
            0 => &mut [],
            width => &mut self.chunks[chunk][at..][..width],
        }
    }

    /// Appends an all-NULL row that came from `rid` and returns it.
    pub fn push_null_row(&mut self, rid: RowId) -> &mut [Value] {
        self.rids.push(rid);
        if self.width == 0 {
            return &mut [];
        }
        let per_chunk = self.width << self.shift;
        if self.chunks.last().is_none_or(|last| last.len() == per_chunk) {
            // A second chunk means a large read: no point growing into it.
            let room = if self.chunks.is_empty() { 0 } else { per_chunk };
            self.chunks.push(Vec::with_capacity(room));
        }
        let last = self.chunks.last_mut().expect("a chunk with room"); // unwrap-ok: pushed above
        let from = last.len();
        last.resize(from + self.width, Value::Null);
        &mut last[from..]
    }

    /// Appends the rows of `other`, which must be as wide, values moved.
    ///
    /// # Panics
    ///
    /// If the widths differ.
    pub fn append(&mut self, mut other: RowBatch) {
        assert_eq!(self.width, other.width, "appending a batch of another width");
        for i in 0..other.len() {
            let rid = other.rids[i];
            self.push_null_row(rid).swap_with_slice(other.row_mut(i));
        }
    }

    /// Removes the rows at `positions` (strictly ascending).
    pub fn remove_rows(&mut self, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        let (mut gone, mut kept) = (positions.iter().peekable(), RowBatch::new(self.width));
        for i in 0..self.len() {
            if gone.next_if_eq(&&i).is_none() {
                let rid = self.rids[i];
                kept.push_null_row(rid).swap_with_slice(self.row_mut(i));
            }
        }
        *self = kept;
    }

    /// The rows, each as its own `Vec`, values moved. A chunk is given
    /// back as soon as its rows have left it, so that batch and rows
    /// together never hold much more than the batch did — a whole-table
    /// scan is returned without being held twice.
    pub fn into_rows(self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.len());
        if self.width == 0 {
            rows.resize(self.len(), Row::new());
        }
        for chunk in self.chunks {
            let mut values = chunk.into_iter();
            while values.len() > 0 {
                rows.push(values.by_ref().take(self.width).collect());
            }
        }
        rows
    }
}

/// Compares the first `min(columns, probe.len())` columns of the encoded
/// row `bytes` with `probe`; also returns the row's column count.
#[inline]
fn cmp_columns(bytes: &[u8], probe: &[Value]) -> DmvResult<(Ordering, usize)> {
    let mut c = RowCursor::new(bytes)?;
    let columns = c.remaining();
    for p in probe.iter().take(columns) {
        let ord = c.next_value()?.cmp(&ValueRef::from(p));
        if ord != Ordering::Equal {
            return Ok((ord, columns));
        }
    }
    Ok((Ordering::Equal, columns))
}

/// Orders the encoded row `bytes` against `probe` on their common prefix
/// — the first `min(columns, probe.len())` columns — exactly as comparing
/// those prefixes of the decoded row and the probe would.
///
/// # Errors
///
/// [`DmvError::Storage`] if a compared column is malformed.
#[inline]
pub fn cmp_prefix(bytes: &[u8], probe: &[Value]) -> DmvResult<Ordering> {
    Ok(cmp_columns(bytes, probe)?.0)
}

/// Orders the encoded row `bytes` against `row` exactly as comparing the
/// decoded row with `row` would (lexicographic, the shorter row first on
/// an equal prefix).
///
/// # Errors
///
/// [`DmvError::Storage`] if a compared column is malformed.
pub fn cmp_row(bytes: &[u8], row: &[Value]) -> DmvResult<Ordering> {
    let (prefix, columns) = cmp_columns(bytes, row)?;
    Ok(prefix.then(columns.cmp(&row.len())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_row() {
        let row: Row = vec![
            Value::Int(42),
            Value::from("hello"),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
            Value::Bool(false),
        ];
        let bytes = encode_row(&row);
        assert_eq!(decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn empty_row() {
        let row: Row = vec![];
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }

    #[test]
    fn encoding_is_deterministic() {
        let row: Row = vec![Value::from("x"), Value::Int(1)];
        assert_eq!(encode_row(&row), encode_row(&row));
    }

    #[test]
    fn truncated_bytes_error() {
        let bytes = encode_row(&[Value::Int(5)]);
        assert!(decode_row(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_row(&[]).is_err());
    }

    #[test]
    fn trailing_garbage_error() {
        let mut bytes = encode_row(&[Value::Int(5)]);
        bytes.push(0);
        assert!(decode_row(&bytes).is_err());
    }

    #[test]
    fn batch_rows_are_runs_of_one_allocation() {
        let rid = |i: usize| RowId::new(i as u32 / 4, i as u16 % 4);
        let mut batch = RowBatch::nulls((0..3).map(rid).collect(), 2);
        assert_eq!((batch.len(), batch.row(1)), (3, &[Value::Null, Value::Null][..]));
        batch.row_mut(1)[0] = Value::Int(7);
        batch.push_null_row(rid(3))[1] = Value::from("x");
        assert_eq!(batch.rids(), (0..4).map(rid).collect::<Vec<_>>());
        assert_eq!(batch.row(3), [Value::Null, Value::from("x")]);
        batch.remove_rows(&[0, 2]);
        assert_eq!(batch.rids(), [rid(1), rid(3)]);
        let rows = batch.into_rows();
        assert_eq!(rows, [vec![Value::Int(7), Value::Null], vec![Value::Null, Value::from("x")]]);
        // Rows without columns are still rows.
        let mut empty = RowBatch::nulls(vec![rid(0)], 0);
        assert_eq!(empty.row(0), []);
        assert!(empty.push_null_row(rid(1)).is_empty());
        assert_eq!(empty.into_rows(), [Row::new(), Row::new()]);
        assert!(RowBatch::default().is_empty());
    }

    /// A batch of many chunks — filled row by row, made whole and decoded
    /// into, or appended to — turns into its rows with nothing lost or
    /// reordered, also with rows removed across chunk boundaries.
    #[test]
    fn large_batch_turns_into_its_rows_in_order() {
        let n = 20_000;
        let mut batch = RowBatch::new(3);
        for i in 0..n {
            let row = batch.push_null_row(RowId::new(i, 0));
            row[0] = Value::Int(i as i64);
            row[2] = Value::from(format!("row {i}"));
        }
        let mut whole = RowBatch::nulls(batch.rids().to_vec(), 3);
        for i in 0..n as usize {
            whole.row_mut(i).clone_from_slice(batch.row(i));
        }
        assert_eq!(whole, batch);
        // A batch appended to another is the one batch of both their rows.
        let (mut front, mut back) = (RowBatch::new(3), RowBatch::new(3));
        for i in 0..n as usize {
            let half = if i < n as usize / 3 { &mut front } else { &mut back };
            half.push_null_row(batch.rids()[i]).clone_from_slice(batch.row(i));
        }
        front.append(back);
        assert_eq!(front, batch);
        let gone: Vec<usize> = (0..n as usize).filter(|i| i % 683 < 2).collect();
        whole.remove_rows(&gone);
        assert_eq!(whole.len(), n as usize - gone.len());
        let survivors = whole.into_rows();
        let rows = batch.into_rows();
        assert_eq!(rows.len(), n as usize);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[..], [Value::Int(i as i64), Value::Null, format!("row {i}").into()]);
            assert!(row.capacity() <= 4, "a row is its own small allocation");
        }
        let kept = rows.iter().enumerate().filter(|(i, _)| i % 683 >= 2).map(|(_, row)| row);
        assert!(survivors.iter().eq(kept));
    }

    #[test]
    fn bad_tag_error() {
        let mut bytes = encode_row(&[Value::Null]);
        bytes[2] = 99;
        assert!(decode_row(&bytes).is_err());
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// Values that collide across representations: small ints and the
    /// floats equal to them, signed zeros, NaN and infinities, every
    /// type rank, empty and multi-byte strings.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-3i64..4).prop_map(Value::Int),
            (-3i64..4).prop_map(|i| Value::Float(i as f64)),
            (-6i64..7).prop_map(|i| Value::Float(i as f64 / 2.0)),
            any::<f64>().prop_map(Value::Float),
            prop_oneof![Just(f64::NAN), Just(-0.0), Just(f64::INFINITY), Just(f64::NEG_INFINITY)]
                .prop_map(Value::Float),
            "[ab]{0,3}".prop_map(Value::Str),
            "\\PC{0,32}".prop_map(Value::Str),
        ]
    }

    fn arb_row() -> impl Strategy<Value = Row> {
        proptest::collection::vec(arb_value(), 0..6)
    }

    /// `cols` of an encoded row through a one-row [`RowBatch`], the way
    /// the heap reads.
    fn decode_cols(bytes: &[u8], cols: &[usize]) -> DmvResult<Row> {
        let mut batch = RowBatch::nulls(vec![RowId::new(0, 0)], cols.len());
        decode_cols_into(bytes, cols, batch.row_mut(0))?;
        Ok(batch.into_rows().remove(0))
    }

    /// Bitwise row equality (`Value`'s own `==` equates `Int(3)` with
    /// `Float(3.0)` and cannot see a NaN payload).
    fn same_bits(a: &[Value], b: &[Value]) -> bool {
        encode_row(a) == encode_row(b)
    }

    /// The ordering an index applies to a decoded key and a probe.
    fn prefix_cmp(key: &[Value], probe: &[Value]) -> Ordering {
        let n = probe.len().min(key.len());
        key[..n].cmp(&probe[..n])
    }

    proptest! {
        #[test]
        fn codec_roundtrip(row in proptest::collection::vec(arb_value(), 0..20)) {
            let bytes = encode_row(&row);
            prop_assert!(same_bits(&decode_row(&bytes).unwrap(), &row));
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256), cols in proptest::collection::vec(0usize..8, 0..4)) {
            let _ = decode_row(&bytes);
            let _ = decode_cols(&bytes, &cols);
            let _ = decode_cols_into(&bytes, &cols, &mut []);
            let _ = cmp_prefix(&bytes, &[Value::Int(1), Value::from("a")]);
            let _ = cmp_row(&bytes, &[Value::Null]);
            if let Ok(mut c) = RowCursor::new(&bytes) {
                while c.remaining() > 0 && c.skip().is_ok() {}
            }
        }

        #[test]
        fn sizes_and_slices_match_the_owned_encoding(row in arb_row()) {
            let bytes = encode_row(&row);
            prop_assert_eq!(encoded_len(&row), bytes.len());
            let mut page = vec![0xEEu8; bytes.len() + 3];
            prop_assert_eq!(encode_row_into(&row, &mut page), bytes.len());
            prop_assert_eq!(&page[..bytes.len()], &bytes[..]);
            prop_assert_eq!(&page[bytes.len()..], &[0xEE; 3][..]);
        }

        #[test]
        fn projected_decode_matches_full_decode(row in arb_row(), picks in proptest::collection::vec(any::<bool>(), 9)) {
            let cols: Vec<usize> = (0..9).filter(|&c| picks[c]).collect();
            let want: Row = cols.iter().map(|&c| row.get(c).cloned().unwrap_or(Value::Null)).collect();
            let bytes = encode_row(&row);
            prop_assert!(same_bits(&decode_cols(&bytes, &cols).unwrap(), &want));
            let mut descending = cols.clone();
            descending.reverse();
            if cols.len() > 1 {
                prop_assert!(matches!(decode_cols(&bytes, &descending), Err(DmvError::Query(_))));
            }
        }

        #[test]
        fn in_place_comparison_matches_decoded_comparison(key in arb_row(), probe in arb_row(), swap in 0usize..6) {
            // Probes that share a prefix with the key are the interesting
            // ones: graft the key's head onto the probe.
            let mut probe = probe;
            for (p, k) in probe.iter_mut().zip(&key).take(swap) {
                *p = k.clone();
            }
            let bytes = encode_row(&key);
            for n in 0..=probe.len() {
                prop_assert_eq!(cmp_prefix(&bytes, &probe[..n]).unwrap(), prefix_cmp(&key, &probe[..n]));
                prop_assert_eq!(cmp_row(&bytes, &probe[..n]).unwrap(), key[..].cmp(&probe[..n]));
            }
            // Cut anywhere inside the columns the comparison reads, the
            // bytes are an error, not a wrong answer.
            let compared = encoded_len(&key[..probe.len().min(key.len())]);
            if prefix_cmp(&key, &probe) == Ordering::Equal {
                for cut in 0..compared {
                    prop_assert!(cmp_prefix(&bytes[..cut], &probe).is_err(), "cut at {}", cut);
                }
            }
        }

        #[test]
        fn borrowed_ordering_is_the_owned_ordering(a in arb_value(), b in arb_value()) {
            prop_assert_eq!(ValueRef::from(&a).cmp(&ValueRef::from(&b)), a.cmp(&b));
            let bytes = encode_row(std::slice::from_ref(&a));
            let mut c = RowCursor::new(&bytes).unwrap();
            prop_assert!(same_bits(&[c.next_value().unwrap().to_value()], std::slice::from_ref(&a)));
            prop_assert!(c.next_value().is_err(), "past the last column");
        }
    }
}
