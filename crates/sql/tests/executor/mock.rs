//! A reference in-memory context: trivially correct, no concurrency
//! control, and every row its own heap page — so a scan stopped by its
//! `want` resumes at the finest grain there is.

use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{RowId, TableId};
use dmv_sql::exec::{ExecContext, Probed, RecordTest, Scanned};
use dmv_sql::row::{encode_row, Row, RowBatch};
use dmv_sql::schema::Schema;
use dmv_sql::value::Value;
use std::cmp::Ordering;

/// `ExecContext` backed by `Vec<Option<Row>>`: row `i` of a table is
/// the one record of heap page `i`.
pub struct MockContext {
    schema: Schema,
    tables: Vec<Vec<Option<Row>>>,
    /// Every read so far: the table and the columns asked for.
    pub reads: Vec<(TableId, Vec<usize>)>,
    /// Every `index_probe` so far: the table and how many keys it held.
    pub probes: Vec<(TableId, usize)>,
    /// Records the scans have examined: tested, or taken untested.
    pub examined: usize,
    /// Records the scans have decoded: those they kept.
    pub decoded: usize,
    /// Scans that resumed past page 0.
    pub resumes: usize,
}

/// `cols` of `rows` as a batch.
fn narrow(rows: impl IntoIterator<Item = (RowId, Row)>, cols: &[usize]) -> RowBatch {
    let mut batch = RowBatch::new(cols.len());
    for (rid, row) in rows {
        for (out, &c) in batch.push_null_row(rid).iter_mut().zip(cols) {
            *out = row.get(c).cloned().unwrap_or(Value::Null);
        }
    }
    batch
}

impl MockContext {
    pub fn new(schema: Schema) -> Self {
        let n = schema.len();
        MockContext {
            schema,
            tables: (0..n).map(|_| Vec::new()).collect(),
            reads: Vec::new(),
            probes: Vec::new(),
            examined: 0,
            decoded: 0,
            resumes: 0,
        }
    }

    /// The live rows of `table`, whole.
    fn live(&self, table: TableId) -> Vec<(RowId, Row)> {
        self.tables[table.0 as usize]
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.clone().map(|r| (RowId::new(i as u32, 0), r)))
            .collect()
    }

    fn key_cmp(a: &[Value], b: &[Value]) -> Ordering {
        // compare on the shorter prefix (range bounds may be prefixes)
        let n = a.len().min(b.len());
        a[..n].cmp(&b[..n])
    }

    /// The whole rows between the bounds, in index order.
    fn range(
        &self,
        table: TableId,
        index_no: u8,
        lo: Option<(&[Value], bool)>,
        hi: Option<(&[Value], bool)>,
        rev: bool,
    ) -> DmvResult<Vec<(RowId, Row)>> {
        let ix = &self.schema.table(table)?.indexes[index_no as usize];
        let mut rows: Vec<(Vec<Value>, (RowId, Row))> =
            self.live(table).into_iter().map(|p| (ix.key_of(&p.1), p)).collect();
        // Index order: key, then row id.
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1 .0.cmp(&b.1 .0)));
        if rev {
            rows.reverse();
        }
        let outside = |k: &[Value], bound: Option<(&[Value], bool)>, wrong_side: Ordering| {
            bound.is_some_and(|(b, inclusive)| {
                let c = Self::key_cmp(k, b);
                c == wrong_side || (!inclusive && c == Ordering::Equal)
            })
        };
        Ok(rows
            .into_iter()
            .filter(|(k, _)| !outside(k, lo, Ordering::Less) && !outside(k, hi, Ordering::Greater))
            .map(|(_, row)| row)
            .collect())
    }
}

impl ExecContext for MockContext {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Tests each live row on its `encode_row` bytes, and stops after the
    /// row — the page — that keeps the `want`th.
    fn scan(
        &mut self,
        table: TableId,
        cols: &[usize],
        keep: Option<RecordTest<'_>>,
        from: u32,
        want: usize,
    ) -> DmvResult<Scanned> {
        self.reads.push((table, cols.to_vec()));
        self.resumes += usize::from(from > 0);
        let pages = &self.tables[table.0 as usize];
        let (mut kept, mut next) = (Vec::new(), from as usize);
        while next < pages.len() && kept.len() < want {
            if let Some(row) = &pages[next] {
                self.examined += 1;
                if keep.map_or(Ok(true), |keep| keep(&encode_row(row)))? {
                    kept.push((RowId::new(next as u32, 0), row.clone()));
                }
            }
            next += 1;
        }
        self.decoded += kept.len();
        let next = (next < pages.len()).then_some(next as u32);
        Ok(Scanned { rows: narrow(kept, cols), next })
    }

    /// One equality range per key, the straightforward way.
    fn index_probe(
        &mut self,
        table: TableId,
        index_no: u8,
        keys: &[&[Value]],
        cols: &[usize],
    ) -> DmvResult<Probed> {
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "probe keys must ascend strictly: {keys:?}");
        self.reads.push((table, cols.to_vec()));
        self.probes.push((table, keys.len()));
        let mut found = Vec::new();
        let mut ends = Vec::new();
        for &key in keys {
            found.extend(self.range(
                table,
                index_no,
                Some((key, true)),
                Some((key, true)),
                false,
            )?);
            ends.push(found.len());
        }
        Ok(Probed { rows: narrow(found, cols), ends })
    }

    fn index_range(
        &mut self,
        table: TableId,
        index_no: u8,
        lo: Option<(&[Value], bool)>,
        hi: Option<(&[Value], bool)>,
        rev: bool,
        limit: Option<usize>,
        cols: &[usize],
    ) -> DmvResult<RowBatch> {
        self.reads.push((table, cols.to_vec()));
        let rows = self.range(table, index_no, lo, hi, rev)?;
        Ok(narrow(rows.into_iter().take(limit.unwrap_or(usize::MAX)), cols))
    }

    fn insert(&mut self, table: TableId, row: Row) -> DmvResult<RowId> {
        let ts = self.schema.table(table)?;
        for ix in ts.indexes.iter().filter(|ix| ix.unique) {
            let key = ix.key_of(&row);
            if self.live(table).iter().any(|(_, r)| ix.key_of(r) == key) {
                return Err(DmvError::DuplicateKey(format!("{} on {}", ix.name, ts.name)));
            }
        }
        let t = &mut self.tables[table.0 as usize];
        t.push(Some(row));
        Ok(RowId::new((t.len() - 1) as u32, 0))
    }

    fn update(&mut self, table: TableId, rid: RowId, row: Row) -> DmvResult<()> {
        self.tables[table.0 as usize][rid.page_no as usize] = Some(row);
        Ok(())
    }

    fn delete(&mut self, table: TableId, rid: RowId) -> DmvResult<()> {
        self.tables[table.0 as usize][rid.page_no as usize] = None;
        Ok(())
    }
}
