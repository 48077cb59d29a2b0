//! A reference in-memory context: trivially correct, no pages, no
//! concurrency control.

use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{RowId, TableId};
use dmv_sql::exec::ExecContext;
use dmv_sql::row::Row;
use dmv_sql::schema::Schema;
use dmv_sql::value::Value;
use std::cmp::Ordering;

/// `ExecContext` backed by `Vec<Option<Row>>`.
pub struct MockContext {
    schema: Schema,
    tables: Vec<Vec<Option<Row>>>,
    /// Every read so far: the table and the columns asked for.
    pub reads: Vec<(TableId, Vec<usize>)>,
}

fn narrow(row: &Row, cols: &[usize]) -> Row {
    cols.iter().map(|&c| row.get(c).cloned().unwrap_or(Value::Null)).collect()
}

impl MockContext {
    pub fn new(schema: Schema) -> Self {
        let n = schema.len();
        MockContext { schema, tables: (0..n).map(|_| Vec::new()).collect(), reads: Vec::new() }
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
}

impl ExecContext for MockContext {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn scan(&mut self, table: TableId, cols: &[usize]) -> DmvResult<Vec<(RowId, Row)>> {
        self.reads.push((table, cols.to_vec()));
        Ok(self.live(table).into_iter().map(|(rid, r)| (rid, narrow(&r, cols))).collect())
    }

    fn index_lookup(
        &mut self,
        table: TableId,
        index_no: u8,
        key: &[Value],
        cols: &[usize],
    ) -> DmvResult<Vec<(RowId, Row)>> {
        self.index_range(table, index_no, Some((key, true)), Some((key, true)), false, None, cols)
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
    ) -> DmvResult<Vec<(RowId, Row)>> {
        self.reads.push((table, cols.to_vec()));
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
            .take(limit.unwrap_or(usize::MAX))
            .map(|(_, (rid, r))| (rid, narrow(&r, cols)))
            .collect())
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
