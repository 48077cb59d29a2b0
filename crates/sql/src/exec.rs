//! Query executor over a pluggable storage context.
//!
//! `dmv-memdb`'s `Txn` implements [`ExecContext`] (the on-disk baseline
//! `dmv-ondisk` wraps a `MemDb`, so it runs the same transactions); the
//! executor contains all the relational logic (access-path resolution,
//! joins, aggregation, ordering) exactly once, so the in-memory tier and
//! the on-disk baseline answer queries identically — a property the
//! integration tests check directly.
//!
//! A select works a *set* at a time. The [`Layout`] derived from the
//! statement tells every table which columns to supply, and every read
//! comes back as one [`RowBatch`]. A *block* of base rows — all of them
//! when `GROUP BY` or `ORDER BY` consumes every tuple, only as many as
//! output rows are still wanted under a bare `LIMIT` — then passes the
//! joins stage by stage: filter with the conjuncts whose columns are
//! bound, collect the stage's distinct non-NULL keys, resolve them in one
//! [`ExecContext::index_probe`], expand the tuples in order. A joined row
//! is never concatenated (a tuple is one row number per table), expanding
//! in order yields the order a nested loop would, and whatever consumes
//! the tuples — hash aggregate, sort, or plain output — clones only the
//! values it returns. Where a row number already identifies an answer it
//! replaces hashing: a join key is looked up once per row of the source it
//! lives in, a group once per row of the source the group columns come
//! from ([`Pipeline::join`], [`Groups`]).

use crate::query::{Access, AggFn, Expr, GroupBy, Query, Select, SetExpr};
use crate::row::{Row, RowBatch};
use crate::schema::Schema;
use crate::value::{Value, ValueRef};
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{RowId, TableId};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Storage interface the executor runs against, bound to one open
/// transaction on one engine.
///
/// Index scans return rows in key order; all methods perform the
/// engine's own concurrency control (page locks, version application)
/// internally and may fail with retryable errors.
///
/// Every read names the columns it wants: `cols` holds strictly
/// ascending column positions of the table, and each returned row has
/// exactly one value per entry of `cols`, in that order (a column the
/// stored row does not have reads as NULL). An engine decodes nothing
/// else, so a caller that wants whole rows passes every position.
pub trait ExecContext {
    /// The database schema.
    fn schema(&self) -> &Schema;

    /// Columns `cols` of all live rows of a table (in unspecified order).
    ///
    /// # Errors
    ///
    /// Propagates engine errors (lock conflicts, version conflicts, I/O).
    fn scan(&mut self, table: TableId, cols: &[usize]) -> DmvResult<RowBatch>;

    /// Columns `cols` of the rows whose index key equals — on the key's
    /// length — one of `keys`, which must be strictly ascending: the one
    /// probe routine, for a join's whole key set as for a single key.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    fn index_probe(
        &mut self,
        table: TableId,
        index_no: u8,
        keys: &[&[Value]],
        cols: &[usize],
    ) -> DmvResult<Probed>;

    /// Columns `cols` of the rows between the bounds (each `(prefix,
    /// inclusive)`), in key order.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    #[allow(clippy::too_many_arguments)] // the index range's five parts plus the column set
    fn index_range(
        &mut self,
        table: TableId,
        index_no: u8,
        lo: Option<(&[Value], bool)>,
        hi: Option<(&[Value], bool)>,
        rev: bool,
        limit: Option<usize>,
        cols: &[usize],
    ) -> DmvResult<RowBatch>;

    /// Inserts a validated row; the engine maintains all indexes.
    ///
    /// # Errors
    ///
    /// Returns [`DmvError::DuplicateKey`] on unique-index violations, and
    /// propagates engine errors.
    fn insert(&mut self, table: TableId, row: Row) -> DmvResult<RowId>;

    /// Replaces the row at `rid`; the engine maintains all indexes.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    fn update(&mut self, table: TableId, rid: RowId, row: Row) -> DmvResult<()>;

    /// Deletes the row at `rid`; the engine maintains all indexes.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    fn delete(&mut self, table: TableId, rid: RowId) -> DmvResult<()>;

    /// Settles accumulated cost-model charges (engines batch per-row CPU
    /// charges and pay them at statement boundaries). Default: no-op.
    fn flush_costs(&mut self) {}

    /// Declares that subsequent reads locate rows for modification, so a
    /// locking engine should acquire exclusive locks immediately instead
    /// of shared locks it would have to upgrade (two transactions
    /// upgrading S→X on the same page deadlock unconditionally).
    /// Default: no-op.
    fn set_write_intent(&mut self, _on: bool) {}
}

/// What an [`ExecContext::index_probe`] found.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Probed {
    /// The rows of all keys, key after key, each key's in index order.
    pub rows: RowBatch,
    /// Per key, where its rows end in `rows`: key `i`'s are rows
    /// `ends[i - 1]..ends[i]` (from 0 for the first key).
    pub ends: Vec<usize>,
}

/// Result of executing a [`Query`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output rows (for selects).
    pub rows: Vec<Row>,
    /// Rows inserted/updated/deleted (for writes).
    pub affected: usize,
}

impl ResultSet {
    /// The single value of a single-row, single-column result.
    pub fn scalar(&self) -> Option<&Value> {
        match self.rows.as_slice() {
            [row] => row.first(),
            _ => None,
        }
    }
}

/// Statement-level execution interface: one open transaction accepting
/// queries one at a time, so later statements can be parameterized by
/// earlier results (as the TPC-W interactions require).
pub trait StatementRunner {
    /// Executes one statement inside the open transaction.
    ///
    /// # Errors
    ///
    /// Propagates engine errors; retryable errors abort the transaction.
    fn run(&mut self, q: &Query) -> DmvResult<ResultSet>;
}

/// Adapts any [`ExecContext`] into a [`StatementRunner`].
pub struct ExecRunner<'a> {
    ctx: &'a mut dyn ExecContext,
}

impl<'a> ExecRunner<'a> {
    /// Wraps a context.
    pub fn new(ctx: &'a mut dyn ExecContext) -> Self {
        ExecRunner { ctx }
    }
}

impl StatementRunner for ExecRunner<'_> {
    fn run(&mut self, q: &Query) -> DmvResult<ResultSet> {
        let r = execute(self.ctx, q);
        self.ctx.flush_costs();
        r
    }
}

/// A [`StatementRunner`] decorator recording every executed write
/// statement — used by the scheduler for its persistence log (§4.6) and
/// by the on-disk engines for WAL/binlog statement logging.
pub struct RecordingRunner<'a> {
    inner: &'a mut dyn StatementRunner,
    /// The write statements executed so far, in order.
    pub writes: Vec<Query>,
}

impl<'a> RecordingRunner<'a> {
    /// Wraps a runner.
    pub fn new(inner: &'a mut dyn StatementRunner) -> Self {
        RecordingRunner { inner, writes: Vec::new() }
    }
}

impl StatementRunner for RecordingRunner<'_> {
    fn run(&mut self, q: &Query) -> DmvResult<ResultSet> {
        let rs = self.inner.run(q)?;
        if q.is_write() {
            self.writes.push(q.clone());
        }
        Ok(rs)
    }
}

/// Executes a statement against the context.
///
/// # Errors
///
/// Propagates engine errors and schema validation failures.
pub fn execute(ctx: &mut dyn ExecContext, q: &Query) -> DmvResult<ResultSet> {
    match q {
        Query::Select(s) => run_select(ctx, s),
        Query::Insert { table, rows } => {
            let schema = ctx.schema().table(*table)?;
            for row in rows {
                schema.validate(row)?;
            }
            let mut n = 0;
            for row in rows {
                ctx.insert(*table, row.clone())?;
                n += 1;
            }
            Ok(ResultSet { rows: Vec::new(), affected: n })
        }
        Query::Update { table, access, filter, set } => {
            let mut n = 0;
            for (rid, old) in rows_to_modify(ctx, *table, access, filter)? {
                let mut new = old.clone();
                for (col, sx) in set {
                    new[*col] = apply_set(&old[*col], sx)?;
                }
                ctx.schema().table(*table)?.validate(&new)?;
                ctx.update(*table, rid, new)?;
                n += 1;
            }
            Ok(ResultSet { rows: Vec::new(), affected: n })
        }
        Query::Delete { table, access, filter } => {
            let mut n = 0;
            for (rid, _) in rows_to_modify(ctx, *table, access, filter)? {
                ctx.delete(*table, rid)?;
                n += 1;
            }
            Ok(ResultSet { rows: Vec::new(), affected: n })
        }
    }
}

fn apply_set(cur: &Value, sx: &SetExpr) -> DmvResult<Value> {
    match sx {
        SetExpr::Value(v) => Ok(v.clone()),
        SetExpr::AddInt(d) => match cur {
            Value::Int(i) => Ok(Value::Int(i + d)),
            other => Err(DmvError::Query(format!("cannot AddInt to {other}"))),
        },
        SetExpr::AddFloat(d) => match cur.as_float() {
            Some(f) => Ok(Value::Float(f + d)),
            None => Err(DmvError::Query(format!("cannot AddFloat to {cur}"))),
        },
    }
}

/// Resolves `Access::Auto` into an index lookup if the filter fully
/// covers some index of the table with equality conjuncts.
fn resolve_auto(schema: &Schema, table: TableId, filter: &Option<Expr>) -> DmvResult<Access> {
    let ts = schema.table(table)?;
    // The `col = literal` conjuncts; of two on one column the later counts.
    let mut eqs: Vec<(usize, &Value)> = Vec::new();
    for c in filter.iter().flat_map(Expr::conjuncts) {
        if let Expr::Cmp(crate::query::CmpOp::Eq, a, b) = c {
            if let (Expr::Col(i), Expr::Lit(v)) = (a.as_ref(), b.as_ref()) {
                eqs.push((*i, v));
            }
        }
    }
    let pinned = |c: &usize| eqs.iter().rev().find(|(i, _)| i == c).map(|&(_, v)| v.clone());
    for (ix_no, ix) in ts.indexes.iter().enumerate() {
        if let Some(key) = ix.columns.iter().map(pinned).collect() {
            return Ok(Access::IndexEq { index_no: ix_no as u8, key });
        }
    }
    Ok(Access::FullScan)
}

/// Reads `cols` of the rows of `table` that `access` reaches
/// (`Access::Auto` resolved against `filter` first).
fn read_base(
    ctx: &mut dyn ExecContext,
    table: TableId,
    access: &Access,
    filter: &Option<Expr>,
    cols: &[usize],
) -> DmvResult<RowBatch> {
    let resolved;
    let access = match access {
        Access::Auto => {
            resolved = resolve_auto(ctx.schema(), table, filter)?;
            &resolved
        }
        other => other,
    };
    match access {
        Access::Auto => unreachable!("auto was resolved above"),
        Access::FullScan => ctx.scan(table, cols),
        Access::IndexEq { index_no, key } => {
            Ok(ctx.index_probe(table, *index_no, &[key.as_slice()], cols)?.rows)
        }
        Access::IndexRange { index_no, lo, hi, rev, scan_limit } => ctx.index_range(
            table,
            *index_no,
            lo.as_ref().map(|(k, inc)| (k.as_slice(), *inc)),
            hi.as_ref().map(|(k, inc)| (k.as_slice(), *inc)),
            *rev,
            *scan_limit,
            cols,
        ),
    }
}

/// The whole rows an UPDATE or DELETE applies to, located under write
/// intent.
fn rows_to_modify(
    ctx: &mut dyn ExecContext,
    table: TableId,
    access: &Access,
    filter: &Option<Expr>,
) -> DmvResult<Vec<(RowId, Row)>> {
    let all: Vec<usize> = (0..ctx.schema().table(table)?.columns.len()).collect();
    ctx.set_write_intent(true);
    let rows = read_base(ctx, table, access, filter, &all);
    ctx.set_write_intent(false);
    let rows = rows?;
    let passes = |r: &Row| filter.as_ref().is_none_or(|f| f.truthy(&|c| ValueRef::at(r, c)));
    let rids = rows.rids().to_vec();
    Ok(rids.into_iter().zip(rows.into_rows()).filter(|(_, r)| passes(r)).collect())
}

/// Where the columns of a select's joined row come from. Column
/// references in a [`Select`] are flat indexes into the concatenation of
/// the base table's columns and each join's; the executor never builds
/// that concatenation. *Source* `0` is the base table and source `i` the
/// table of join `i - 1`, each read narrowed to the columns the statement
/// uses, and a joined row is a *tuple*: one row number per source.
struct Layout {
    /// Per source its first flat column, then the joined row's width.
    offsets: Vec<usize>,
    /// Per source, the table columns it must supply (ascending) — the
    /// `cols` of every read of that table.
    needs: Vec<Vec<usize>>,
    /// Flat column → `(source, position in the source's narrowed row)`;
    /// `None` for a column the statement never looks at.
    slots: Vec<Option<(usize, usize)>>,
}

impl Layout {
    /// Derives the layout from everything in `s` that names a column:
    /// join keys, the filter, and either grouping columns and aggregate
    /// arguments (ordering and projection then refer to the aggregated
    /// row) or sort keys and projection — every column when a select
    /// without grouping has no projection.
    fn of(schema: &Schema, s: &Select) -> DmvResult<Layout> {
        let mut offsets = vec![0, schema.table(s.table)?.columns.len()];
        for j in &s.joins {
            offsets.push(offsets[offsets.len() - 1] + schema.table(j.table)?.columns.len());
        }
        let mut layout = Layout { offsets, needs: Vec::new(), slots: Vec::new() };
        let mut used = vec![false; layout.offsets[layout.offsets.len() - 1]];
        // A reference past the joined row reads as NULL; nothing to fetch.
        let mut mark = |c: usize| {
            if let Some(u) = used.get_mut(c) {
                *u = true;
            }
        };
        for (i, j) in s.joins.iter().enumerate() {
            mark(j.left_col);
            if let (None, Some(right)) = (j.right_index, layout.flat(i + 1, j.right_col)) {
                mark(right);
            }
        }
        if let Some(f) = &s.filter {
            f.for_each_col(&mut mark);
        }
        match (&s.group_by, &s.project) {
            (Some(g), _) => {
                g.cols.iter().copied().for_each(&mut mark);
                for agg in &g.aggs {
                    match agg {
                        AggFn::Count => {}
                        AggFn::Sum(c) | AggFn::Avg(c) | AggFn::Min(c) | AggFn::Max(c) => mark(*c),
                    }
                }
            }
            (None, Some(cols)) => {
                cols.iter().copied().for_each(&mut mark);
                s.order_by.iter().for_each(|&(c, _)| mark(c));
            }
            (None, None) => used.fill(true),
        }
        for (source, from_to) in layout.offsets.windows(2).enumerate() {
            let mut cols = Vec::new();
            for (local, &used) in used[from_to[0]..from_to[1]].iter().enumerate() {
                layout.slots.push(used.then_some((source, cols.len())));
                if used {
                    cols.push(local);
                }
            }
            layout.needs.push(cols);
        }
        Ok(layout)
    }

    /// The flat index of column `local` of `source`, if it has one.
    fn flat(&self, source: usize, local: usize) -> Option<usize> {
        let flat = self.offsets[source] + local;
        (flat < self.offsets[source + 1]).then_some(flat)
    }

    /// Where flat column `c` is read from: `(source, position)`, `None`
    /// for a column the joined row does not have (it reads as NULL).
    fn slot(&self, c: usize) -> Option<(usize, usize)> {
        *self.slots.get(c)?
    }

    /// The last source a conjunct reads: it can be applied as soon as a
    /// tuple reaches that source.
    fn stage_of(&self, e: &Expr) -> usize {
        let mut stage = 0;
        e.for_each_col(&mut |c| {
            if let Some((source, _)) = self.slot(c) {
                stage = stage.max(source);
            }
        });
        stage
    }

    /// The one source all of `cols` (those the joined row has) are read
    /// from, if there is exactly one.
    fn only_source_of(&self, cols: &[usize]) -> Option<usize> {
        let mut sources = cols.iter().filter_map(|&c| self.slot(c)).map(|(source, _)| source);
        let first = sources.next()?;
        sources.all(|source| source == first).then_some(first)
    }
}

/// In a dense per-row-number memo: nothing remembered for the row yet.
const UNSEEN: usize = usize::MAX;
/// In [`Pipeline::join`]'s memo: the row's key is NULL, it joins nothing.
const NO_KEY: usize = usize::MAX - 1;

/// One select in flight: the rows read so far and how to read more.
struct Pipeline<'a> {
    ctx: &'a mut dyn ExecContext,
    s: &'a Select,
    layout: Layout,
    /// `conjuncts[i]`: the filter conjuncts decidable once a tuple has
    /// sources `0..=i` (base-only conjuncts run before the first probe).
    conjuncts: Vec<Vec<&'a Expr>>,
    /// Per source, the narrowed rows tuples index into: the base rows and
    /// the table of a join without an index for the whole statement, the
    /// matches of an indexed join for the block in flight.
    rows: Vec<RowBatch>,
    /// The first base row no block has taken yet.
    next_base: usize,
}

impl<'a> Pipeline<'a> {
    fn new(ctx: &'a mut dyn ExecContext, s: &'a Select) -> DmvResult<Self> {
        let layout = Layout::of(ctx.schema(), s)?;
        let sources = s.joins.len() + 1;
        let mut conjuncts = vec![Vec::new(); sources];
        for e in s.filter.iter().flat_map(Expr::conjuncts) {
            conjuncts[layout.stage_of(e)].push(e);
        }
        let rows = vec![RowBatch::default(); sources];
        Ok(Pipeline { ctx, s, layout, conjuncts, rows, next_base: 0 })
    }

    /// Reads what is read once per statement: the base rows, and the
    /// whole table of every join that has no index to probe.
    fn read(&mut self) -> DmvResult<()> {
        let s = self.s;
        self.rows[0] = read_base(self.ctx, s.table, &s.access, &s.filter, &self.layout.needs[0])?;
        for (i, j) in s.joins.iter().enumerate().filter(|(_, j)| j.right_index.is_none()) {
            self.rows[i + 1] = self.ctx.scan(j.table, &self.layout.needs[i + 1])?;
        }
        Ok(())
    }

    /// Flat column `c` of `tuple`; `None` where the joined row has no
    /// such column, or not yet (it reads as NULL).
    fn col(&self, tuple: &[usize], c: usize) -> Option<&Value> {
        let (source, pos) = self.layout.slot(c)?;
        self.rows[source].row(*tuple.get(source)?).get(pos)
    }

    fn col_ref(&self, tuple: &[usize], c: usize) -> ValueRef<'_> {
        self.col(tuple, c).map_or(ValueRef::Null, ValueRef::from)
    }

    /// Whether `tuple`, which has just reached source `stage`, passes the
    /// conjuncts that become decidable there.
    fn passes(&self, stage: usize, tuple: &[usize]) -> bool {
        self.conjuncts[stage].iter().all(|e| e.truthy(&|c| self.col_ref(tuple, c)))
    }

    /// True once every base row has been taken by a block.
    fn exhausted(&self) -> bool {
        self.next_base >= self.rows[0].len()
    }

    /// Takes base rows until `want` of them pass the base-only conjuncts
    /// (or none are left) and runs that block through the joins, a stage
    /// at a time. Returns the joined tuples that pass the filter, one row
    /// number per source each, in the order the reference pipeline (a
    /// nested loop over everything, then the filter) would produce them.
    /// A caller that consumes every tuple asks for all base rows at once;
    /// one that stops early asks for as many as it still wants rows —
    /// every base row yields a tuple or more unless a join or a later
    /// conjunct drops it, and then the caller asks again.
    fn next_block(&mut self, want: usize) -> DmvResult<Vec<usize>> {
        let mut tuples = Vec::new();
        while !self.exhausted() && tuples.len() < want {
            if self.passes(0, &[self.next_base]) {
                tuples.push(self.next_base);
            }
            self.next_base += 1;
        }
        for stage in 0..self.s.joins.len() {
            tuples = self.join(stage, &tuples)?;
        }
        Ok(tuples)
    }

    /// Extends `tuples`, which have sources `0..=stage`, by join `stage`:
    /// every tuple once per row of the joined table its key matches, kept
    /// if it passes the conjuncts decidable from there.
    fn join(&mut self, stage: usize, tuples: &[usize]) -> DmvResult<Vec<usize>> {
        // The tuples are `stage + 1` wide; the joined table is the next source.
        let (join, width, right) = (&self.s.joins[stage], stage + 1, stage + 1);
        // A key column the tuples do not have (yet) reads as NULL, and a
        // NULL key joins nothing.
        let key_at = self.layout.slot(join.left_col).filter(|&(source, _)| source <= stage);
        let (Some((source, pos)), false) = (key_at, tuples.is_empty()) else {
            return Ok(Vec::new());
        };

        // 1. The distinct non-NULL keys, numbered as they appear. A key is
        // a function of the row of `source` it is read from, so it is
        // hashed once per such row and found by row number afterwards:
        // two tuples sharing that row share its key.
        let numbers = || tuples.iter().skip(source).step_by(width).copied();
        let (lo, hi) = numbers().fold((usize::MAX, 0), |(lo, hi), r| (lo.min(r), hi.max(r)));
        let mut key_of_row = vec![UNSEEN; hi - lo + 1];
        let mut number_of: HashMap<&Value, usize> = HashMap::new();
        let mut keys: Vec<&Value> = Vec::new();
        for r in numbers() {
            if key_of_row[r - lo] == UNSEEN {
                let key = &self.rows[source].row(r)[pos];
                key_of_row[r - lo] = match key {
                    Value::Null => NO_KEY,
                    key => *number_of.entry(key).or_insert_with(|| {
                        keys.push(key);
                        keys.len() - 1
                    }),
                };
            }
        }

        // 2. Every key's matches, resolved as a set: `matches[k]` is key
        // `k`'s range of positions in `hits`, whose entries are row
        // numbers of the joined table.
        let mut matches = vec![(0, 0); keys.len()];
        let hits: Vec<usize> = match join.right_index {
            // One probe for all keys; its rows are the joined table's rows
            // for this block, so a position is its own row number.
            Some(index_no) => {
                let mut sorted: Vec<usize> = (0..keys.len()).collect();
                sorted.sort_unstable_by(|&a, &b| keys[a].cmp(keys[b]));
                let probe: Vec<&[Value]> =
                    sorted.iter().map(|&k| std::slice::from_ref(keys[k])).collect();
                let cols = &self.layout.needs[right];
                let found = self.ctx.index_probe(join.table, index_no, &probe, cols)?;
                let mut from = 0;
                for (&k, &to) in sorted.iter().zip(&found.ends) {
                    matches[k] = (from, to);
                    from = to;
                }
                self.rows[right] = found.rows;
                (0..self.rows[right].len()).collect()
            }
            // No index: the table was scanned up front; one pass over it
            // hands every row to the key it equals.
            None => {
                let column = self.layout.flat(right, join.right_col);
                let Some((_, at)) = column.and_then(|c| self.layout.slot(c)) else {
                    return Ok(Vec::new());
                };
                let table = &self.rows[right];
                let mut hits: Vec<(usize, usize)> = (0..table.len())
                    .filter_map(|r| number_of.get(&table.row(r)[at]).map(|&k| (k, r)))
                    .collect();
                hits.sort_by_key(|&(k, _)| k); // stable: table order within a key
                for (i, &(k, _)) in hits.iter().enumerate() {
                    if i == 0 || hits[i - 1].0 != k {
                        matches[k].0 = i;
                    }
                    matches[k].1 = i + 1;
                }
                hits.into_iter().map(|(_, r)| r).collect()
            }
        };

        // 3. Expand in order.
        let mut out = Vec::new();
        for tuple in tuples.chunks_exact(width) {
            let k = key_of_row[tuple[source] - lo];
            if k == NO_KEY {
                continue;
            }
            for &r in &hits[matches[k].0..matches[k].1] {
                out.extend_from_slice(tuple);
                out.push(r);
                if !self.passes(right, &out[out.len() - width - 1..]) {
                    out.truncate(out.len() - width - 1);
                }
            }
        }
        Ok(out)
    }

    /// The output row of `tuple`: `cols` of the joined row.
    fn output(&self, tuple: &[usize], cols: &[usize]) -> Row {
        cols.iter().map(|&c| self.col(tuple, c).cloned().unwrap_or(Value::Null)).collect()
    }
}

fn run_select(ctx: &mut dyn ExecContext, s: &Select) -> DmvResult<ResultSet> {
    let mut p = Pipeline::new(ctx, s)?;
    let limit = s.limit.unwrap_or(usize::MAX);
    if limit == 0 {
        return Ok(ResultSet::default());
    }
    p.read()?;
    let all: Vec<usize>;
    let cols = match &s.project {
        Some(cols) => cols,
        None => {
            all = (0..p.layout.slots.len()).collect();
            &all
        }
    };
    let sources = p.rows.len();
    let mut rows: Vec<Row> = Vec::new();
    match &s.group_by {
        // Pipeline order: … → group → order → limit → project.
        Some(g) => {
            let tuples = p.next_block(usize::MAX)?;
            let by_row = p.layout.only_source_of(&g.cols);
            let mut groups = Groups::new(g, by_row.map_or(0, |source| p.rows[source].len()));
            for tuple in tuples.chunks_exact(sources) {
                groups.add(by_row.map(|source| tuple[source]), |c| p.col(tuple, c));
            }
            rows = groups.finish();
            rows.sort_by(|a, b| {
                cmp_keys(&s.order_by, |c| ValueRef::at(a, c), |c| ValueRef::at(b, c))
            });
            rows.truncate(limit);
            if let Some(cols) = &s.project {
                for row in &mut rows {
                    *row = cols.iter().map(|&c| ValueRef::at(row, c).to_value()).collect();
                }
            }
        }
        // Nothing reorders the tuples: emit them as they come, block by
        // block, and stop reading as soon as the limit is full. A select
        // of whole rows of one table only notes which base rows it
        // returns and is handed their values when the blocks are done, so
        // a large scan is never held twice — once as read, once as
        // returned.
        None if s.order_by.is_empty() => {
            let whole_rows = s.joins.is_empty() && s.project.is_none();
            let (mut picked, mut taken) = (Vec::new(), 0);
            while taken < limit && !p.exhausted() {
                let tuples = p.next_block(limit - taken)?;
                for tuple in tuples.chunks_exact(sources).take(limit - taken) {
                    match whole_rows {
                        true => picked.push(tuple[0]),
                        false => rows.push(p.output(tuple, cols)),
                    }
                    taken += 1;
                }
            }
            if whole_rows {
                rows = std::mem::take(&mut p.rows[0]).into_rows();
                let (mut b, mut picked) = (0, picked.into_iter().peekable());
                rows.retain(|_| {
                    b += 1;
                    picked.next_if_eq(&(b - 1)).is_some()
                });
            }
        }
        // Sort the tuples, not the rows: only the survivors of the limit
        // are materialized.
        None => {
            let tuples = p.next_block(usize::MAX)?;
            let mut order: Vec<&[usize]> = tuples.chunks_exact(sources).collect();
            order.sort_by(|a, b| cmp_keys(&s.order_by, |c| p.col_ref(a, c), |c| p.col_ref(b, c)));
            rows.extend(order.into_iter().take(limit).map(|tuple| p.output(tuple, cols)));
        }
    }
    Ok(ResultSet { rows, affected: 0 })
}

/// `ORDER BY` comparison of two rows given by their column accessors
/// (the sorts using it are stable, so ties keep pipeline order).
fn cmp_keys<'a>(
    order_by: &[(usize, bool)],
    a: impl Fn(usize) -> ValueRef<'a>,
    b: impl Fn(usize) -> ValueRef<'a>,
) -> Ordering {
    for &(col, desc) in order_by {
        let ord = if desc { b(col).cmp(&a(col)) } else { a(col).cmp(&b(col)) };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// One aggregate's running state within one group.
#[derive(Clone, Default)]
struct AggState {
    /// Rows (`Count`) or numeric values (`Sum`, `Avg`) seen.
    count: u64,
    sum: f64,
    any_float: bool,
    /// The smallest (`Min`) or largest (`Max`) non-NULL value seen.
    best: Option<Value>,
}

struct Group {
    key: Vec<Value>,
    /// One state per aggregate.
    states: Vec<AggState>,
    /// The group created before this one whose key has the same hash.
    same_hash: Option<usize>,
}

/// Passes a `u64` that already is a hash through as a map's hash of it.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Streaming hash aggregate: groups in order of first appearance, each
/// group's key cloned once, when the group is created.
struct Groups<'a> {
    by: &'a GroupBy,
    /// In first-appearance order.
    groups: Vec<Group>,
    /// Hash of a group key → the newest group with that hash; the others
    /// hang off it through [`Group::same_hash`]. Keyed by hash so that a
    /// row finds its group from borrowed column values; the hash state is
    /// random per statement, as a `HashMap` of the keys' would be, which
    /// is why the map need not hash the hash again.
    index: HashMap<u64, usize, BuildHasherDefault<PreHashed>>,
    hasher: RandomState,
    /// When every group column is read from one source: that source's
    /// row number → its group ([`UNSEEN`] until its first tuple). The key
    /// is a function of that row, so tuples sharing the row share the
    /// group without hashing the key again; rows with equal values still
    /// meet in one group, because each row's first tuple finds it by value.
    of_row: Vec<usize>,
}

impl<'a> Groups<'a> {
    /// `rows`: how many rows the source all group columns are read from
    /// has, 0 if there is no such source.
    fn new(by: &'a GroupBy, rows: usize) -> Self {
        Groups {
            by,
            groups: Vec::new(),
            index: HashMap::default(),
            hasher: RandomState::new(),
            of_row: vec![UNSEEN; rows],
        }
    }

    /// The group of the joined row whose columns `col` supplies, created
    /// if it is the first of its key.
    fn group_of<'r>(&mut self, col: &impl Fn(usize) -> Option<&'r Value>) -> usize {
        let key = |c: &usize| col(*c).unwrap_or(&Value::Null);
        let mut h = self.hasher.build_hasher();
        self.by.cols.iter().for_each(|c| key(c).hash(&mut h));
        let hash = h.finish();
        let newest = self.index.get(&hash).copied();
        let mut same_hash = newest;
        while let Some(g) = same_hash {
            if self.groups[g].key.iter().eq(self.by.cols.iter().map(key)) {
                return g;
            }
            same_hash = self.groups[g].same_hash;
        }
        self.index.insert(hash, self.groups.len());
        self.groups.push(Group {
            key: self.by.cols.iter().map(|c| key(c).clone()).collect(),
            states: vec![AggState::default(); self.by.aggs.len()],
            same_hash: newest,
        });
        self.groups.len() - 1
    }

    /// Accumulates one joined row, given by its column accessor and, when
    /// one source supplies every group column, its row number there.
    fn add<'r>(&mut self, row: Option<usize>, col: impl Fn(usize) -> Option<&'r Value>) {
        let g = match row.map(|r| self.of_row[r]) {
            Some(g) if g != UNSEEN => g,
            _ => {
                let g = self.group_of(&col);
                if let Some(r) = row {
                    self.of_row[r] = g;
                }
                g
            }
        };
        for (st, agg) in self.groups[g].states.iter_mut().zip(&self.by.aggs) {
            match agg {
                AggFn::Count => st.count += 1,
                AggFn::Sum(c) | AggFn::Avg(c) => {
                    let v = col(*c);
                    if let Some(f) = v.and_then(Value::as_float) {
                        st.count += 1;
                        st.sum += f;
                        st.any_float |= !matches!(v, Some(Value::Int(_)));
                    }
                }
                AggFn::Min(c) | AggFn::Max(c) => {
                    let better = if matches!(agg, AggFn::Min(_)) {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                    if let Some(v) = col(*c).filter(|v| !v.is_null()) {
                        if st.best.as_ref().is_none_or(|best| v.cmp(best) == better) {
                            st.best = Some(v.clone());
                        }
                    }
                }
            }
        }
    }

    /// The aggregated rows: group columns, then one value per aggregate.
    fn finish(self) -> Vec<Row> {
        let aggs = &self.by.aggs;
        self.groups
            .into_iter()
            .map(|Group { key: mut row, states, .. }| {
                row.extend(states.into_iter().zip(aggs).map(|(st, agg)| match agg {
                    AggFn::Count => Value::Int(st.count as i64),
                    AggFn::Sum(_) | AggFn::Avg(_) if st.count == 0 => Value::Null,
                    AggFn::Sum(_) if st.any_float => Value::Float(st.sum),
                    AggFn::Sum(_) => Value::Int(st.sum as i64),
                    AggFn::Avg(_) => Value::Float(st.sum / st.count as f64),
                    AggFn::Min(_) | AggFn::Max(_) => st.best.unwrap_or(Value::Null),
                }));
                row
            })
            .collect()
    }
}
