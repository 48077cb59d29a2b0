//! Query executor over a pluggable storage context.
//!
//! `dmv-memdb`'s `Txn` implements [`ExecContext`] (the on-disk baseline
//! `dmv-ondisk` wraps a `MemDb`, so it runs the same transactions); the
//! executor contains all the relational logic (access-path resolution,
//! joins, aggregation, ordering) exactly once, so the in-memory tier and
//! the on-disk baseline answer queries identically — a property the
//! integration tests check directly.
//!
//! A select is one depth-first pass: the [`Layout`] derived from the
//! statement tells every table which columns to supply, each base row is
//! filtered as soon as the columns of a conjunct are bound, joined rows
//! are never concatenated (a joined row is one index per table into the
//! rows read so far), and whatever consumes the pass — hash aggregate,
//! sort, or plain output — clones only the values it returns.

use crate::query::{Access, AggFn, Expr, GroupBy, Query, Select, SetExpr};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{Value, ValueRef};
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{RowId, TableId};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

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
    fn scan(&mut self, table: TableId, cols: &[usize]) -> DmvResult<Vec<(RowId, Row)>>;

    /// Columns `cols` of the rows whose index key equals `key` exactly.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    fn index_lookup(
        &mut self,
        table: TableId,
        index_no: u8,
        key: &[Value],
        cols: &[usize],
    ) -> DmvResult<Vec<(RowId, Row)>>;

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
    ) -> DmvResult<Vec<(RowId, Row)>>;

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
    let Some(f) = filter else { return Ok(Access::FullScan) };
    // Collect col -> literal equality conjuncts.
    let mut eqs: HashMap<usize, Value> = HashMap::new();
    for c in f.conjuncts() {
        if let Expr::Cmp(crate::query::CmpOp::Eq, a, b) = c {
            if let (Expr::Col(i), Expr::Lit(v)) = (a.as_ref(), b.as_ref()) {
                eqs.insert(*i, v.clone());
            }
        }
    }
    for (ix_no, ix) in ts.indexes.iter().enumerate() {
        if ix.columns.iter().all(|c| eqs.contains_key(c)) {
            let key = ix.columns.iter().map(|c| eqs[c].clone()).collect();
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
) -> DmvResult<Vec<(RowId, Row)>> {
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
        Access::IndexEq { index_no, key } => ctx.index_lookup(table, *index_no, key, cols),
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
    let mut rows = rows?;
    if let Some(f) = filter {
        rows.retain(|(_, r)| f.truthy(&|c| ValueRef::at(r, c)));
    }
    Ok(rows)
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

    /// The last source a conjunct reads: it can be applied as soon as a
    /// tuple reaches that source.
    fn stage_of(&self, e: &Expr) -> usize {
        let mut stage = 0;
        e.for_each_col(&mut |c| {
            if let Some(&Some((source, _))) = self.slots.get(c) {
                stage = stage.max(source);
            }
        });
        stage
    }
}

/// One select in flight: the rows read so far and how to read more.
struct Pipeline<'a> {
    ctx: &'a mut dyn ExecContext,
    s: &'a Select,
    layout: Layout,
    /// `conjuncts[i]`: the filter conjuncts decidable once a tuple has
    /// sources `0..=i` (base-only conjuncts run before the first probe).
    conjuncts: Vec<Vec<&'a Expr>>,
    /// Per source, the narrowed rows read so far; tuples index into these.
    rows: Vec<Vec<Row>>,
    /// Per indexed join, probe key → its matches' range in the joined
    /// source's rows. Within one statement the snapshot is fixed, so a
    /// repeated probe must return the same rows, and TPC-W's hot joins
    /// (order lines → items → authors) repeat a few keys thousands of
    /// times. (A join without an index scans its table once, up front.)
    probed: Vec<HashMap<Value, (usize, usize)>>,
}

impl<'a> Pipeline<'a> {
    fn new(ctx: &'a mut dyn ExecContext, s: &'a Select) -> DmvResult<Self> {
        let layout = Layout::of(ctx.schema(), s)?;
        let sources = s.joins.len() + 1;
        let mut conjuncts = vec![Vec::new(); sources];
        for e in s.filter.iter().flat_map(Expr::conjuncts) {
            conjuncts[layout.stage_of(e)].push(e);
        }
        Ok(Pipeline {
            ctx,
            s,
            layout,
            conjuncts,
            rows: vec![Vec::new(); sources],
            probed: vec![HashMap::new(); s.joins.len()],
        })
    }

    /// Flat column `c` of `tuple`; `None` where the joined row has no
    /// such column, or not yet (it reads as NULL).
    fn col(&self, tuple: &[usize], c: usize) -> Option<&Value> {
        let (source, pos) = (*self.layout.slots.get(c)?)?;
        self.rows[source][*tuple.get(source)?].get(pos)
    }

    fn col_ref(&self, tuple: &[usize], c: usize) -> ValueRef<'_> {
        self.col(tuple, c).map_or(ValueRef::Null, ValueRef::from)
    }

    /// Runs the select depth first — base row, its matches in the first
    /// join, their matches in the second, … — handing every joined tuple
    /// that passes the filter to `sink`, in the order the reference
    /// pipeline (join everything, then filter) would produce them, until
    /// `sink` returns `false`. Unless `sink` `keeps` tuples to look at
    /// after the pass, a base row is freed as soon as its tuples are
    /// consumed, so a large scan is never held twice — once as read,
    /// once as returned.
    fn run(&mut self, keeps: bool, sink: &mut dyn FnMut(&Self, &[usize]) -> bool) -> DmvResult<()> {
        let s = self.s;
        let base = read_base(self.ctx, s.table, &s.access, &s.filter, &self.layout.needs[0])?;
        self.rows[0] = base.into_iter().map(|(_, r)| r).collect();
        for (i, j) in s.joins.iter().enumerate().filter(|(_, j)| j.right_index.is_none()) {
            let all = self.ctx.scan(j.table, &self.layout.needs[i + 1])?;
            self.rows[i + 1] = all.into_iter().map(|(_, r)| r).collect();
        }
        let mut tuple = Vec::with_capacity(self.rows.len());
        for b in 0..self.rows[0].len() {
            tuple.push(b);
            let more = self.extend(&mut tuple, sink)?;
            tuple.pop();
            if !more {
                break;
            }
            if !keeps {
                self.rows[0][b] = Row::new();
            }
        }
        Ok(())
    }

    /// Extends a tuple that has sources `0..tuple.len()` through the
    /// remaining joins. Returns whether `sink` wants more.
    fn extend(
        &mut self,
        tuple: &mut Vec<usize>,
        sink: &mut dyn FnMut(&Self, &[usize]) -> bool,
    ) -> DmvResult<bool> {
        let stage = tuple.len() - 1;
        if !self.conjuncts[stage].iter().all(|e| e.truthy(&|c| self.col_ref(tuple, c))) {
            return Ok(true);
        }
        let Some(join) = self.s.joins.get(stage) else { return Ok(sink(self, tuple)) };
        let key = match self.col(tuple, join.left_col) {
            Some(key) if !key.is_null() => key,
            _ => return Ok(true),
        };
        // An indexed join's matches are the probe's rows; without an
        // index they are the rows of the scanned table whose join column
        // equals the key.
        let (matches, unindexed) = match join.right_index {
            Some(ix) => match self.probed[stage].get(key) {
                Some(&(from, to)) => (from..to, None),
                None => {
                    let key = key.clone();
                    let found = self.ctx.index_lookup(
                        join.table,
                        ix,
                        std::slice::from_ref(&key),
                        &self.layout.needs[stage + 1],
                    )?;
                    let rows = &mut self.rows[stage + 1];
                    let from = rows.len();
                    rows.extend(found.into_iter().map(|(_, r)| r));
                    self.probed[stage].insert(key, (from, rows.len()));
                    (from..self.rows[stage + 1].len(), None)
                }
            },
            None => match self.layout.flat(stage + 1, join.right_col) {
                Some(right) => (0..self.rows[stage + 1].len(), Some((right, key.clone()))),
                None => return Ok(true),
            },
        };
        for r in matches {
            tuple.push(r);
            let joins = unindexed.as_ref().is_none_or(|(c, key)| self.col(tuple, *c) == Some(key));
            let more = !joins || self.extend(tuple, sink)?;
            tuple.pop();
            if !more {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The output row of `tuple`: `cols` of the joined row.
    fn output(&self, tuple: &[usize], cols: &[usize]) -> Row {
        cols.iter().map(|&c| self.col(tuple, c).cloned().unwrap_or(Value::Null)).collect()
    }
}

fn run_select(ctx: &mut dyn ExecContext, s: &Select) -> DmvResult<ResultSet> {
    let mut p = Pipeline::new(ctx, s)?;
    let limit = s.limit.unwrap_or(usize::MAX);
    let all: Vec<usize>;
    let cols = match &s.project {
        Some(cols) => cols,
        None => {
            all = (0..p.layout.slots.len()).collect();
            &all
        }
    };
    let mut rows: Vec<Row> = Vec::new();
    match &s.group_by {
        _ if limit == 0 => {}
        // Pipeline order: … → group → order → limit → project.
        Some(g) => {
            let mut groups = Groups::new(g);
            p.run(false, &mut |p, tuple| {
                groups.add(|c| p.col(tuple, c));
                true
            })?;
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
        // Nothing reorders the tuples: emit them as they come and stop
        // reading as soon as the limit is full.
        None if s.order_by.is_empty() => p.run(false, &mut |p, tuple| {
            rows.push(p.output(tuple, cols));
            rows.len() < limit
        })?,
        // Sort the tuples, not the rows: only the survivors of the limit
        // are materialized.
        None => {
            let mut tuples: Vec<usize> = Vec::new();
            p.run(true, &mut |_, tuple| {
                tuples.extend_from_slice(tuple);
                true
            })?;
            let mut order: Vec<&[usize]> = tuples.chunks_exact(p.rows.len()).collect();
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

/// Streaming hash aggregate: groups in order of first appearance, each
/// group's key cloned once, when the group is created.
struct Groups<'a> {
    by: &'a GroupBy,
    /// `(group key, one state per aggregate)`, in first-appearance order.
    groups: Vec<(Vec<Value>, Vec<AggState>)>,
    /// Hash of a group key → the groups with that hash. Keyed by hash so
    /// that a row finds its group from borrowed column values; the hash
    /// state is random per statement, as a `HashMap` of the keys' would be.
    index: HashMap<u64, Vec<usize>>,
    hasher: RandomState,
}

impl<'a> Groups<'a> {
    fn new(by: &'a GroupBy) -> Self {
        Groups { by, groups: Vec::new(), index: HashMap::new(), hasher: RandomState::new() }
    }

    /// Accumulates one joined row, given by its column accessor.
    fn add<'r>(&mut self, col: impl Fn(usize) -> Option<&'r Value>) {
        let key = |c: &usize| col(*c).unwrap_or(&Value::Null);
        let mut h = self.hasher.build_hasher();
        self.by.cols.iter().for_each(|c| key(c).hash(&mut h));
        let same_hash = self.index.entry(h.finish()).or_default();
        let groups = &mut self.groups;
        let found = same_hash
            .iter()
            .copied()
            .find(|&g| groups[g].0.iter().eq(self.by.cols.iter().map(key)));
        let g = found.unwrap_or_else(|| {
            same_hash.push(groups.len());
            let key = self.by.cols.iter().map(|c| key(c).clone()).collect();
            groups.push((key, vec![AggState::default(); self.by.aggs.len()]));
            groups.len() - 1
        });
        for (st, agg) in groups[g].1.iter_mut().zip(&self.by.aggs) {
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
            .map(|(mut row, states)| {
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
