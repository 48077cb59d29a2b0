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
//! values it returns. A base table read by a full scan is fetched as the
//! blocks need its rows, and the scan tests the base-only conjuncts on
//! each record's bytes ([`RecordTest`]), so a bare `LIMIT` stops the scan
//! and a rejected row is never decoded. Where a row number already
//! identifies an answer it replaces hashing: a join key is looked up once
//! per row of the source it lives in, a group once per row of the source
//! the group columns come from ([`Pipeline::join`], [`Groups`]).
//!
//! Three rules keep the path per tuple short; none is an option, each is
//! chosen from the statement or the keys seen, and none changes a result,
//! its order under ties, or what is asked of the engine.
//!
//! *Aggregate below the joins* ([`Pipeline::pre_aggregate`]). When every
//! aggregate argument is a base column (or the aggregate is `Count`),
//! every group column and every later join's key is read from a joined
//! source, join 0 is keyed on a base column and no conjunct that waits for
//! a joined source reads a base column, all base rows with one key of join
//! 0 meet the same joined rows and fall into the same groups. They
//! collapse, before the first probe, to one *representative* — the first
//! of them — carrying one partial [`AggState`] per aggregate; the
//! unchanged join stages run over the representatives, and [`Groups`]
//! merges a partial where it would have added a value. Aggregates over a
//! `Float` column depend on the order of their inputs (a sum in its last
//! bits; a `Min` in whether it keeps `Int(3)` or the equal `Float(3.0)`),
//! so with one of those the rule also wants every group to receive
//! exactly one partial: join 0's right column among the group columns and
//! every join through a unique single-column index.
//!
//! *Number integer keys without hashing* ([`number_keys`]). Keys that are
//! all `Int` (or NULL) and span less than four times their count are
//! numbered through a table indexed by `key − least key`; swept once, the
//! table also yields the ascending order a probe wants. Any other key set
//! is hashed, and sorted for the probe.
//!
//! *Materialise after the limit*. A group remembers the tuple it first
//! appeared in, not a copy of its key; when the group columns cover a
//! unique index of the one table they are read from, a row of that table
//! *is* a group and is found by number alone. `ORDER BY … LIMIT k`, over
//! groups or tuples, selects the `k` first by the sort keys and then first
//! appearance ([`top`]) — what a stable sort and a cut would leave — and
//! only those are cloned into rows.

use crate::query::{Access, AggFn, Expr, GroupBy, Query, Select, SetExpr};
use crate::row::{Row, RowBatch, RowCursor};
use crate::schema::{ColType, Schema};
use crate::value::{Value, ValueRef};
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{RowId, TableId};
use std::borrow::Cow;
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

    /// Columns `cols` of the live rows of a table that `keep` accepts
    /// (every live row without a test), in heap order — page, then slot —
    /// starting at heap page `from`. `keep` sees each live record's
    /// encoded bytes before anything of it is decoded, and only the rows
    /// it accepts are decoded. The scan stops after the page on which the
    /// `want`th row was kept — that page's later kept rows come back too —
    /// and [`Scanned::next`] is where a further scan resumes; a caller
    /// that wants everything passes `None`, `0` and `usize::MAX`.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (lock conflicts, version conflicts, I/O)
    /// and `keep`'s.
    fn scan(
        &mut self,
        table: TableId,
        cols: &[usize],
        keep: Option<RecordTest<'_>>,
        from: u32,
        want: usize,
    ) -> DmvResult<Scanned>;

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

/// A test of one stored row, given its encoded bytes
/// ([`crate::row::encode_row`]'s) by [`ExecContext::scan`]. It runs under
/// the page latch, so it reads those bytes and does nothing else: it
/// allocates nothing, takes no lock and reads no other page. Malformed
/// bytes are its `Err`.
pub type RecordTest<'t> = &'t dyn Fn(&[u8]) -> DmvResult<bool>;

/// What an [`ExecContext::scan`] read.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scanned {
    /// The kept rows, in heap order.
    pub rows: RowBatch,
    /// The heap page a further scan resumes from; `None` once the scan
    /// has read the table's last page.
    pub next: Option<u32>,
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

/// `access`, with `Access::Auto` resolved against `filter`.
fn resolve<'q>(
    schema: &Schema,
    table: TableId,
    access: &'q Access,
    filter: &Option<Expr>,
) -> DmvResult<Cow<'q, Access>> {
    Ok(match access {
        Access::Auto => Cow::Owned(resolve_auto(schema, table, filter)?),
        other => Cow::Borrowed(other),
    })
}

/// Reads `cols` of all the rows of `table` that `access` (resolved)
/// reaches.
fn read_base(
    ctx: &mut dyn ExecContext,
    table: TableId,
    access: &Access,
    cols: &[usize],
) -> DmvResult<RowBatch> {
    match access {
        Access::Auto => unreachable!("callers resolve auto"),
        Access::FullScan => Ok(ctx.scan(table, cols, None, 0, usize::MAX)?.rows),
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
/// intent. A full scan reads every row and tests the filter after
/// decoding: the rows are returned whole anyway.
fn rows_to_modify(
    ctx: &mut dyn ExecContext,
    table: TableId,
    access: &Access,
    filter: &Option<Expr>,
) -> DmvResult<Vec<(RowId, Row)>> {
    let all: Vec<usize> = (0..ctx.schema().table(table)?.columns.len()).collect();
    let access = resolve(ctx.schema(), table, access, filter)?;
    ctx.set_write_intent(true);
    let rows = read_base(ctx, table, &access, &all);
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

/// In a dense memo indexed by row or key number: nothing remembered yet.
const UNSEEN: usize = usize::MAX;
/// In a [`KeyOfRow`]: the row's key is NULL, it joins nothing.
const NO_KEY: usize = usize::MAX - 1;

/// Which key each row of a source carries, remembered by row number: a
/// key is a function of the row it is read from, so it is numbered once
/// per such row, and two tuples sharing the row share its key.
struct KeyOfRow {
    /// The least row number asked about.
    lo: usize,
    /// Row number − `lo` → the number of the row's key or [`NO_KEY`]
    /// ([`UNSEEN`] for a row nobody asked about).
    numbers: Vec<usize>,
}

impl KeyOfRow {
    fn get(&self, row: usize) -> usize {
        self.numbers[row - self.lo]
    }
}

/// The distinct non-NULL keys of a set of rows.
struct Keys<'r> {
    /// In order of first appearance; a key's position is its number.
    values: Vec<&'r Value>,
    /// When the keys were numbered without hashing: per integer from the
    /// least key to the greatest, the number of the key equal to it
    /// ([`UNSEEN`] in the gaps).
    slots: Option<Vec<usize>>,
}

impl Keys<'_> {
    /// The keys' numbers in ascending key order, as a probe wants them.
    fn ascending(&self) -> Vec<usize> {
        match &self.slots {
            Some(slots) => slots.iter().copied().filter(|&k| k != UNSEEN).collect(),
            None => {
                let mut order: Vec<usize> = (0..self.values.len()).collect();
                order.sort_unstable_by(|&a, &b| self.values[a].cmp(self.values[b]));
                order
            }
        }
    }
}

/// Numbers the distinct non-NULL values of column `pos` of `rows` in
/// order of first appearance, going through the row numbers `of` (which
/// may repeat). Keys that are all `Int` and span less than four times
/// their count are numbered through a table indexed by `key − least key`
/// — no hash, and no sort for [`Keys::ascending`]; any other set through
/// a hash map.
fn number_keys<'r>(
    rows: &'r RowBatch,
    pos: usize,
    of: impl Iterator<Item = usize> + Clone,
) -> (KeyOfRow, Keys<'r>) {
    let (lo, hi) = of.clone().fold((usize::MAX, 0), |(lo, hi), r| (lo.min(r), hi.max(r)));
    let mut memo = KeyOfRow { lo, numbers: vec![UNSEEN; (hi + 1).saturating_sub(lo)] };
    // The keys' range and count, if all of them are integers.
    let ints = of.clone().try_fold((i64::MAX, i64::MIN, 0u64), |(least, most, n), r| {
        match &rows.row(r)[pos] {
            Value::Null => Some((least, most, n)),
            Value::Int(i) => Some((least.min(*i), most.max(*i), n + 1)),
            _ => None,
        }
    });
    // No key at all, or a span past `i64`, is `None` here.
    let mut dense = ints.and_then(|(least, most, n)| {
        let span = most.checked_sub(least)?;
        (span.unsigned_abs() < 4 * n).then(|| (least, vec![UNSEEN; span as usize + 1]))
    });
    let mut number_of: HashMap<&Value, usize> = HashMap::new();
    let mut values: Vec<&Value> = Vec::new();
    for r in of {
        let seen = &mut memo.numbers[r - lo];
        if *seen != UNSEEN {
            continue;
        }
        let key = &rows.row(r)[pos];
        let number = match (key, &mut dense) {
            (Value::Null, _) => {
                *seen = NO_KEY;
                continue;
            }
            (Value::Int(i), Some((least, slots))) => &mut slots[(i - *least) as usize],
            (key, _) => number_of.entry(key).or_insert(UNSEEN),
        };
        if *number == UNSEEN {
            *number = values.len();
            values.push(key);
        }
        *seen = *number;
    }
    (memo, Keys { values, slots: dense.map(|(_, slots)| slots) })
}

/// The most distinct columns a [`RecordFilter`] reads: it holds their
/// values in an array on the stack, so that testing a record allocates
/// nothing.
const TESTED_COLS: usize = 8;

/// The base-only conjuncts of a select whose base is read by a full scan,
/// tested on each record's bytes as the scan's [`RecordTest`]: their
/// columns are read off one [`RowCursor`] walk, in ascending order, as
/// [`ValueRef`]s borrowed from the page.
#[derive(Default)]
struct RecordFilter<'a> {
    /// The base table's columns the conjuncts read, ascending (at most
    /// [`TESTED_COLS`]).
    cols: Vec<usize>,
    conjuncts: Vec<&'a Expr>,
}

impl RecordFilter<'_> {
    /// Whether the encoded row `record` passes every conjunct.
    fn keeps(&self, record: &[u8]) -> DmvResult<bool> {
        let mut values = [ValueRef::Null; TESTED_COLS];
        let mut cursor = RowCursor::new(record)?;
        let mut at = 0; // the column the cursor is positioned on
        for (value, &col) in values.iter_mut().zip(&self.cols) {
            // A column the stored row does not have reads as NULL.
            if col - at >= cursor.remaining() {
                break;
            }
            while at < col {
                cursor.skip()?;
                at += 1;
            }
            *value = cursor.next_value()?;
            at += 1;
        }
        let col =
            |c: usize| self.cols.iter().position(|&t| t == c).map_or(ValueRef::Null, |i| values[i]);
        Ok(self.conjuncts.iter().all(|e| e.truthy(&col)))
    }
}

/// One select in flight: the rows read so far and how to read more.
struct Pipeline<'a> {
    ctx: &'a mut dyn ExecContext,
    s: &'a Select,
    layout: Layout,
    /// `conjuncts[i]`: the filter conjuncts decidable once a tuple has
    /// sources `0..=i` and not yet tested (base-only conjuncts run before
    /// the first probe — on the record bytes, when the base is scanned).
    conjuncts: Vec<Vec<&'a Expr>>,
    /// What the scan of a scanned base tests on each record.
    tested: RecordFilter<'a>,
    /// Per source, the narrowed rows tuples index into: the base rows read
    /// so far and the table of a join without an index for the whole
    /// statement, the matches of an indexed join for the block in flight.
    rows: Vec<RowBatch>,
    /// The first base row no block has taken yet.
    next_base: usize,
    /// For a base read by a full scan, which fetches its rows as blocks
    /// need them: the heap page the next fetch starts at, `None` once the
    /// last page has been read (and for a base read whole up front).
    resume: Option<u32>,
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
        let tested = RecordFilter::default();
        Ok(Pipeline { ctx, s, layout, conjuncts, tested, rows, next_base: 0, resume: None })
    }

    /// Reads what is read once per statement: the base rows reached
    /// through an index, and the whole table of every join that has no
    /// index to probe. A base read by a full scan is fetched later, as
    /// blocks need its rows ([`Pipeline::take_base`]); its base-only
    /// conjuncts become the scan's record test, unless they read more
    /// than [`TESTED_COLS`] columns.
    fn read(&mut self) -> DmvResult<()> {
        let s = self.s;
        let access = resolve(self.ctx.schema(), s.table, &s.access, &s.filter)?;
        if *access == Access::FullScan {
            self.resume = Some(0);
            let base_width = self.layout.offsets[1];
            let mut cols = Vec::new();
            for e in &self.conjuncts[0] {
                e.for_each_col(&mut |c| cols.extend((c < base_width).then_some(c)));
            }
            cols.sort_unstable();
            cols.dedup();
            if cols.len() <= TESTED_COLS {
                let conjuncts = std::mem::take(&mut self.conjuncts[0]);
                self.tested = RecordFilter { cols, conjuncts };
            }
        } else {
            self.rows[0] = read_base(self.ctx, s.table, &access, &self.layout.needs[0])?;
        }
        for (i, j) in s.joins.iter().enumerate().filter(|(_, j)| j.right_index.is_none()) {
            let scanned = self.ctx.scan(j.table, &self.layout.needs[i + 1], None, 0, usize::MAX)?;
            self.rows[i + 1] = scanned.rows;
        }
        Ok(())
    }

    /// Scans the base from page `from` until `want` more rows pass the
    /// record test, and adds them to the base rows — the first fetch's
    /// batch as it comes.
    fn fetch(&mut self, from: u32, want: usize) -> DmvResult<()> {
        let tested = &self.tested;
        let test = |record: &[u8]| tested.keeps(record);
        let keep: Option<RecordTest<'_>> = (!tested.conjuncts.is_empty()).then_some(&test);
        let got = self.ctx.scan(self.s.table, &self.layout.needs[0], keep, from, want)?;
        self.resume = got.next;
        match self.rows[0].is_empty() {
            true => self.rows[0] = got.rows,
            false => self.rows[0].append(got.rows),
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
        self.next_base >= self.rows[0].len() && self.resume.is_none()
    }

    /// Takes base rows until `want` of them pass the base-only conjuncts
    /// (or none are left), fetching more from a scanned base as the rows
    /// read so far run out: the base rows of the next block.
    fn take_base(&mut self, want: usize) -> DmvResult<Vec<usize>> {
        let mut taken = Vec::new();
        loop {
            while self.next_base < self.rows[0].len() && taken.len() < want {
                if self.passes(0, &[self.next_base]) {
                    taken.push(self.next_base);
                }
                self.next_base += 1;
            }
            match self.resume {
                Some(from) if taken.len() < want => self.fetch(from, want - taken.len())?,
                _ => return Ok(taken),
            }
        }
    }

    /// Runs `tuples` — base rows that passed the base-only conjuncts —
    /// through the joins, a stage at a time. Returns the joined tuples
    /// that pass the filter, one row number per source each, in the order
    /// the reference pipeline (a nested loop over everything, then the
    /// filter) would produce them.
    fn join_all(&mut self, mut tuples: Vec<usize>) -> DmvResult<Vec<usize>> {
        for stage in 0..self.s.joins.len() {
            tuples = self.join(stage, &tuples)?;
        }
        Ok(tuples)
    }

    /// The joined tuples of the next block of base rows. A caller that
    /// consumes every tuple asks for all base rows at once; one that stops
    /// early asks for as many as it still wants rows — every base row
    /// yields a tuple or more unless a join or a later conjunct drops it,
    /// and then the caller asks again.
    fn next_block(&mut self, want: usize) -> DmvResult<Vec<usize>> {
        let base = self.take_base(want)?;
        self.join_all(base)
    }

    /// Where the base rows hold join 0's key, if grouping by `g` may
    /// *aggregate below the joins* (the module doc has the rule).
    fn key_below_joins(&self, g: &GroupBy) -> DmvResult<Option<usize>> {
        let s = self.s;
        let source_of = |c: usize| self.layout.slot(c).map(|(source, _)| source);
        let joined = |c: usize| source_of(c).is_some_and(|source| source > 0);
        let Some(first) = s.joins.first() else { return Ok(None) };
        let Some((0, key_at)) = self.layout.slot(first.left_col) else { return Ok(None) };
        let schema = self.ctx.schema();
        let base = schema.table(s.table)?;
        let mut ordered = false;
        for agg in &g.aggs {
            if let AggFn::Sum(c) | AggFn::Avg(c) | AggFn::Min(c) | AggFn::Max(c) = *agg {
                if source_of(c) != Some(0) {
                    return Ok(None);
                }
                ordered |= base.columns[c].ty == ColType::Float;
            }
        }
        let mut later_reads_base = false;
        for e in self.conjuncts[1..].iter().flatten() {
            e.for_each_col(&mut |c| later_reads_base |= source_of(c) == Some(0));
        }
        let mut may = !later_reads_base
            && g.cols.iter().all(|&c| joined(c))
            && s.joins[1..].iter().all(|j| joined(j.left_col));
        if may && ordered {
            // One tuple per representative, and no group with two of them.
            may = g.cols.contains(&(self.layout.offsets[1] + first.right_col));
            for j in &s.joins {
                let indexes = &schema.table(j.table)?.indexes;
                let index = j.right_index.and_then(|no| indexes.get(no as usize));
                may &= index.is_some_and(|ix| ix.unique && ix.columns == [j.right_col]);
            }
        }
        Ok(may.then_some(key_at))
    }

    /// The pre-pass of a select that aggregates below its joins: collapses
    /// `base` to one representative per distinct non-NULL key of join 0,
    /// the first row carrying it. Returns the representatives in order,
    /// and each one's partial aggregates over all the rows it stands for;
    /// `None` for a select that must join every base row.
    fn pre_aggregate(
        &self,
        g: &GroupBy,
        base: &[usize],
    ) -> DmvResult<Option<(Vec<usize>, Partials)>> {
        let Some(key_at) = self.key_below_joins(g)? else { return Ok(None) };
        let (rep_of_row, keys) = number_keys(&self.rows[0], key_at, base.iter().copied());
        let per = g.aggs.len();
        let mut states = vec![AggState::default(); keys.values.len() * per];
        let mut reps = Vec::with_capacity(keys.values.len());
        for &b in base {
            let k = rep_of_row.get(b);
            if k == NO_KEY {
                continue;
            }
            // Keys are numbered as they appear: a new number is a new key.
            if k == reps.len() {
                reps.push(b);
            }
            for (st, agg) in states[k * per..][..per].iter_mut().zip(&g.aggs) {
                st.add(agg, |c| self.col(&[b], c));
            }
        }
        Ok(Some((reps, Partials { rep_of_row, states, per })))
    }

    /// Whether no two rows of `source` agree on `cols`, all of which are
    /// read from it: they include every column of a unique index.
    fn rows_differ_on(&self, source: usize, cols: &[usize]) -> DmvResult<bool> {
        let table = match source {
            0 => self.s.table,
            joined => self.s.joins[joined - 1].table,
        };
        let has = |local: &usize| cols.contains(&(self.layout.offsets[source] + local));
        let indexes = &self.ctx.schema().table(table)?.indexes;
        Ok(indexes.iter().any(|ix| ix.unique && ix.columns.iter().all(has)))
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

        // 1. The distinct non-NULL keys, numbered as they appear.
        let numbers = tuples.iter().skip(source).step_by(width).copied();
        let (key_of_row, keys) = number_keys(&self.rows[source], pos, numbers);

        // 2. Every key's matches, resolved as a set: `matches[k]` is key
        // `k`'s range of positions in `hits`, whose entries are row
        // numbers of the joined table.
        let mut matches = vec![(0, 0); keys.values.len()];
        let hits: Vec<usize> = match join.right_index {
            // One probe for all keys; its rows are the joined table's rows
            // for this block, so a position is its own row number.
            Some(index_no) => {
                let sorted = keys.ascending();
                let probe: Vec<&[Value]> =
                    sorted.iter().map(|&k| std::slice::from_ref(keys.values[k])).collect();
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
                let number_of: HashMap<&Value, usize> =
                    keys.values.iter().enumerate().map(|(k, &key)| (key, k)).collect();
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
            let k = key_of_row.get(tuple[source]);
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
    // What `project` and `order_by` index: the aggregated row (group
    // columns, then aggregates) under `GROUP BY`, else the joined row.
    let width = match &s.group_by {
        Some(g) => g.cols.len() + g.aggs.len(),
        None => p.layout.slots.len(),
    };
    let all: Vec<usize>;
    let cols = match &s.project {
        Some(cols) => cols,
        None => {
            all = (0..width).collect();
            &all
        }
    };
    let sources = p.rows.len();
    let mut rows: Vec<Row> = Vec::new();
    match &s.group_by {
        // Pipeline order: … → group → order → limit → project.
        Some(g) => {
            let base = p.take_base(usize::MAX)?;
            let (base, partials) = match p.pre_aggregate(g, &base)? {
                Some((reps, partials)) => (reps, Some(partials)),
                None => (base, None),
            };
            let tuples = p.join_all(base)?;
            let tuple = |t: usize| &tuples[t * sources..][..sources];
            let col_of = |t: usize, c: usize| p.col(tuple(t), c);
            let by_row = p.layout.only_source_of(&g.cols);
            let rows_are_groups = match by_row {
                Some(source) => p.rows_differ_on(source, &g.cols)?,
                None => false,
            };
            let of_rows = by_row.map_or(0, |source| p.rows[source].len());
            let mut groups = Groups::new(g, of_rows, rows_are_groups);
            for t in 0..tuples.len() / sources {
                let row = by_row.map(|source| tuple(t)[source]);
                groups.add(t, row, &col_of, partials.as_ref().map(|pre| pre.of(tuple(t)[0])));
            }
            // A group's key is read where it first appeared, its
            // aggregates from `values`; only what survives the limit is
            // cloned.
            let (first, values) = groups.finish()?;
            let cell = |group: usize, c: usize| match g.cols.get(c) {
                Some(&col) => p.col_ref(tuple(first[group]), col),
                None => values[group * g.aggs.len()..][..g.aggs.len()]
                    .get(c - g.cols.len())
                    .map_or(ValueRef::Null, ValueRef::from),
            };
            let by_keys =
                |a: usize, b: usize| cmp_keys(&s.order_by, |c| cell(a, c), |c| cell(b, c));
            for group in top(first.len(), limit, by_keys) {
                rows.push(cols.iter().map(|&c| cell(group, c).to_value()).collect());
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
        // Order the tuples, not the rows: only the survivors of the limit
        // are materialized.
        None => {
            let tuples = p.next_block(usize::MAX)?;
            let tuple = |t: usize| &tuples[t * sources..][..sources];
            let by_keys = |a: usize, b: usize| {
                cmp_keys(&s.order_by, |c| p.col_ref(tuple(a), c), |c| p.col_ref(tuple(b), c))
            };
            for t in top(tuples.len() / sources, limit, by_keys) {
                rows.push(p.output(tuple(t), cols));
            }
        }
    }
    Ok(ResultSet { rows, affected: 0 })
}

/// `ORDER BY` comparison of two rows given by their column accessors.
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

/// The first `limit` of `0..n` in the order of `cmp`, ties in the order of
/// the numbers themselves: what a stable sort followed by a cut leaves,
/// without sorting what the cut drops.
fn top(n: usize, limit: usize, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let total = |a: &usize, b: &usize| cmp(*a, *b).then(a.cmp(b));
    if limit < n {
        order.select_nth_unstable_by(limit, total);
        order.truncate(limit);
    }
    order.sort_unstable_by(total);
    order
}

/// A running sum: exact for as long as every value was an `Int`, an `f64`
/// from the first `Float` on.
#[derive(Clone, Copy)]
enum Total {
    Int(i128),
    Float(f64),
}

impl Total {
    fn as_f64(self) -> f64 {
        match self {
            Total::Int(i) => i as f64,
            Total::Float(f) => f,
        }
    }

    fn plus(self, other: Total) -> Total {
        match (self, other) {
            // No overflow: that takes 2^64 values of an `i64`'s size.
            (Total::Int(a), Total::Int(b)) => Total::Int(a + b),
            (a, b) => Total::Float(a.as_f64() + b.as_f64()),
        }
    }
}

/// One aggregate's running state within one group — or, below the joins,
/// over the base rows one representative stands for.
#[derive(Clone)]
struct AggState {
    /// Rows (`Count`) or numeric values (`Sum`, `Avg`) seen.
    count: u64,
    total: Total,
    /// The smallest (`Min`) or largest (`Max`) non-NULL value seen, the
    /// first of equal ones.
    best: Option<Value>,
}

impl Default for AggState {
    fn default() -> Self {
        AggState { count: 0, total: Total::Int(0), best: None }
    }
}

impl AggState {
    /// `Min` or `Max`: keeps `v` if it beats what was kept so far.
    fn offer(&mut self, agg: &AggFn, v: &Value) {
        let better = if matches!(agg, AggFn::Min(_)) { Ordering::Less } else { Ordering::Greater };
        if !v.is_null() && self.best.as_ref().is_none_or(|best| v.cmp(best) == better) {
            self.best = Some(v.clone());
        }
    }

    /// Accumulates one row, whose columns `col` supplies.
    fn add<'r>(&mut self, agg: &AggFn, col: impl Fn(usize) -> Option<&'r Value>) {
        match *agg {
            AggFn::Count => self.count += 1,
            AggFn::Min(c) | AggFn::Max(c) => {
                if let Some(v) = col(c) {
                    self.offer(agg, v);
                }
            }
            AggFn::Sum(c) | AggFn::Avg(c) => {
                let number = match col(c) {
                    Some(Value::Int(i)) => Total::Int(i128::from(*i)),
                    Some(Value::Float(f)) => Total::Float(*f),
                    _ => return,
                };
                self.count += 1;
                self.total = self.total.plus(number);
            }
        }
    }

    /// Accumulates what `partial` has, as adding its rows one by one would.
    fn merge(&mut self, agg: &AggFn, partial: &AggState) {
        self.count += partial.count;
        self.total = self.total.plus(partial.total);
        if let Some(v) = &partial.best {
            self.offer(agg, v);
        }
    }

    /// The aggregate's value.
    fn finish(self, agg: &AggFn) -> DmvResult<Value> {
        Ok(match (agg, self.total) {
            (AggFn::Count, _) => Value::Int(self.count as i64),
            (AggFn::Sum(_) | AggFn::Avg(_), _) if self.count == 0 => Value::Null,
            (AggFn::Sum(_), Total::Float(f)) => Value::Float(f),
            (AggFn::Sum(_), Total::Int(i)) => Value::Int(
                i64::try_from(i).map_err(|_| DmvError::Query(format!("SUM overflows: {i}")))?,
            ),
            (AggFn::Avg(_), total) => Value::Float(total.as_f64() / self.count as f64),
            (AggFn::Min(_) | AggFn::Max(_), _) => self.best.unwrap_or(Value::Null),
        })
    }
}

/// What [`Pipeline::pre_aggregate`] made of the base rows.
struct Partials {
    /// Base row → the number of its key, which is its representative's.
    rep_of_row: KeyOfRow,
    /// Per representative, one state per aggregate.
    states: Vec<AggState>,
    /// Aggregates per representative.
    per: usize,
}

impl Partials {
    /// The partial aggregates of the representative `base_row`.
    fn of(&self, base_row: usize) -> &[AggState] {
        &self.states[self.rep_of_row.get(base_row) * self.per..][..self.per]
    }
}

struct Group {
    /// The tuple the group first appeared in; its group columns are the
    /// group's key.
    first: usize,
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

/// Streaming hash aggregate: groups in order of first appearance, no key
/// copied — a group's key is read from the tuple it first appeared in.
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
    /// group without hashing the key again.
    of_row: Vec<usize>,
    /// Whether there is such a source and no two of its rows have equal
    /// keys: a row's first tuple then starts a group, found by nothing but
    /// the row's number. Otherwise it finds or starts its group by value,
    /// so rows with equal values still meet in one group.
    rows_are_groups: bool,
}

impl<'a> Groups<'a> {
    /// `rows`: how many rows the source all group columns are read from
    /// has, 0 if there is no such source.
    fn new(by: &'a GroupBy, rows: usize, rows_are_groups: bool) -> Self {
        Groups {
            by,
            groups: Vec::new(),
            index: HashMap::default(),
            hasher: RandomState::new(),
            of_row: vec![UNSEEN; rows],
            rows_are_groups,
        }
    }

    /// The group of tuple `t` — `col(t, c)` is flat column `c` of tuple
    /// `t`, and `t` is the first tuple of its row where rows are
    /// remembered — created if `t` is the first of its key.
    fn group_of<'r>(
        &mut self,
        t: usize,
        col: &impl Fn(usize, usize) -> Option<&'r Value>,
    ) -> usize {
        let mut newest = None;
        if !self.rows_are_groups {
            let by = self.by;
            let key = |t: usize| by.cols.iter().map(move |&c| col(t, c).unwrap_or(&Value::Null));
            let mut h = self.hasher.build_hasher();
            key(t).for_each(|v| v.hash(&mut h));
            let hash = h.finish();
            newest = self.index.get(&hash).copied();
            let mut same_hash = newest;
            while let Some(g) = same_hash {
                if key(self.groups[g].first).eq(key(t)) {
                    return g;
                }
                same_hash = self.groups[g].same_hash;
            }
            self.index.insert(hash, self.groups.len());
        }
        let states = vec![AggState::default(); self.by.aggs.len()];
        self.groups.push(Group { first: t, states, same_hash: newest });
        self.groups.len() - 1
    }

    /// Accumulates tuple `t`: the values of its aggregate arguments or,
    /// for a representative, the `partial` aggregates of the rows it
    /// stands for. `row` is the tuple's row number in the source that
    /// supplies every group column, if one does.
    fn add<'r>(
        &mut self,
        t: usize,
        row: Option<usize>,
        col: &impl Fn(usize, usize) -> Option<&'r Value>,
        partial: Option<&[AggState]>,
    ) {
        let g = match row.map(|r| self.of_row[r]) {
            Some(g) if g != UNSEEN => g,
            _ => {
                let g = self.group_of(t, col);
                if let Some(r) = row {
                    self.of_row[r] = g;
                }
                g
            }
        };
        for (i, (st, agg)) in self.groups[g].states.iter_mut().zip(&self.by.aggs).enumerate() {
            match partial {
                Some(partial) => st.merge(agg, &partial[i]),
                None => st.add(agg, |c| col(t, c)),
            }
        }
    }

    /// Per group, in first-appearance order: the tuple it first appeared
    /// in, and (all groups' in one run) one value per aggregate.
    fn finish(self) -> DmvResult<(Vec<usize>, Vec<Value>)> {
        let mut first = Vec::with_capacity(self.groups.len());
        let mut values = Vec::with_capacity(self.groups.len() * self.by.aggs.len());
        for group in self.groups {
            first.push(group.first);
            for (st, agg) in group.states.into_iter().zip(&self.by.aggs) {
                values.push(st.finish(agg)?);
            }
        }
        Ok((first, values))
    }
}
