//! Differential test: random small tables, random `Select` shapes, the
//! executor's answer against [`crate::reference`]'s — same rows, same
//! order, same bits — on the mock context and on a real `MemDb` under both
//! concurrency modes, read through an update transaction, a local
//! (untagged, quiescent) read, and a tagged read at an old tag after
//! further commits (so pages are served through the read gate's version
//! history).

use crate::mock::MockContext;
use crate::reference;
use dmv_common::config::ConcurrencyMode;
use dmv_common::error::DmvResult;
use dmv_common::ids::{PageId, RowId, TableId};
use dmv_common::rng::seeded;
use dmv_common::version::VersionVector;
use dmv_memdb::{MemDb, MemDbOptions, ReadGate, Txn};
use dmv_pagestore::store::PageCell;
use dmv_pagestore::PAGE_SIZE;
use dmv_sql::exec::{execute, ExecContext, Probed, RecordTest, Scanned};
use dmv_sql::query::{Access, AggFn, CmpOp, Expr, Join, Query, Select, SetExpr};
use dmv_sql::row::{Row, RowBatch};
use dmv_sql::schema::{ColType, Column, IndexDef, Schema, TableSchema};
use dmv_sql::value::Value;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Three tables with an int primary key, a small-domain nullable int
/// `k` (duplicate, NULL and absent join keys, 1:n fan-out), and string /
/// float payloads; secondary indexes on `k`, one of them composite.
fn schema() -> Schema {
    let id = || Column::new("id", ColType::Int);
    let k = || Column::nullable("k", ColType::Int);
    let f = || Column::nullable("f", ColType::Float);
    let s = || Column::nullable("s", ColType::Str);
    let by_k = || IndexDef::non_unique("by_k", vec![1]);
    Schema::new(vec![
        TableSchema::new(
            TableId(0),
            "a",
            vec![id(), k(), f(), s()],
            vec![
                IndexDef::unique("pk", vec![0]),
                by_k(),
                IndexDef::non_unique("by_k_s", vec![1, 3]),
            ],
        ),
        TableSchema::new(
            TableId(1),
            "b",
            vec![id(), k(), s()],
            vec![IndexDef::unique("pk", vec![0]), by_k()],
        ),
        TableSchema::new(
            TableId(2),
            "c",
            vec![id(), k(), f()],
            vec![IndexDef::unique("pk", vec![0]), by_k()],
        ),
    ])
}

/// String payloads as `(text, padding)`: the padded ones make a table
/// of two dozen rows span several heap pages, so index order and heap
/// order differ.
const WORDS: [(&str, usize); 7] =
    [("", 0), ("ab", 0), ("abc", 0), ("b", 0), ("bcd", 300), ("héllo", 600), ("zz", 900)];
const PATTERNS: [&str; 8] = ["%", "a%", "%c", "%b%", "ab", "b%x", "", "%é%"];

/// A value for a column of type `ty`: NULL now and then, ints from a
/// small domain, floats that are odd halves or thirds (and ints, which a
/// float column accepts — `Sum`/`Avg` see mixed Int/Float/NULL). Sums of
/// halves are exact in any order, sums of thirds are not: an executor
/// that adds in another order than the reference shows in the last bits.
/// No float equals an int, so which of two equal values a `Min` or a
/// group key keeps never depends on the order rows arrive in.
fn value(rng: &mut SmallRng, ty: ColType) -> Value {
    if rng.gen_bool(0.15) {
        return Value::Null;
    }
    match ty {
        ColType::Int => Value::Int(rng.gen_range(-1..4)),
        ColType::Float if rng.gen_bool(0.4) => Value::Int(rng.gen_range(-2..5)),
        ColType::Float if rng.gen_bool(0.5) => Value::Float(rng.gen_range(-2..5) as f64 + 0.5),
        ColType::Float => {
            Value::Float((3 * rng.gen_range(-2..5) + rng.gen_range(1..3)) as f64 / 3.0)
        }
        ColType::Str => {
            let (text, padding) = WORDS[rng.gen_range(0..WORDS.len())];
            Value::from(format!("{text}{}", "x".repeat(padding)))
        }
        ColType::Bool => Value::Bool(rng.gen_bool(0.5)),
    }
}

fn row(rng: &mut SmallRng, ts: &TableSchema, id: i64) -> Row {
    let mut row: Row = ts.columns.iter().map(|c| value(rng, c.ty)).collect();
    row[0] = Value::Int(id);
    row
}

/// A literal to hold against column `col` of the joined row, whose
/// column types are `types`: mostly of the column's type, else any.
fn literal(rng: &mut SmallRng, types: &[ColType], col: usize) -> Value {
    let any = [ColType::Int, ColType::Float, ColType::Str][rng.gen_range(0..3)];
    let ty = types.get(col).copied().filter(|_| rng.gen_bool(0.8)).unwrap_or(any);
    value(rng, ty)
}

fn expr(rng: &mut SmallRng, types: &[ColType], depth: usize) -> Expr {
    // One column past the joined row, too: it reads as NULL.
    let col = rng.gen_range(0..=types.len());
    let boxed = |e: Expr| Box::new(e);
    match rng.gen_range(0..if depth == 0 { 4 } else { 7 }) {
        0 => {
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                [rng.gen_range(0..6)];
            Expr::Cmp(op, boxed(Expr::Col(col)), boxed(Expr::Lit(literal(rng, types, col))))
        }
        1 => Expr::Cmp(
            CmpOp::Eq,
            boxed(Expr::Col(col)),
            boxed(Expr::Col(rng.gen_range(0..=types.len()))),
        ),
        2 => Expr::like(col, PATTERNS[rng.gen_range(0..PATTERNS.len())]),
        3 => {
            let list = (0..rng.gen_range(0..4)).map(|_| literal(rng, types, col)).collect();
            Expr::InList(boxed(Expr::Col(col)), list)
        }
        4 => Expr::Not(boxed(expr(rng, types, depth - 1))),
        5 => expr(rng, types, depth - 1).or(expr(rng, types, depth - 1)),
        _ => expr(rng, types, depth - 1).and(expr(rng, types, depth - 1)),
    }
}

/// A key for (a prefix of) an index over columns `cols` of `ts`, from
/// the domains the data is drawn from.
fn key(rng: &mut SmallRng, ts: &TableSchema, cols: &[usize]) -> Vec<Value> {
    let part = |&c: &usize| match ts.columns[c].ty {
        ColType::Int => Value::Int(rng.gen_range(-1..6)),
        ty => value(rng, ty),
    };
    cols.iter().map(part).collect()
}

fn bound(rng: &mut SmallRng, ts: &TableSchema, cols: &[usize]) -> Option<(Vec<Value>, bool)> {
    let prefix = rng.gen_range(1..=cols.len());
    rng.gen_bool(0.7).then(|| (key(rng, ts, &cols[..prefix]), rng.gen_bool(0.5)))
}

fn access(rng: &mut SmallRng, ts: &TableSchema) -> Access {
    let index_no = rng.gen_range(0..ts.indexes.len());
    let cols = &ts.indexes[index_no].columns;
    match rng.gen_range(0..5) {
        0 => Access::FullScan,
        1 => Access::Auto,
        2 => Access::IndexEq { index_no: index_no as u8, key: key(rng, ts, cols) },
        _ => Access::IndexRange {
            index_no: index_no as u8,
            lo: bound(rng, ts, cols),
            hi: bound(rng, ts, cols),
            rev: rng.gen_bool(0.3),
            scan_limit: rng.gen_bool(0.3).then(|| rng.gen_range(0..6)),
        },
    }
}

/// A comparison of column `col` of the joined row with a literal.
fn compare(rng: &mut SmallRng, types: &[ColType], col: usize) -> Expr {
    let op = [CmpOp::Ne, CmpOp::Le, CmpOp::Ge][rng.gen_range(0..3)];
    Expr::Cmp(op, Box::new(Expr::Col(col)), Box::new(Expr::Lit(literal(rng, types, col))))
}

/// The column types of `s`'s joined row and, per source, its first flat
/// column.
fn sources(schema: &Schema, s: &Select) -> (Vec<ColType>, Vec<usize>) {
    let (mut types, mut starts) = (Vec::new(), Vec::new());
    for table in std::iter::once(s.table).chain(s.joins.iter().map(|j| j.table)) {
        starts.push(types.len());
        types.extend(schema.table(table).unwrap().columns.iter().map(|c| c.ty));
    }
    (types, starts)
}

/// Joins, filter and grouping of any shape.
fn any_shape(rng: &mut SmallRng, schema: &Schema, mut s: Select) -> Select {
    for _ in 0..[0, 0, 1, 1, 2, 2][rng.gen_range(0..6)] {
        let (types, starts) = sources(schema, &s);
        let right = TableId(rng.gen_range(0..3));
        // Join on `id` or `k` (now and then on a payload column), with
        // the matching index or none: `k` is a small domain with NULLs,
        // so keys repeat, are missing on either side, and an index on it
        // fans out. The left column is `id` or `k` of the base table or
        // — a chained join — of the table joined last, else any column
        // bound so far, or the first one that is not.
        let right_col = [0, 1, 1, 2][rng.gen_range(0..4)];
        let right_index = (right_col < 2 && rng.gen_bool(0.7)).then_some(right_col as u8);
        let left_col = match rng.gen_range(0..10) {
            0..4 => rng.gen_range(0..2),
            4..8 => starts[starts.len() - 1] + rng.gen_range(0..2),
            _ => rng.gen_range(0..=types.len()),
        };
        s = s.join(Join { table: right, left_col, right_col, right_index });
    }
    let (types, starts) = sources(schema, &s);
    let width = types.len();
    if rng.gen_bool(0.6) {
        let mut f = expr(rng, &types, 2);
        if s.access == Access::Auto && rng.gen_bool(0.8) {
            // Give `Auto` an index to find: pin the key or `k`.
            let pinned = rng.gen_range(0..2);
            f = Expr::eq(pinned, rng.gen_range(0..5)).and(f);
        }
        // Conjuncts that become decidable at one stage each: a comparison
        // on a column of that source alone.
        for &start in &starts {
            if rng.gen_bool(0.4) {
                let col = start + rng.gen_range(0..3);
                f = f.and(compare(rng, &types, col));
            }
        }
        s = s.filter(f);
    }
    if rng.gen_bool(0.4) {
        // Group by anything — or by columns of one source (`k` and the
        // payload next to it: equal values in many rows of that source),
        // which the aggregate may then tell apart by row number.
        let cols: Vec<usize> = if rng.gen_bool(0.5) {
            let start = starts[rng.gen_range(0..starts.len())];
            (0..rng.gen_range(1..3)).map(|_| start + rng.gen_range(1..3)).collect()
        } else {
            (0..rng.gen_range(0..3)).map(|_| rng.gen_range(0..=width)).collect()
        };
        let aggs: Vec<AggFn> = (0..rng.gen_range(1..4))
            .map(|_| {
                let c = rng.gen_range(0..=width);
                [AggFn::Count, AggFn::Sum(c), AggFn::Avg(c), AggFn::Min(c), AggFn::Max(c)]
                    [rng.gen_range(0..5)]
            })
            .collect();
        s = s.group(cols, aggs);
    }
    s
}

/// The shape the executor aggregates below the joins, and its nearest
/// neighbours: base ⋈ right on the base's `k` or `id` — mostly through
/// the non-unique `by_k`, so one key matches several rows, some keys are
/// NULL and some match nothing — now and then a second join keyed on the
/// first one's rows; grouped by columns of the joined sources, mostly the
/// first join's right column among them; aggregates over base columns,
/// the float payload where there is one; conjuncts on the base alone and
/// on the right-hand side alone. One statement in five steps over one
/// boundary of the rule: an aggregate or a group column from the wrong
/// side, a later conjunct or a second join that reads the base.
fn grouped_over_joins(rng: &mut SmallRng, schema: &Schema, mut s: Select) -> Select {
    let base_width = schema.table(s.table).unwrap().columns.len();
    let right_col = if rng.gen_bool(0.7) { 1 } else { 0 };
    let right_index = rng.gen_bool(0.9).then_some(right_col as u8);
    let first = Join {
        table: TableId(rng.gen_range(0..3)),
        left_col: if rng.gen_bool(0.8) { 1 } else { 0 },
        right_col,
        right_index,
    };
    s = s.join(first);
    let neighbour = if rng.gen_bool(0.2) { rng.gen_range(0..4) } else { usize::MAX };
    if rng.gen_bool(0.4) {
        let right_col = rng.gen_range(0..2);
        let from = if neighbour == 0 { 0 } else { base_width };
        s = s.join(Join {
            table: TableId(rng.gen_range(0..3)),
            left_col: from + rng.gen_range(0..2),
            right_col,
            right_index: rng.gen_bool(0.9).then_some(right_col as u8),
        });
    }
    let (types, starts) = sources(schema, &s);
    let joined = |rng: &mut SmallRng| rng.gen_range(base_width..types.len());
    let mut conjuncts = Vec::new();
    if rng.gen_bool(0.4) {
        let col = rng.gen_range(0..base_width);
        conjuncts.push(compare(rng, &types, col));
    }
    if rng.gen_bool(0.4) {
        let col = joined(rng);
        conjuncts.push(compare(rng, &types, col));
    }
    if neighbour == 1 {
        let (a, b) = (Expr::Col(rng.gen_range(0..2)), Expr::Col(joined(rng)));
        conjuncts.push(Expr::Cmp(CmpOp::Le, Box::new(a), Box::new(b)));
    }
    if let Some(f) = conjuncts.into_iter().reduce(Expr::and) {
        s = s.filter(f);
    }
    let mut cols: Vec<usize> = (0..rng.gen_range(0..2)).map(|_| joined(rng)).collect();
    if rng.gen_bool(0.75) {
        cols.insert(0, starts[1] + right_col);
    }
    if neighbour == 2 {
        cols.push(rng.gen_range(0..base_width));
    }
    let float = types[..base_width].iter().position(|&ty| ty == ColType::Float);
    let mut aggs: Vec<AggFn> = (0..rng.gen_range(1..4))
        .map(|_| {
            let c = float.filter(|_| rng.gen_bool(0.5)).unwrap_or(rng.gen_range(0..base_width));
            [AggFn::Count, AggFn::Sum(c), AggFn::Avg(c), AggFn::Min(c), AggFn::Max(c)]
                [rng.gen_range(0..5)]
        })
        .collect();
    if neighbour == 3 {
        aggs.push(AggFn::Sum(joined(rng)));
    }
    s.group(cols, aggs)
}

/// The shape on which a scanned base resumes: a full scan of a table
/// with the padded string payload (`a` or `b`, several heap pages), a
/// base-only LIKE or comparison that the scan's record test decides, an
/// inner join on the nullable `k` — and now and then a conjunct on the
/// joined table — that drops some of the kept rows, and a small limit
/// with no `ORDER BY`: the first fetch keeps as many rows as the limit,
/// and when the join drops some, the executor asks the scan for more from
/// the page after the one it stopped at.
fn resumable(rng: &mut SmallRng, schema: &Schema) -> Select {
    let table = TableId(rng.gen_range(0..2));
    let base_width = schema.table(table).unwrap().columns.len();
    let access = if rng.gen_bool(0.5) { Access::FullScan } else { Access::Auto };
    let right_col = rng.gen_range(0..2);
    let right_index = rng.gen_bool(0.7).then_some(right_col as u8);
    let join = Join { table: TableId(rng.gen_range(0..3)), left_col: 1, right_col, right_index };
    let mut s = Select::scan(table).access(access).join(join);
    let (types, starts) = sources(schema, &s);
    let on = |rng: &mut SmallRng, from: usize, width: usize| {
        let col = from + rng.gen_range(0..width);
        compare(rng, &types, col)
    };
    let mut f = match rng.gen_bool(0.6) {
        true => Expr::like(base_width - 1, PATTERNS[rng.gen_range(0..PATTERNS.len())]),
        false => on(rng, 0, base_width),
    };
    if rng.gen_bool(0.3) {
        f = f.and(on(rng, 0, base_width));
    }
    if rng.gen_bool(0.4) {
        f = f.and(on(rng, starts[1], 3));
    }
    s = s.filter(f).limit(rng.gen_range(1..4));
    if rng.gen_bool(0.5) {
        s = s.project((0..rng.gen_range(1..4)).map(|_| rng.gen_range(0..types.len())).collect());
    }
    s
}

fn select(rng: &mut SmallRng, schema: &Schema) -> Select {
    if rng.gen_bool(0.2) {
        return resumable(rng, schema);
    }
    let table = TableId(rng.gen_range(0..3));
    let mut s = Select::scan(table).access(access(rng, schema.table(table).unwrap()));
    s = match rng.gen_bool(0.3) {
        true => grouped_over_joins(rng, schema, s),
        false => any_shape(rng, schema, s),
    };
    let out_width = match &s.group_by {
        Some(g) => g.cols.len() + g.aggs.len(),
        None => sources(schema, &s).0.len(),
    };
    for _ in 0..[0, 0, 0, 1, 2, 3][rng.gen_range(0..6)] {
        s = s.order_by(rng.gen_range(0..=out_width), rng.gen_bool(0.5));
    }
    // Half of the limits meet no `ORDER BY`: the select stops early, block
    // by block.
    if rng.gen_bool(0.45) {
        s = s.limit([0, 1, 2, 3, 5, 8, 13][rng.gen_range(0..7)]);
    }
    if rng.gen_bool(0.5) {
        s = s.project((0..rng.gen_range(0..5)).map(|_| rng.gen_range(0..=out_width)).collect());
    }
    s
}

/// Loads, then changes: the statements of two transactions. The second
/// updates (growing strings relocate rows), deletes and inserts, so the
/// heap has dead slots and the indexes moved entries.
fn history(rng: &mut SmallRng, schema: &Schema) -> [Vec<Query>; 2] {
    let mut load = Vec::new();
    let mut change = Vec::new();
    for ts in schema.tables() {
        let n = rng.gen_range(0..28);
        load.push(Query::Insert {
            table: ts.id,
            rows: (1..=n).map(|id| row(rng, ts, id)).collect(),
        });
        let by_k = |rng: &mut SmallRng| Some(Expr::eq(1, rng.gen_range(-1..4)));
        change.push(Query::Delete { table: ts.id, access: Access::Auto, filter: by_k(rng) });
        let last = ts.columns.len() - 1;
        let grown = match ts.columns[last].ty {
            ColType::Str => SetExpr::Value(Value::from("grown ".repeat(rng.gen_range(1..40)))),
            ty => SetExpr::Value(value(rng, ty)),
        };
        let set = vec![(1, SetExpr::Value(value(rng, ColType::Int))), (last, grown)];
        change.push(Query::Update {
            table: ts.id,
            access: Access::FullScan,
            filter: by_k(rng),
            set,
        });
        let fresh = (n + 1..n + 1 + rng.gen_range(0..6)).map(|id| row(rng, ts, id)).collect();
        change.push(Query::Insert { table: ts.id, rows: fresh });
    }
    [load, change]
}

/// One select's answer: its rows as text. `Debug` tells `Int(3)` from
/// `Float(3.0)` and `-0.0` from `0.0` where `==` does not.
type Answer = Vec<String>;

/// The executor's answers, each checked against the reference's on the
/// same context.
fn answers(ctx: &mut dyn ExecContext, selects: &[Select], what: &str) -> Vec<Answer> {
    let text = |rows: Vec<Row>| rows.iter().map(|r| format!("{r:?}")).collect::<Answer>();
    selects
        .iter()
        .map(|s| {
            let got = execute(ctx, &Query::Select(s.clone())).map(|rs| text(rs.rows));
            let want = reference::select(ctx, s).map(|rs| text(rs.rows));
            assert_eq!(got, want, "{what}: {s:?}");
            got.unwrap_or_else(|e| panic!("{what}: {s:?}: {e}"))
        })
        .collect()
}

/// A context that hands every call to `inner` and holds each scan to the
/// [`ExecContext::scan`] contract: rows in heap order from the page it
/// started at; a scan that did not read the last page kept at least
/// `want` rows, stopped right after the page that kept the `want`th and
/// resumes at the next. Counts the scans that resumed past page 0.
struct Checked<'c> {
    inner: &'c mut dyn ExecContext,
    resumes: usize,
}

impl ExecContext for Checked<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn scan(
        &mut self,
        table: TableId,
        cols: &[usize],
        keep: Option<RecordTest<'_>>,
        from: u32,
        want: usize,
    ) -> DmvResult<Scanned> {
        let got = self.inner.scan(table, cols, keep, from, want)?;
        self.resumes += usize::from(from > 0);
        let pages: Vec<u32> = got.rows.rids().iter().map(|rid| rid.page_no).collect();
        let in_heap_order = got.rows.rids().is_sorted() && pages.iter().all(|&p| p >= from);
        assert!(in_heap_order, "page, then slot, from page {from}");
        if let Some(next) = got.next {
            assert!(
                pages.len() >= want,
                "{} rows of {want}, yet more pages from {next}",
                pages.len()
            );
            let last = pages[pages.len() - 1];
            assert_eq!(next, last + 1, "resumes right after the page that kept the {want}th row");
            let before = pages.iter().filter(|&&p| p < last).count();
            assert!(before < want, "{before} rows before page {last} already made {want}");
        }
        Ok(got)
    }

    fn index_probe(
        &mut self,
        table: TableId,
        index_no: u8,
        keys: &[&[Value]],
        cols: &[usize],
    ) -> DmvResult<Probed> {
        self.inner.index_probe(table, index_no, keys, cols)
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
        self.inner.index_range(table, index_no, lo, hi, rev, limit, cols)
    }

    fn insert(&mut self, table: TableId, row: Row) -> DmvResult<RowId> {
        self.inner.insert(table, row)
    }

    fn update(&mut self, table: TableId, rid: RowId, row: Row) -> DmvResult<()> {
        self.inner.update(table, rid, row)
    }

    fn delete(&mut self, table: TableId, rid: RowId) -> DmvResult<()> {
        self.inner.delete(table, rid)
    }

    fn flush_costs(&mut self) {
        self.inner.flush_costs();
    }

    fn set_write_intent(&mut self, on: bool) {
        self.inner.set_write_intent(on);
    }
}

/// [`answers`] through a [`Checked`] context; adds its resumes to `resumes`.
fn checked_answers(
    ctx: &mut dyn ExecContext,
    selects: &[Select],
    what: &str,
    resumes: &mut usize,
) -> Vec<Answer> {
    let mut checked = Checked { inner: ctx, resumes: 0 };
    let out = answers(&mut checked, selects, what);
    *resumes += checked.resumes;
    out
}

fn assert_same(selects: &[Select], got: &[Answer], want: &[Answer], what: &str) {
    for ((s, got), want) in selects.iter().zip(got).zip(want) {
        assert_eq!(got, want, "{what}: {s:?}");
    }
}

/// Two contexts holding the same rows may store them in different
/// orders; they must still agree on the rows of every select that cuts
/// nothing off and adds up no floats (a sum of thirds depends, in its
/// last bits, on the order the rows come in).
fn assert_same_rows(selects: &[Select], got: &[Answer], want: &[Answer], what: &str) {
    let schema = schema();
    let sums_floats = |s: &Select| {
        let types = sources(&schema, s).0;
        s.group_by.iter().flat_map(|g| &g.aggs).any(|agg| match agg {
            AggFn::Sum(c) | AggFn::Avg(c) => types.get(*c) == Some(&ColType::Float),
            _ => false,
        })
    };
    let cuts = |s: &Select| {
        s.limit.is_some() || matches!(s.access, Access::IndexRange { scan_limit: Some(_), .. })
    };
    let sorted = |a: &Answer| {
        let mut a = a.clone();
        a.sort();
        a
    };
    let comparable = |s: &Select| !cuts(s) && !sums_floats(s);
    for ((s, got), want) in selects.iter().zip(got).zip(want).filter(|((s, _), _)| comparable(s)) {
        assert_eq!(sorted(got), sorted(want), "{what}: {s:?}");
    }
}

/// A read gate with one retained version: the page images captured by
/// [`OneVersionBack::capture`]. A tagged read that finds a page newer
/// than its tag is served the captured image (a page that did not exist
/// then reads as the zeroed page it was), which is what `dmv-core`'s
/// applier does from its reverse-diff history.
#[derive(Default)]
struct OneVersionBack {
    images: Mutex<HashMap<PageId, Vec<u8>>>,
}

impl OneVersionBack {
    fn capture(&self, db: &MemDb) {
        let store = db.store();
        *self.images.lock().unwrap() = store
            .page_ids()
            .into_iter()
            .map(|id| (id, store.get(id).unwrap().latch.read().data().to_vec()))
            .collect();
    }
}

impl ReadGate for OneVersionBack {
    fn prepare_read(&self, _: PageId, _: &PageCell, _: &VersionVector) -> DmvResult<()> {
        Ok(())
    }

    fn read_version_at(&self, id: PageId, _: &PageCell, _: u64) -> Option<Vec<u8>> {
        Some(self.images.lock().unwrap().get(&id).cloned().unwrap_or_else(|| vec![0; PAGE_SIZE]))
    }
}

/// Runs `statements` as one transaction committed at the next version of
/// every table it wrote.
fn commit(db: &MemDb, version: &mut VersionVector, statements: &[Query]) {
    let mut txn = db.begin_update();
    for q in statements {
        execute(&mut txn, q).unwrap();
    }
    txn.precommit();
    for table in txn.write_tables() {
        version.bump(table);
    }
    txn.try_commit(Some(version)).unwrap();
}

/// `mock`: the mock's answers after each of the two transactions.
/// Returns how many scans resumed past page 0.
fn check_on_memdb(
    mode: ConcurrencyMode,
    history: &[Vec<Query>; 2],
    selects: &[Select],
    mock: &[Vec<Answer>; 2],
) -> usize {
    let what = |kind: &str| format!("{mode:?} {kind}");
    let resumes = Cell::new(0);
    let check = |mut txn: Txn<'_>, kind: &str| {
        let mut n = resumes.get();
        let out = checked_answers(&mut txn, selects, &what(kind), &mut n);
        resumes.set(n);
        txn.commit(None);
        out
    };
    let db = MemDb::new(schema(), MemDbOptions { concurrency: mode, ..MemDbOptions::default() });
    let gate = Arc::new(OneVersionBack::default());
    db.set_gate(gate.clone());
    let mut version = VersionVector::new(3);
    commit(&db, &mut version, &history[0]);
    let loaded = version.clone();
    let at_load = check(db.begin_read_local(), "local read");
    assert_same_rows(selects, &at_load, &mock[0], &what("vs mock"));
    assert_same(selects, &check(db.begin_update(), "update txn"), &at_load, &what("update txn"));
    let tagged = check(db.begin_read_tagged(loaded.clone()), "tagged read, current");
    assert_same(selects, &tagged, &at_load, &what("tagged read, current"));

    gate.capture(&db);
    commit(&db, &mut version, &history[1]);
    // The old tag still reads exactly what it read before the change …
    let tagged = check(db.begin_read_tagged(loaded), "tagged read, one version back");
    assert_same(selects, &tagged, &at_load, &what("tagged read, one version back"));
    // … and the changed tables answer consistently too.
    let changed = check(db.begin_read_local(), "local read after the change");
    assert_same_rows(selects, &changed, &mock[1], &what("vs mock after the change"));
    let tagged = check(db.begin_read_tagged(version), "tagged read after the change");
    assert_same(selects, &tagged, &changed, &what("tagged read after the change"));
    resumes.get()
}

/// Resumed scans in one case, on the mock and per mode on `MemDb`.
#[derive(Debug, Default)]
struct Resumes {
    mock: usize,
    two_phase: usize,
    mvcc: usize,
}

/// One case of the differential test: the tables and selects drawn from
/// `seed`, answered on the mock and on `MemDb` in both modes.
fn check_case(seed: u64) -> Resumes {
    let mut rng = seeded(seed);
    let schema = schema();
    let history = history(&mut rng, &schema);
    let selects: Vec<Select> = (0..30).map(|_| select(&mut rng, &schema)).collect();

    let mut resumes = Resumes::default();
    let mut mock = MockContext::new(schema);
    let mock_answers = [0, 1].map(|i| {
        for q in &history[i] {
            execute(&mut mock, q).unwrap();
        }
        checked_answers(&mut mock, &selects, "mock", &mut resumes.mock)
    });
    resumes.two_phase =
        check_on_memdb(ConcurrencyMode::TwoPhase, &history, &selects, &mock_answers);
    resumes.mvcc = check_on_memdb(ConcurrencyMode::MvccCow, &history, &selects, &mock_answers);
    resumes
}

/// The generator reaches a resumed scan, on the mock and on the heap
/// pages of `MemDb` in both modes — or a resume that reads the wrong page
/// could not show in [`executor_matches_reference`].
#[test]
fn the_generator_resumes_scans() {
    let mut total = Resumes::default();
    for seed in 0..20 {
        let case = check_case(seed);
        total.mock += case.mock;
        total.two_phase += case.two_phase;
        total.mvcc += case.mvcc;
    }
    assert!(total.mock > 0 && total.two_phase > 0 && total.mvcc > 0, "{total:?}");
}

proptest! {
    // The release build is the long run (CI's "release build" step).
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 40 } else { 400 }))]

    #[test]
    fn executor_matches_reference(seed in 0u64..u64::MAX) {
        check_case(seed);
    }
}
