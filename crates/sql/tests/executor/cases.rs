//! Hand-written statements with known answers, on the mock context.

use crate::mock::MockContext;
use crate::reference;
use dmv_common::error::DmvError;
use dmv_common::ids::TableId;
use dmv_sql::exec::{execute, ExecContext};
use dmv_sql::query::{Access, AggFn, CmpOp, Expr, Join, Query, Select, SetExpr};
use dmv_sql::row::Row;
use dmv_sql::schema::{ColType, Column, IndexDef, Schema, TableSchema};
use dmv_sql::value::Value;

fn schema() -> Schema {
    Schema::new(vec![
        TableSchema::new(
            TableId(0),
            "item",
            vec![
                Column::new("i_id", ColType::Int),
                Column::new("i_title", ColType::Str),
                Column::new("i_a_id", ColType::Int),
                Column::new("i_stock", ColType::Int),
            ],
            vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_author", vec![2])],
        ),
        TableSchema::new(
            TableId(1),
            "author",
            vec![Column::new("a_id", ColType::Int), Column::new("a_name", ColType::Str)],
            vec![IndexDef::unique("pk", vec![0])],
        ),
        TableSchema::new(
            TableId(2),
            "order_line",
            vec![
                Column::new("ol_id", ColType::Int),
                Column::new("ol_o_id", ColType::Int),
                Column::new("ol_i_id", ColType::Int),
                Column::new("ol_qty", ColType::Int),
            ],
            vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_order", vec![1])],
        ),
    ])
}

fn ctx_with_data() -> MockContext {
    let mut ctx = MockContext::new(schema());
    let items: Vec<Row> = vec![
        vec![1.into(), "alpha book".into(), 10.into(), 5.into()],
        vec![2.into(), "beta book".into(), 10.into(), 3.into()],
        vec![3.into(), "gamma tome".into(), 11.into(), 0.into()],
    ];
    for r in items {
        ctx.insert(TableId(0), r).unwrap();
    }
    ctx.insert(TableId(1), vec![10.into(), "Knuth".into()]).unwrap();
    ctx.insert(TableId(1), vec![11.into(), "Lamport".into()]).unwrap();
    // order lines: order 1 has items 1x2, 2x1; order 2 has item 1x4, 3x7
    let ols: Vec<Row> = vec![
        vec![100.into(), 1.into(), 1.into(), 2.into()],
        vec![101.into(), 1.into(), 2.into(), 1.into()],
        vec![102.into(), 2.into(), 1.into(), 4.into()],
        vec![103.into(), 2.into(), 3.into(), 7.into()],
    ];
    for r in ols {
        ctx.insert(TableId(2), r).unwrap();
    }
    ctx
}

#[test]
fn point_select_by_pk() {
    let mut ctx = ctx_with_data();
    let q = Query::Select(Select::by_pk(TableId(0), vec![2.into()]));
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][1], Value::from("beta book"));
}

#[test]
fn auto_access_picks_index() {
    let mut ctx = ctx_with_data();
    let q = Query::Select(Select::scan(TableId(0)).access(Access::Auto).filter(Expr::eq(0, 3)));
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(3));
    assert_eq!(ctx.probes, [(TableId(0), 1)], "one key probed, no scan");
}

#[test]
fn like_filter_scan() {
    let mut ctx = ctx_with_data();
    let q = Query::Select(Select::scan(TableId(0)).filter(Expr::like(1, "%book%")));
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn join_with_index() {
    let mut ctx = ctx_with_data();
    // item join author on i_a_id = a_id
    let q = Query::Select(
        Select::scan(TableId(0))
            .join(Join { table: TableId(1), left_col: 2, right_col: 0, right_index: Some(0) })
            .project(vec![1, 5]), // title, author name
    );
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert!(rs
        .rows
        .iter()
        .any(|r| r[0] == Value::from("gamma tome") && r[1] == Value::from("Lamport")));
}

#[test]
fn join_without_index_falls_back_to_scan() {
    let mut ctx = ctx_with_data();
    let q = Query::Select(Select::scan(TableId(0)).join(Join {
        table: TableId(1),
        left_col: 2,
        right_col: 0,
        right_index: None,
    }));
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0].len(), 6);
}

#[test]
fn bestsellers_shape_group_sum_order_limit() {
    let mut ctx = ctx_with_data();
    // order_line (ol_o_id >= 1) join item, group by i_id+title, sum qty,
    // order by sum desc limit 2
    let q = Query::Select(
        Select::scan(TableId(2))
            .access(Access::IndexRange {
                index_no: 1,
                lo: Some((vec![1.into()], true)),
                hi: None,
                rev: false,
                scan_limit: None,
            })
            .join(Join { table: TableId(0), left_col: 2, right_col: 0, right_index: Some(0) })
            // joined row: ol(4 cols) ++ item(4 cols) -> i_id=4, i_title=5
            .group(vec![4, 5], vec![AggFn::Sum(3)])
            .order_by(2, true)
            .limit(2),
    );
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.rows.len(), 2);
    // item 3 sold 7, item 1 sold 6, item 2 sold 1
    assert_eq!(rs.rows[0][0], Value::Int(3));
    assert_eq!(rs.rows[0][2], Value::Int(7));
    assert_eq!(rs.rows[1][0], Value::Int(1));
    assert_eq!(rs.rows[1][2], Value::Int(6));
}

#[test]
fn aggregates_count_avg_min_max() {
    let mut ctx = ctx_with_data();
    let q = Query::Select(
        Select::scan(TableId(2))
            .group(vec![], vec![AggFn::Count, AggFn::Avg(3), AggFn::Min(3), AggFn::Max(3)]),
    );
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(4));
    assert_eq!(rs.rows[0][1], Value::Float(3.5));
    assert_eq!(rs.rows[0][2], Value::Int(1));
    assert_eq!(rs.rows[0][3], Value::Int(7));
}

#[test]
fn index_range_desc_with_scan_limit() {
    let mut ctx = ctx_with_data();
    let q = Query::Select(Select::scan(TableId(0)).access(Access::IndexRange {
        index_no: 0,
        lo: None,
        hi: None,
        rev: true,
        scan_limit: Some(2),
    }));
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], Value::Int(3));
    assert_eq!(rs.rows[1][0], Value::Int(2));
}

#[test]
fn update_with_add_int() {
    let mut ctx = ctx_with_data();
    let q = Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 1)),
        set: vec![(3, SetExpr::AddInt(-2))],
    };
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.affected, 1);
    let check =
        execute(&mut ctx, &Query::Select(Select::by_pk(TableId(0), vec![1.into()]))).unwrap();
    assert_eq!(check.rows[0][3], Value::Int(3));
}

#[test]
fn update_set_value_and_float_add() {
    let mut ctx = ctx_with_data();
    let q = Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 2)),
        set: vec![(1, SetExpr::Value("renamed".into()))],
    };
    assert_eq!(execute(&mut ctx, &q).unwrap().affected, 1);
    let bad = Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 2)),
        set: vec![(1, SetExpr::AddInt(1))],
    };
    assert!(execute(&mut ctx, &bad).is_err(), "AddInt on a string must fail");
}

#[test]
fn delete_with_filter() {
    let mut ctx = ctx_with_data();
    let q = Query::Delete { table: TableId(2), access: Access::Auto, filter: Some(Expr::eq(1, 1)) };
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.affected, 2);
    let left = execute(&mut ctx, &Query::Select(Select::scan(TableId(2)))).unwrap();
    assert_eq!(left.rows.len(), 2);
}

#[test]
fn update_and_delete_apply_the_filter_to_what_the_access_path_reaches() {
    let mut ctx = ctx_with_data();
    // A full scan reaches every item; only the one in stock at 3 changes.
    let q = Query::Update {
        table: TableId(0),
        access: Access::FullScan,
        filter: Some(Expr::eq(3, 3)),
        set: vec![(3, SetExpr::AddInt(10))],
    };
    assert_eq!(execute(&mut ctx, &q).unwrap().affected, 1);
    let stock =
        execute(&mut ctx, &Query::Select(Select::scan(TableId(0)).project(vec![3]))).unwrap();
    assert_eq!(stock.rows, [[Value::Int(5)], [Value::Int(13)], [Value::Int(0)]]);
    let q = Query::Delete {
        table: TableId(0),
        access: Access::IndexRange {
            index_no: 0,
            lo: None,
            hi: None,
            rev: false,
            scan_limit: None,
        },
        filter: Some(Expr::like(1, "%book")),
    };
    assert_eq!(execute(&mut ctx, &q).unwrap().affected, 2);
    let left = execute(&mut ctx, &Query::Select(Select::scan(TableId(0)))).unwrap();
    assert_eq!(left.rows.len(), 1);
    assert_eq!(left.rows[0][1], Value::from("gamma tome"));
}

#[test]
fn insert_validates_and_detects_duplicates() {
    let mut ctx = ctx_with_data();
    let bad_arity = Query::Insert { table: TableId(1), rows: vec![vec![Value::Int(1)]] };
    assert!(matches!(execute(&mut ctx, &bad_arity), Err(DmvError::Schema(_))));
    let dup = Query::Insert { table: TableId(1), rows: vec![vec![10.into(), "Dup".into()]] };
    assert!(matches!(execute(&mut ctx, &dup), Err(DmvError::DuplicateKey(_))));
}

#[test]
fn order_by_multiple_keys() {
    let mut ctx = ctx_with_data();
    // order items by author asc, stock desc
    let q = Query::Select(Select::scan(TableId(0)).order_by(2, false).order_by(3, true));
    let rs = execute(&mut ctx, &q).unwrap();
    let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![1, 2, 3]);
}

#[test]
fn scalar_helper() {
    let mut ctx = ctx_with_data();
    let q = Query::Select(Select::by_pk(TableId(1), vec![10.into()]).project(vec![1]));
    let rs = execute(&mut ctx, &q).unwrap();
    assert_eq!(rs.scalar(), Some(&Value::from("Knuth")));
}

#[test]
fn filter_comparison_ops() {
    let mut ctx = ctx_with_data();
    let q = Query::Select(Select::scan(TableId(0)).filter(Expr::cmp(3, CmpOp::Ge, 3)));
    assert_eq!(execute(&mut ctx, &q).unwrap().rows.len(), 2);
    let q = Query::Select(Select::scan(TableId(0)).filter(Expr::cmp(3, CmpOp::Lt, 3)));
    assert_eq!(execute(&mut ctx, &q).unwrap().rows.len(), 1);
}

/// The reads of `table` the context has served, as their column sets.
fn reads_of(ctx: &MockContext, table: u16) -> Vec<&[usize]> {
    ctx.reads.iter().filter(|(t, _)| *t == TableId(table)).map(|(_, c)| c.as_slice()).collect()
}

fn item_author_join() -> Join {
    Join { table: TableId(1), left_col: 2, right_col: 0, right_index: Some(0) }
}

#[test]
fn reads_ask_for_the_columns_the_statement_uses() {
    let mut ctx = ctx_with_data();
    // The BestSellers shape: join key and summed quantity from the order
    // lines, group columns (and nothing else) from the items.
    let q = Select::scan(TableId(2))
        .join(Join { table: TableId(0), left_col: 2, right_col: 0, right_index: Some(0) })
        .group(vec![4, 5], vec![AggFn::Sum(3)])
        .order_by(2, true)
        .limit(2);
    execute(&mut ctx, &Query::Select(q)).unwrap();
    assert_eq!(reads_of(&ctx, 2), [&[2, 3]]);
    assert!(reads_of(&ctx, 0).iter().all(|cols| *cols == [0, 1]));

    // Filter, sort key and projection count; an existence-only join asks
    // its table for no column at all.
    ctx.reads.clear();
    let q = Select::scan(TableId(0))
        .join(item_author_join())
        .filter(Expr::cmp(3, CmpOp::Ge, 0))
        .order_by(1, false)
        .project(vec![0]);
    execute(&mut ctx, &Query::Select(q)).unwrap();
    assert_eq!(reads_of(&ctx, 0), [&[0, 1, 2, 3]]);
    assert!(reads_of(&ctx, 1).iter().all(|cols| cols.is_empty()));

    // No projection: every column of every table.
    ctx.reads.clear();
    execute(&mut ctx, &Query::Select(Select::scan(TableId(0)).join(item_author_join()))).unwrap();
    assert_eq!(reads_of(&ctx, 0), [&[0, 1, 2, 3]]);
    assert!(reads_of(&ctx, 1).iter().all(|cols| *cols == [0, 1]));
}

/// The probes of `table` the context has served, as their key counts.
fn probes_of(ctx: &MockContext, table: u16) -> Vec<usize> {
    ctx.probes.iter().filter(|(t, _)| *t == TableId(table)).map(|&(_, keys)| keys).collect()
}

#[test]
fn base_only_conjuncts_run_before_the_first_probe() {
    let mut ctx = ctx_with_data();
    // Three items, one passes the title filter: one author key probed,
    // though the filter also has a conjunct on the joined author.
    let q = Select::scan(TableId(0))
        .join(item_author_join())
        .filter(Expr::like(1, "gamma%").and(Expr::like(5, "L%")));
    let rs = execute(&mut ctx, &Query::Select(q)).unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(probes_of(&ctx, 1), [1]);
}

#[test]
fn a_join_resolves_its_distinct_keys_in_one_probe() {
    let mut ctx = ctx_with_data();
    // Four order lines over three distinct items.
    let lines_items = Select::scan(TableId(2)).join(Join {
        table: TableId(0),
        left_col: 2,
        right_col: 0,
        right_index: Some(0),
    });
    assert_eq!(execute(&mut ctx, &Query::Select(lines_items.clone())).unwrap().rows.len(), 4);
    assert_eq!(probes_of(&ctx, 0), [3]);
    // The BestSellers shape: the second join's key lives in the first
    // join's rows — three items by two authors — and the select consumes
    // every tuple, so each join is one probe of its distinct keys.
    ctx.probes.clear();
    let q = lines_items
        .join(Join { table: TableId(1), left_col: 4 + 2, right_col: 0, right_index: Some(0) })
        .group(vec![4, 5], vec![AggFn::Sum(3)])
        .order_by(2, true)
        .limit(2);
    let rs = execute(&mut ctx, &Query::Select(q)).unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(3), "gamma tome".into(), Value::Int(7)]);
    assert_eq!(rs.rows[1], vec![Value::Int(1), "alpha book".into(), Value::Int(6)]);
    assert_eq!(ctx.probes, [(TableId(0), 3), (TableId(1), 2)]);
}

#[test]
fn limit_without_order_stops_reading() {
    let mut ctx = ctx_with_data();
    let q = Select::scan(TableId(0)).join(item_author_join()).limit(1);
    assert_eq!(execute(&mut ctx, &Query::Select(q)).unwrap().rows.len(), 1);
    assert_eq!(probes_of(&ctx, 1), [1], "the second and third item are never probed");
    // A block is as many base rows as output rows are wanted: two items
    // by one author are one key, and the third item is never looked at.
    ctx.probes.clear();
    let q = Select::scan(TableId(0)).join(item_author_join()).limit(2);
    assert_eq!(execute(&mut ctx, &Query::Select(q)).unwrap().rows.len(), 2);
    assert_eq!(probes_of(&ctx, 1), [1]);
    // A block that leaves the limit unfilled is followed by another: the
    // filter on the joined author drops the first two items' tuples.
    ctx.probes.clear();
    let q = Select::scan(TableId(0)).join(item_author_join()).filter(Expr::like(5, "L%")).limit(2);
    let rs = execute(&mut ctx, &Query::Select(q)).unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(3));
    assert_eq!(probes_of(&ctx, 1), [1, 1]);
    // An ORDER BY needs every row before the first can be returned.
    ctx.probes.clear();
    let q = Select::scan(TableId(0)).join(item_author_join()).order_by(0, true).limit(1);
    let rs = execute(&mut ctx, &Query::Select(q)).unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(3));
    assert_eq!(probes_of(&ctx, 1), [2], "two distinct authors, one probe");
    ctx.reads.clear();
    let q = Select::scan(TableId(0)).join(item_author_join()).limit(0);
    assert!(execute(&mut ctx, &Query::Select(q)).unwrap().rows.is_empty());
    assert!(ctx.reads.is_empty());
}

#[test]
fn a_fan_out_join_under_a_limit_keeps_nested_loop_order() {
    let mut ctx = ctx_with_data();
    // Authors ⋈ their items through the non-unique index: Knuth has two
    // items, Lamport one. Three rows wanted: both authors are one block.
    let by_author = Join { table: TableId(0), left_col: 0, right_col: 2, right_index: Some(1) };
    let q = Select::scan(TableId(1)).join(by_author).limit(3).project(vec![1, 2]);
    let rs = execute(&mut ctx, &Query::Select(q.clone())).unwrap();
    let want: Vec<Row> = vec![
        vec!["Knuth".into(), 1.into()],
        vec!["Knuth".into(), 2.into()],
        vec!["Lamport".into(), 3.into()],
    ];
    assert_eq!(rs.rows, want);
    assert_eq!(probes_of(&ctx, 0), [2]);
    // One row wanted: one author, one key; its second match is cut off.
    ctx.probes.clear();
    let rs = execute(&mut ctx, &Query::Select(q.limit(1))).unwrap();
    assert_eq!(rs.rows, want[..1]);
    assert_eq!(probes_of(&ctx, 0), [1]);
}

#[test]
fn a_whole_row_scan_hands_over_every_value_once() {
    let mut ctx = ctx_with_data();
    // The plain scan moves values out of the batch it read; a filter and
    // a limit in front of it must not disturb which rows those are.
    let q = Select::scan(TableId(0)).filter(Expr::cmp(3, CmpOp::Lt, 5)).limit(2);
    let rs = execute(&mut ctx, &Query::Select(q)).unwrap();
    let want: Vec<Row> = vec![
        vec![2.into(), "beta book".into(), 10.into(), 3.into()],
        vec![3.into(), "gamma tome".into(), 11.into(), 0.into()],
    ];
    assert_eq!(rs.rows, want);
}

/// Ten items, each its own heap page in the mock (item `n` on page
/// `n - 1`); the titles of items 2, 4, 5, 8 and 9 hold "book". Even items
/// are by author 10, odd ones by 11 — except item 5, whose author 99 does
/// not exist.
fn shelf() -> MockContext {
    let mut ctx = MockContext::new(schema());
    for id in 1..=10i64 {
        let word = if [2, 4, 5, 8, 9].contains(&id) { "book" } else { "tome" };
        let author = if id == 5 { 99 } else { 10 + id % 2 };
        let row = vec![id.into(), format!("{word} {id}").into(), author.into(), id.into()];
        ctx.insert(TableId(0), row).unwrap();
    }
    ctx.insert(TableId(1), vec![10.into(), "Knuth".into()]).unwrap();
    ctx.insert(TableId(1), vec![11.into(), "Lamport".into()]).unwrap();
    ctx
}

/// The items whose title holds "book", by id.
fn books() -> Select {
    Select::scan(TableId(0)).filter(Expr::like(1, "%book%")).project(vec![0])
}

#[test]
fn a_like_scan_under_a_bare_limit_stops_at_the_page_that_fills_the_limit() {
    let mut ctx = shelf();
    // Two books wanted: the second is item 4, on page 3.
    let rs = execute(&mut ctx, &Query::Select(books().limit(2))).unwrap();
    assert_eq!(rs.rows, [ints(&[2]), ints(&[4])]);
    assert_eq!((ctx.examined, ctx.decoded, ctx.resumes), (4, 2, 0));
    // Three wanted through the author join: the first fetch keeps items 2,
    // 4 and 5 and stops after page 4; the join drops item 5, so a second
    // fetch from page 5 keeps one more book, item 8 on page 7.
    let mut ctx = shelf();
    let q = books().join(item_author_join()).limit(3);
    let rs = execute(&mut ctx, &Query::Select(q)).unwrap();
    assert_eq!(rs.rows, [ints(&[2]), ints(&[4]), ints(&[8])]);
    assert_eq!((ctx.examined, ctx.decoded, ctx.resumes), (8, 4, 1));
    assert_eq!(reads_of(&ctx, 0), [&[0, 1, 2], &[0, 1, 2]], "two fetches of one scan");
}

#[test]
fn a_like_scan_under_order_by_or_group_by_examines_every_record() {
    let mut ctx = shelf();
    let rs = execute(&mut ctx, &Query::Select(books().order_by(0, true).limit(2))).unwrap();
    assert_eq!(rs.rows, [ints(&[9]), ints(&[8])]);
    assert_eq!((ctx.examined, ctx.decoded), (10, 5));
    // Books per author; the first group is author 10's, with items 2, 4, 8.
    let mut ctx = shelf();
    let q = books().project(vec![0, 1]).group(vec![2], vec![AggFn::Count]).limit(1);
    let rs = execute(&mut ctx, &Query::Select(q)).unwrap();
    assert_eq!(rs.rows, [ints(&[10, 3])]);
    assert_eq!((ctx.examined, ctx.decoded), (10, 5));
}

#[test]
fn a_rejected_record_is_never_decoded() {
    let mut ctx = shelf();
    let q = books().filter(Expr::like(1, "%book%").and(Expr::cmp(3, CmpOp::Ge, 5)));
    let rs = execute(&mut ctx, &Query::Select(q)).unwrap();
    assert_eq!(rs.rows, [ints(&[5]), ints(&[8]), ints(&[9])]);
    // Ten records tested on their bytes, three decoded, in one read of the
    // projected and the tested columns.
    assert_eq!((ctx.examined, ctx.decoded), (10, 3));
    assert_eq!(reads_of(&ctx, 0), [&[0, 1, 3]]);
}

#[test]
fn a_filter_on_more_columns_than_a_record_test_holds_runs_after_decoding() {
    let cols = (0..10).map(|i| Column::new(&format!("c{i}"), ColType::Int)).collect();
    let pk = vec![IndexDef::unique("pk", vec![0])];
    let mut ctx =
        MockContext::new(Schema::new(vec![TableSchema::new(TableId(0), "wide", cols, pk)]));
    for id in 0..6i64 {
        ctx.insert(TableId(0), (0..10).map(|c| Value::Int(id + c)).collect()).unwrap();
    }
    // Nine columns, each at least 2 — rows 2 to 5 — of which the first two.
    let f = (1..10).map(|c| Expr::cmp(c, CmpOp::Ge, c as i64 + 2)).reduce(Expr::and).unwrap();
    let s = Select::scan(TableId(0)).filter(f).project(vec![0]).limit(2);
    let want = reference::select(&mut ctx, &s).unwrap();
    (ctx.examined, ctx.decoded) = (0, 0);
    let rs = execute(&mut ctx, &Query::Select(s)).unwrap();
    assert_eq!((&rs.rows, &want.rows), (&vec![ints(&[2]), ints(&[3])], &want.rows));
    // No record test: every record the scan looks at is decoded, and it
    // looks at rows until two are kept, untested — then the filter drops
    // them and it looks at two more.
    assert_eq!((ctx.examined, ctx.decoded), (4, 4));
}

#[test]
fn update_and_delete_with_a_full_scan_filter_reach_every_row() {
    let mut ctx = shelf();
    let set = vec![(3, SetExpr::AddInt(100))];
    let q =
        Query::Update { table: TableId(0), access: Access::FullScan, filter: books().filter, set };
    assert_eq!(execute(&mut ctx, &q).unwrap().affected, 5);
    assert_eq!((ctx.examined, ctx.decoded), (10, 10), "every row read whole, the filter after");
    let filter = Some(Expr::like(1, "tome%"));
    let q = Query::Delete { table: TableId(0), access: Access::Auto, filter };
    assert_eq!(execute(&mut ctx, &q).unwrap().affected, 5);
    let rs = execute(&mut ctx, &Query::Select(Select::scan(TableId(0)).project(vec![0, 3])));
    let left = [[2, 102], [4, 104], [5, 105], [8, 108], [9, 109]];
    assert_eq!(rs.unwrap().rows, left.map(|pair| ints(&pair)));
}

// Grouped selects over joins: where the executor may aggregate below the
// joins and where it may not. Nothing the engine is asked tells the two
// paths apart, so every case is checked against the reference evaluator
// on data that a wrongly collapsed statement answers differently.

const LINE: TableId = TableId(0);
const ITEM: TableId = TableId(1);
const AUTHOR: TableId = TableId(2);
// Flat columns of line ⋈ item ⋈ author.
const L_I: usize = 1;
const L_A: usize = 2;
const L_QTY: usize = 3;
const L_F: usize = 4;
const I_ID: usize = 5;
const I_A: usize = 6;
const I_STOCK: usize = 8;
const A_NAME: usize = 10;

fn sales_schema() -> Schema {
    let int = |name: &str| Column::nullable(name, ColType::Int);
    Schema::new(vec![
        TableSchema::new(
            LINE,
            "line",
            vec![
                int("l_id"),
                int("l_i"),
                int("l_a"),
                int("l_qty"),
                Column::nullable("l_f", ColType::Float),
            ],
            vec![IndexDef::unique("pk", vec![0])],
        ),
        TableSchema::new(
            ITEM,
            "item",
            vec![int("i_id"), int("i_a"), Column::new("i_title", ColType::Str), int("i_stock")],
            vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_a", vec![1])],
        ),
        TableSchema::new(
            AUTHOR,
            "author",
            vec![int("a_id"), Column::new("a_name", ColType::Str)],
            vec![IndexDef::unique("pk", vec![0])],
        ),
    ])
}

/// Items 1–3 by author 10, item 4 by 11, item 5 by nobody; author 12
/// wrote nothing and item 9 does not exist. Item 1 sells in lines 1 and
/// 3, item 2 in lines 2 and 7; line 4 has NULL keys, line 5 keys that
/// match nothing.
fn sales() -> MockContext {
    let mut ctx = MockContext::new(sales_schema());
    let null = || Value::Null;
    let items: [(i64, Value, &str, i64); 5] = [
        (1, 10.into(), "t1", 3),
        (2, 10.into(), "t2", 3),
        (3, 10.into(), "t3", 9),
        (4, 11.into(), "t4", 1),
        (5, null(), "t5", 2),
    ];
    for (id, a, title, stock) in items {
        ctx.insert(ITEM, vec![id.into(), a, title.into(), stock.into()]).unwrap();
    }
    ctx.insert(AUTHOR, vec![10.into(), "Knuth".into()]).unwrap();
    ctx.insert(AUTHOR, vec![11.into(), "Lamport".into()]).unwrap();
    let lines: [(i64, Value, Value, i64, Value); 7] = [
        (1, 1.into(), 10.into(), 2, 0.3.into()),
        (2, 2.into(), 11.into(), 1, 0.2.into()),
        (3, 1.into(), 10.into(), 4, 0.1.into()),
        (4, null(), null(), 100, 1.0.into()),
        (5, 9.into(), 12.into(), 50, 2.0.into()),
        (6, 4.into(), 10.into(), 7, 0.7.into()),
        (7, 2.into(), 12.into(), 1, null()),
    ];
    for (id, i, a, qty, f) in lines {
        ctx.insert(LINE, vec![id.into(), i, a, qty.into(), f]).unwrap();
    }
    ctx
}

/// line ⋈ item on the item's primary key.
fn line_item() -> Select {
    Select::scan(LINE).join(Join { table: ITEM, left_col: L_I, right_col: 0, right_index: Some(0) })
}

/// line ⋈ item through the non-unique author index: key 10 matches three items.
fn line_items_of_author() -> Select {
    Select::scan(LINE).join(Join { table: ITEM, left_col: L_A, right_col: 1, right_index: Some(1) })
}

fn item_author(left_col: usize) -> Join {
    Join { table: AUTHOR, left_col, right_col: 0, right_index: Some(0) }
}

/// What one select asked of the context and what it answered.
#[derive(Debug, PartialEq)]
struct Run {
    rows: Vec<Row>,
    /// The tables read, in order.
    reads: Vec<TableId>,
    /// How many keys each probe held: they ascend strictly (the mock
    /// checks), so each distinct key was asked for once.
    probes: Vec<usize>,
}

/// Runs `s`, which must answer as the reference evaluator does — to the
/// bit: `Debug` tells `Int(3)` from `Float(3.0)`.
fn run(ctx: &mut MockContext, s: &Select) -> Run {
    let want = reference::select(ctx, s).unwrap();
    ctx.reads.clear();
    ctx.probes.clear();
    let got = execute(ctx, &Query::Select(s.clone())).unwrap();
    assert_eq!(format!("{:?}", got.rows), format!("{:?}", want.rows), "{s:?}");
    Run {
        rows: got.rows,
        reads: ctx.reads.iter().map(|&(table, _)| table).collect(),
        probes: ctx.probes.iter().map(|&(_, keys)| keys).collect(),
    }
}

fn ints(row: &[i64]) -> Row {
    row.iter().map(|&i| Value::Int(i)).collect()
}

#[test]
fn a_key_matching_three_rows_merges_every_aggregate_into_each() {
    let mut ctx = sales();
    let aggs = || {
        vec![
            AggFn::Count,
            AggFn::Sum(L_QTY),
            AggFn::Avg(L_QTY),
            AggFn::Min(L_QTY),
            AggFn::Max(L_QTY),
        ]
    };
    // Lines 1, 3 and 6 carry author 10, who has three items; lines 2
    // carries 11 with one. Per item: its author's lines.
    let got = run(&mut ctx, &line_items_of_author().group(vec![I_ID], aggs()));
    let of_10 = |id: i64| {
        vec![id.into(), 3.into(), 13.into(), Value::Float(13.0 / 3.0), 2.into(), 7.into()]
    };
    let of_11 = vec![4.into(), 1.into(), 1.into(), Value::Float(1.0), 1.into(), 1.into()];
    assert_eq!(got.rows, [of_10(1), of_10(2), of_10(3), of_11]);
    // One read of the lines, one probe of the three distinct non-NULL
    // author keys (12 matches nothing).
    assert_eq!((got.reads, got.probes), (vec![LINE, ITEM], vec![3]));
    // Per author, the three items fall into one group: each partial is
    // merged three times.
    let got = run(&mut ctx, &line_items_of_author().group(vec![I_A], aggs()));
    let knuth = vec![10.into(), 9.into(), 39.into(), Value::Float(39.0 / 9.0), 2.into(), 7.into()];
    let lamport = vec![11.into(), 1.into(), 1.into(), Value::Float(1.0), 1.into(), 1.into()];
    assert_eq!(got.rows, [knuth, lamport]);
}

#[test]
fn an_aggregate_over_a_joined_column_joins_every_row() {
    let mut ctx = sales();
    let below = run(&mut ctx, &line_item().group(vec![I_ID], vec![AggFn::Sum(L_QTY)]));
    assert_eq!(below.rows, [ints(&[1, 6]), ints(&[2, 2]), ints(&[4, 7])]);
    // The stock is not the representative's to add up: once per line.
    let every = run(&mut ctx, &line_item().group(vec![I_ID], vec![AggFn::Sum(I_STOCK)]));
    assert_eq!(every.rows, [ints(&[1, 6]), ints(&[2, 6]), ints(&[4, 1])]);
    assert_eq!((&below.reads, &below.probes), (&vec![LINE, ITEM], &vec![4]), "items 1, 2, 4 and 9");
    assert_eq!((every.reads, every.probes), (below.reads, below.probes));
}

#[test]
fn a_group_column_from_the_base_table_joins_every_row() {
    let mut ctx = sales();
    // Item 2 sells in lines 2 and 7, on two different `l_a`.
    let every = run(&mut ctx, &line_item().group(vec![L_A, I_ID], vec![AggFn::Count]));
    assert_eq!(
        every.rows,
        [ints(&[10, 1, 2]), ints(&[11, 2, 1]), ints(&[10, 4, 1]), ints(&[12, 2, 1])]
    );
    let below = run(&mut ctx, &line_item().group(vec![I_A, I_ID], vec![AggFn::Count]));
    assert_eq!(below.rows, [ints(&[10, 1, 2]), ints(&[10, 2, 2]), ints(&[11, 4, 1])]);
    assert_eq!((every.reads, every.probes), (below.reads, below.probes));
}

#[test]
fn a_second_join_keyed_on_a_base_column_joins_every_row() {
    let mut ctx = sales();
    // Keyed on the line's own `l_a`: line 7 of item 2 names author 12,
    // who does not exist, though the item's first line passes.
    let every =
        run(&mut ctx, &line_item().join(item_author(L_A)).group(vec![I_ID], vec![AggFn::Count]));
    assert_eq!(every.rows, [ints(&[1, 2]), ints(&[2, 1]), ints(&[4, 1])]);
    assert_eq!((every.reads, every.probes), (vec![LINE, ITEM, AUTHOR], vec![4, 3]));
    // Keyed on the item's author, the second join is the same for all
    // lines of an item.
    let below = run(
        &mut ctx,
        &line_item().join(item_author(I_A)).group(vec![I_ID, A_NAME], vec![AggFn::Count]),
    );
    let row = |id: i64, name: &str, n: i64| vec![id.into(), name.into(), n.into()];
    assert_eq!(below.rows, [row(1, "Knuth", 2), row(2, "Knuth", 2), row(4, "Lamport", 1)]);
    assert_eq!((below.reads, below.probes), (vec![LINE, ITEM, AUTHOR], vec![4, 2]));
}

#[test]
fn a_later_conjunct_on_a_base_column_joins_every_row() {
    let mut ctx = sales();
    // Item 1 has 3 in stock: its first line (2) fails, its second (4) passes.
    let sold_out = Expr::Cmp(CmpOp::Ge, Box::new(Expr::Col(L_QTY)), Box::new(Expr::Col(I_STOCK)));
    let every =
        run(&mut ctx, &line_item().filter(sold_out).group(vec![I_ID], vec![AggFn::Sum(L_QTY)]));
    assert_eq!(every.rows, [ints(&[1, 4]), ints(&[4, 7])]);
    // A later conjunct on the item alone, and a base-only one, leave the
    // statement collapsible: the base-only one runs before the collapse.
    let f = Expr::cmp(I_STOCK, CmpOp::Ge, 3).and(Expr::cmp(L_QTY, CmpOp::Ge, 2));
    let below = run(&mut ctx, &line_item().filter(f).group(vec![I_ID], vec![AggFn::Sum(L_QTY)]));
    assert_eq!(below.rows, [ints(&[1, 6])]);
    assert_eq!((every.reads, every.probes), (vec![LINE, ITEM], vec![4]));
    assert_eq!((below.reads, below.probes), (vec![LINE, ITEM], vec![3]), "items 1, 9 and 4");
}

#[test]
fn a_float_sum_adds_in_the_order_the_joined_rows_come_in() {
    let mut ctx = sales();
    let float = |id: i64, f: f64| vec![Value::Int(id), Value::Float(f)];
    // One partial per group: the item's lines, in order.
    let below = run(&mut ctx, &line_item().group(vec![I_ID], vec![AggFn::Sum(L_F)]));
    assert_eq!(below.rows, [float(1, 0.3 + 0.1), float(2, 0.2), float(4, 0.7)]);
    // Per author, items 1 and 2 share a group and their lines alternate:
    // (0.3 + 0.2) + 0.1, where the items' partials would give (0.3 + 0.1) + 0.2.
    assert_ne!((0.3 + 0.2) + 0.1, (0.3 + 0.1) + 0.2);
    let every = run(&mut ctx, &line_item().group(vec![I_A], vec![AggFn::Sum(L_F)]));
    assert_eq!(every.rows, [float(10, (0.3 + 0.2) + 0.1), float(11, 0.7)]);
    assert_eq!((below.reads, below.probes), (every.reads, every.probes));
    // The right column among the group columns does not help when a key
    // matches three rows of one group: each line is added three times
    // running, where the partial would be added three times whole.
    let thrice = |v: f64| v + v + v;
    let running = [0.3, 0.3, 0.3, 0.1, 0.1, 0.1, 0.7, 0.7, 0.7].iter().fold(0.0, |sum, v| sum + v);
    assert_ne!(running, thrice(0.3 + 0.1 + 0.7));
    let fanned = run(&mut ctx, &line_items_of_author().group(vec![I_A], vec![AggFn::Sum(L_F)]));
    assert_eq!(fanned.rows, [float(10, running), float(11, 0.2)]);
    // `Min` over a `Float` column is ordered too: of an `Int` and an
    // equal `Float` it keeps the one it met first.
    for (id, f) in [(8, Value::Int(7)), (9, Value::Float(7.0)), (10, Value::Int(7))] {
        ctx.insert(LINE, vec![id.into(), 3.into(), 10.into(), 1.into(), f]).unwrap();
    }
    let mins = run(&mut ctx, &line_item().group(vec![I_A], vec![AggFn::Min(L_F), AggFn::Max(L_F)]));
    assert_eq!(format!("{:?}", mins.rows[0]), "[Int(10), Float(0.1), Int(7)]");
}

#[test]
fn nothing_to_collapse_is_no_group() {
    let grouped = |s: Select| s.group(vec![I_ID], vec![AggFn::Count, AggFn::Sum(L_QTY)]);
    // No line at all: the base is read, nothing is probed.
    let mut ctx = MockContext::new(sales_schema());
    let got = run(&mut ctx, &grouped(line_item()));
    assert_eq!((got.rows, got.reads, got.probes), (vec![], vec![LINE], vec![]));
    // Lines, but every key NULL; then keys that match nothing.
    ctx.insert(LINE, vec![1.into(), Value::Null, Value::Null, 1.into(), Value::Null]).unwrap();
    ctx.insert(LINE, vec![2.into(), Value::Null, Value::Null, 2.into(), Value::Null]).unwrap();
    let got = run(&mut ctx, &grouped(line_item()));
    assert_eq!((got.rows, got.reads, got.probes), (vec![], vec![LINE], vec![]));
    ctx.insert(LINE, vec![3.into(), 9.into(), 9.into(), 3.into(), Value::Null]).unwrap();
    let got = run(&mut ctx, &grouped(line_item()));
    assert_eq!((got.rows, got.reads, got.probes), (vec![], vec![LINE, ITEM], vec![1]));
    // No group column: one group, if there is a tuple at all.
    let got = run(&mut ctx, &line_item().group(vec![], vec![AggFn::Count]));
    assert!(got.rows.is_empty());
    let got = run(&mut sales(), &line_item().group(vec![], vec![AggFn::Count, AggFn::Sum(L_QTY)]));
    assert_eq!(got.rows, [ints(&[5, 15])]);
}

#[test]
fn a_limit_cuts_after_the_order_and_first_appearance_breaks_ties() {
    let mut ctx = sales();
    // Per item of author 10's lines: items 1, 2, 3 tie at 13, item 4 has 1.
    let by_sum = |limit: usize| {
        line_items_of_author()
            .group(vec![I_ID], vec![AggFn::Sum(L_QTY)])
            .order_by(1, true)
            .limit(limit)
    };
    let all = [ints(&[1, 13]), ints(&[2, 13]), ints(&[3, 13]), ints(&[4, 1])];
    for limit in [1, 2, 3, 4, 5] {
        assert_eq!(run(&mut ctx, &by_sum(limit)).rows, all[..limit.min(4)], "limit {limit}");
    }
    let none = run(&mut ctx, &by_sum(0));
    assert_eq!((none.rows, none.reads), (vec![], vec![]));
    // Ascending, the tie is at the end and is cut in the same order.
    let asc = line_items_of_author().group(vec![I_ID], vec![AggFn::Sum(L_QTY)]).order_by(1, false);
    assert_eq!(run(&mut ctx, &asc.clone().limit(2)).rows, [ints(&[4, 1]), ints(&[1, 13])]);
    assert_eq!(
        run(&mut ctx, &asc.limit(3).project(vec![0])).rows,
        [ints(&[4]), ints(&[1]), ints(&[2])]
    );
    // Tuples, not groups: lines by quantity, lines 2 and 7 tie at 1.
    let lines = |limit: usize| line_item().order_by(L_QTY, false).limit(limit).project(vec![0]);
    let ids = [ints(&[2]), ints(&[7]), ints(&[1]), ints(&[3]), ints(&[6])];
    for limit in [1, 2, 3, 5, 6] {
        assert_eq!(run(&mut ctx, &lines(limit)).rows, ids[..limit.min(5)], "limit {limit}");
    }
}

#[test]
fn integer_sums_are_exact_and_an_overflow_is_an_error() {
    let mut ctx = sales();
    // 2^60 + 1 is not an `f64`: summed through one, the ones are lost.
    let big = (1i64 << 60) + 1;
    for (id, item) in [(11, 1), (12, 2), (13, 1), (14, 2)] {
        ctx.insert(LINE, vec![id.into(), item.into(), 10.into(), big.into(), Value::Null]).unwrap();
    }
    // Collapsed per item, then merged per author — and line by line.
    for group in [I_A, L_A] {
        let got = run(
            &mut ctx,
            &line_item().group(vec![group], vec![AggFn::Sum(L_QTY), AggFn::Avg(L_QTY)]),
        );
        let sum = 4 * big + if group == I_A { 8 } else { 13 };
        assert_eq!(got.rows[0][..2], [Value::Int(10), Value::Int(sum)], "group by {group}");
    }
    // Four more and the sum passes `i64::MAX`, on either path; the
    // average of the same values is still a float.
    for (id, item) in [(15, 1), (16, 2), (17, 1), (18, 2)] {
        ctx.insert(LINE, vec![id.into(), item.into(), 10.into(), big.into(), Value::Null]).unwrap();
    }
    for group in [I_A, L_A] {
        let s = line_item().group(vec![group], vec![AggFn::Sum(L_QTY)]);
        assert!(matches!(reference::select(&mut ctx, &s), Err(DmvError::Query(_))));
        assert!(matches!(execute(&mut ctx, &Query::Select(s)), Err(DmvError::Query(_))));
        let avg = run(&mut ctx, &line_item().group(vec![group], vec![AggFn::Avg(L_QTY)]));
        assert!(matches!(avg.rows[0][1], Value::Float(f) if f > 1e17));
    }
    // The error is the statement's even when the limit would drop the group.
    let s = line_item().group(vec![I_A], vec![AggFn::Sum(L_QTY)]).order_by(0, true).limit(1);
    assert!(matches!(execute(&mut ctx, &Query::Select(s)), Err(DmvError::Query(_))));
}

#[test]
fn join_keys_are_numbered_alike_dense_or_hashed() {
    let counted = |s: Select| s.group(vec![I_ID], vec![AggFn::Count]);
    // One line, one key.
    let mut ctx = MockContext::new(sales_schema());
    ctx.insert(ITEM, vec![7.into(), 10.into(), "t".into(), 1.into()]).unwrap();
    ctx.insert(LINE, vec![1.into(), 7.into(), Value::Null, 1.into(), Value::Null]).unwrap();
    let got = run(&mut ctx, &counted(line_item()));
    assert_eq!((got.rows, got.probes), (vec![ints(&[7, 1])], vec![1]));
    // The two ends of `i64` are a span no table can have.
    for (id, key) in [(2, i64::MAX), (3, i64::MIN), (4, i64::MAX)] {
        ctx.insert(LINE, vec![id.into(), key.into(), Value::Null, 1.into(), Value::Null]).unwrap();
    }
    ctx.insert(ITEM, vec![i64::MAX.into(), 10.into(), "max".into(), 1.into()]).unwrap();
    ctx.insert(ITEM, vec![i64::MIN.into(), 10.into(), "min".into(), 1.into()]).unwrap();
    let got = run(&mut ctx, &counted(line_item()));
    assert_eq!(got.rows, [ints(&[7, 1]), ints(&[i64::MAX, 2]), ints(&[i64::MIN, 1])]);
    assert_eq!(got.probes, [3], "each key once, in ascending order");
    // Keys far apart (hashed) and close together (numbered by offset)
    // expand in the same order: 7, 1000, then 7 and 8 only.
    let mut ctx = MockContext::new(sales_schema());
    for id in [7, 8, 1000] {
        ctx.insert(ITEM, vec![id.into(), 10.into(), "t".into(), 1.into()]).unwrap();
    }
    for (id, key) in [(1, 8), (2, 1000), (3, 7), (4, 8)] {
        ctx.insert(LINE, vec![id.into(), key.into(), Value::Null, 1.into(), Value::Null]).unwrap();
    }
    let got = run(&mut ctx, &line_item().project(vec![0, I_ID]));
    assert_eq!(got.rows, [ints(&[1, 8]), ints(&[2, 1000]), ints(&[3, 7]), ints(&[4, 8])]);
    let close = Expr::cmp(L_I, CmpOp::Lt, 100);
    let got = run(&mut ctx, &line_item().filter(close).project(vec![0, I_ID]));
    assert_eq!(
        (got.rows, got.probes),
        (vec![ints(&[1, 8]), ints(&[3, 7]), ints(&[4, 8])], vec![2])
    );
    // A `Float` among close `Int` keys: the set is hashed, a `Float` equal
    // to an `Int` key is that key, and 7.0 finds item 7.
    let on_l_f = Join { table: ITEM, left_col: L_F, right_col: 0, right_index: Some(0) };
    for (id, f) in [(5, Value::Int(8)), (6, Value::Float(7.0)), (7, Value::Float(8.0))] {
        ctx.insert(LINE, vec![id.into(), Value::Null, Value::Null, 0.into(), f]).unwrap();
    }
    let got = run(&mut ctx, &Select::scan(LINE).join(on_l_f).project(vec![0, I_ID]));
    assert_eq!(got.rows, [ints(&[5, 8]), ints(&[6, 7]), ints(&[7, 8])]);
    assert_eq!(got.probes, [2]);
    // Without an index the joined table's values are looked up among the
    // numbered keys: a `Float` equal to an `Int` key finds it.
    let on_f = Join { table: LINE, left_col: L_I, right_col: 4, right_index: None };
    let got = run(&mut ctx, &Select::scan(LINE).join(on_f).project(vec![0, 5]));
    let lines = [[1, 5], [1, 7], [3, 6], [4, 5], [4, 7]];
    assert_eq!(got.rows, lines.map(|pair| ints(&pair)));
}
