//! Hand-written statements with known answers, on the mock context.

use crate::mock::MockContext;
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
