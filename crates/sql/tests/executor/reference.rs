//! The reference evaluator: a select as the `Select` docs state it —
//! access → joins → filter → group → order → limit → project — one step
//! after the other over fully materialized, full-width rows. This is the
//! executor's former pipeline kept as the oracle: it asks every table for
//! all its columns, probes once per left row (a batch of one key, so no
//! set is ever resolved here), concatenates every joined
//! row and clones freely, so nothing the real executor does to avoid
//! that work can be wrong without the two disagreeing.

use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::TableId;
use dmv_sql::exec::{ExecContext, ResultSet};
use dmv_sql::query::{Access, AggFn, CmpOp, Expr, Select};
use dmv_sql::row::Row;
use dmv_sql::value::Value;
use std::collections::HashMap;

fn all_cols(ctx: &dyn ExecContext, table: TableId) -> DmvResult<Vec<usize>> {
    Ok((0..ctx.schema().table(table)?.columns.len()).collect())
}

/// `Access::Auto`: an index whose columns the filter pins with `col =
/// literal` conjuncts, else a full scan.
fn resolve_auto(ctx: &dyn ExecContext, table: TableId, filter: &Option<Expr>) -> DmvResult<Access> {
    let mut eqs: HashMap<usize, Value> = HashMap::new();
    for c in filter.iter().flat_map(Expr::conjuncts) {
        if let Expr::Cmp(CmpOp::Eq, a, b) = c {
            if let (Expr::Col(i), Expr::Lit(v)) = (a.as_ref(), b.as_ref()) {
                eqs.insert(*i, v.clone());
            }
        }
    }
    for (ix_no, ix) in ctx.schema().table(table)?.indexes.iter().enumerate() {
        if ix.columns.iter().all(|c| eqs.contains_key(c)) {
            let key = ix.columns.iter().map(|c| eqs[c].clone()).collect();
            return Ok(Access::IndexEq { index_no: ix_no as u8, key });
        }
    }
    Ok(Access::FullScan)
}

pub fn select(ctx: &mut dyn ExecContext, s: &Select) -> DmvResult<ResultSet> {
    // 1. Base access.
    let cols = all_cols(ctx, s.table)?;
    let access = match &s.access {
        Access::Auto => resolve_auto(ctx, s.table, &s.filter)?,
        other => other.clone(),
    };
    let base = match &access {
        Access::Auto => unreachable!(),
        Access::FullScan => ctx.scan(s.table, &cols, None, 0, usize::MAX)?.rows,
        Access::IndexEq { index_no, key } => {
            ctx.index_probe(s.table, *index_no, &[key.as_slice()], &cols)?.rows
        }
        Access::IndexRange { index_no, lo, hi, rev, scan_limit } => ctx.index_range(
            s.table,
            *index_no,
            lo.as_ref().map(|(k, inc)| (k.as_slice(), *inc)),
            hi.as_ref().map(|(k, inc)| (k.as_slice(), *inc)),
            *rev,
            *scan_limit,
            &cols,
        )?,
    };
    let mut acc: Vec<Row> = base.into_rows();

    // 2. Joins (left-deep nested loop; index inner when available).
    for join in &s.joins {
        let cols = all_cols(ctx, join.table)?;
        let scanned: Option<Vec<Row>> = match join.right_index {
            Some(_) => None,
            None => Some(ctx.scan(join.table, &cols, None, 0, usize::MAX)?.rows.into_rows()),
        };
        let mut next = Vec::new();
        for left in acc {
            let key = left.get(join.left_col).cloned().unwrap_or(Value::Null);
            if key.is_null() {
                continue;
            }
            let rights: Vec<Row> = match (&join.right_index, &scanned) {
                (Some(ix), _) => ctx
                    .index_probe(join.table, *ix, &[std::slice::from_ref(&key)], &cols)?
                    .rows
                    .into_rows(),
                (None, Some(all)) => {
                    all.iter().filter(|r| r.get(join.right_col) == Some(&key)).cloned().collect()
                }
                (None, None) => unreachable!(),
            };
            for right in rights {
                let mut combined = left.clone();
                combined.extend(right);
                next.push(combined);
            }
        }
        acc = next;
    }

    // 3. Residual filter.
    if let Some(f) = &s.filter {
        acc.retain(|r| truthy(f, r));
    }

    // 4. Grouped aggregation.
    if let Some(g) = &s.group_by {
        acc = aggregate(acc, &g.cols, &g.aggs)?;
    }

    // 5. Order (stable).
    acc.sort_by(|a, b| {
        for &(col, desc) in &s.order_by {
            let va = a.get(col).cloned().unwrap_or(Value::Null);
            let vb = b.get(col).cloned().unwrap_or(Value::Null);
            let ord = if desc { vb.cmp(&va) } else { va.cmp(&vb) };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });

    // 6. Limit.
    if let Some(n) = s.limit {
        acc.truncate(n);
    }

    // 7. Project.
    if let Some(cols) = &s.project {
        acc = acc
            .into_iter()
            .map(|r| cols.iter().map(|&c| r.get(c).cloned().unwrap_or(Value::Null)).collect())
            .collect();
    }

    Ok(ResultSet { rows: acc, affected: 0 })
}

/// `Expr` evaluation over an owned row, cloning as it goes.
fn eval(e: &Expr, row: &[Value]) -> Value {
    match e {
        Expr::Col(i) => row.get(*i).cloned().unwrap_or(Value::Null),
        Expr::Lit(v) => v.clone(),
        Expr::Cmp(op, a, b) => {
            let va = eval(a, row);
            let vb = eval(b, row);
            if va.is_null() || vb.is_null() {
                return Value::Bool(false);
            }
            Value::Bool(op.test(va.cmp(&vb)))
        }
        Expr::And(a, b) => Value::Bool(truthy(a, row) && truthy(b, row)),
        Expr::Or(a, b) => Value::Bool(truthy(a, row) || truthy(b, row)),
        Expr::Not(a) => Value::Bool(!truthy(a, row)),
        Expr::Like(e, p) => Value::Bool(eval(e, row).like(p)),
        Expr::InList(e, list) => {
            let v = eval(e, row);
            Value::Bool(!v.is_null() && list.contains(&v))
        }
    }
}

fn truthy(e: &Expr, row: &[Value]) -> bool {
    matches!(eval(e, row), Value::Bool(true))
}

/// `Sum` and `Avg` add `Int`s exactly and go over to `f64` at the first
/// `Float`; a `Sum` of `Int`s that does not fit an `i64` is an error.
fn aggregate(rows: Vec<Row>, cols: &[usize], aggs: &[AggFn]) -> DmvResult<Vec<Row>> {
    #[derive(Clone)]
    struct AggState {
        count: u64,
        ints: i128,
        floats: Option<f64>,
        min: Option<Value>,
        max: Option<Value>,
    }
    let fresh = AggState { count: 0, ints: 0, floats: None, min: None, max: None };

    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for row in rows {
        let key: Vec<Value> =
            cols.iter().map(|&c| row.get(c).cloned().unwrap_or(Value::Null)).collect();
        let states = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            vec![fresh.clone(); aggs.len()]
        });
        for (st, agg) in states.iter_mut().zip(aggs) {
            match agg {
                AggFn::Count => st.count += 1,
                AggFn::Sum(c) | AggFn::Avg(c) => {
                    let v = row.get(*c).cloned().unwrap_or(Value::Null);
                    match (v, st.floats) {
                        (Value::Int(i), None) => st.ints += i as i128,
                        (Value::Int(i), Some(sum)) => st.floats = Some(sum + i as f64),
                        (Value::Float(f), None) => st.floats = Some(st.ints as f64 + f),
                        (Value::Float(f), Some(sum)) => st.floats = Some(sum + f),
                        _ => continue,
                    }
                    st.count += 1;
                }
                AggFn::Min(c) | AggFn::Max(c) => {
                    let v = row.get(*c).cloned().unwrap_or(Value::Null);
                    if !v.is_null() {
                        match agg {
                            AggFn::Min(_) => {
                                if st.min.as_ref().is_none_or(|m| v < *m) {
                                    st.min = Some(v);
                                }
                            }
                            _ => {
                                if st.max.as_ref().is_none_or(|m| v > *m) {
                                    st.max = Some(v);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let mut out_rows = Vec::new();
    for key in order {
        let states = &groups[&key];
        let mut out = key.clone();
        for (st, agg) in states.iter().zip(aggs) {
            let v =
                match agg {
                    AggFn::Count => Value::Int(st.count as i64),
                    AggFn::Sum(_) => {
                        if st.count == 0 {
                            Value::Null
                        } else if let Some(sum) = st.floats {
                            Value::Float(sum)
                        } else {
                            let sum = i64::try_from(st.ints);
                            Value::Int(sum.map_err(|_| {
                                DmvError::Query(format!("SUM overflows: {}", st.ints))
                            })?)
                        }
                    }
                    AggFn::Avg(_) => {
                        if st.count == 0 {
                            Value::Null
                        } else {
                            Value::Float(st.floats.unwrap_or(st.ints as f64) / st.count as f64)
                        }
                    }
                    AggFn::Min(_) => st.min.clone().unwrap_or(Value::Null),
                    AggFn::Max(_) => st.max.clone().unwrap_or(Value::Null),
                };
            out.push(v);
        }
        out_rows.push(out);
    }
    Ok(out_rows)
}
