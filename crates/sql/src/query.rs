//! Structured query AST.
//!
//! The application (TPC-W interactions) builds these values instead of SQL
//! text. The AST deliberately covers exactly what the benchmark and the
//! middleware need: indexed point/range access, scans, boolean filters
//! with LIKE, left-deep inner joins, grouped aggregation, ordering,
//! limits, and write statements.

use crate::row::Row;
use crate::value::{Value, ValueRef};
use dmv_common::ids::TableId;
use serde::{Deserialize, Serialize};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering result.
    pub fn test(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// A boolean/scalar expression over a (possibly joined) row.
///
/// Column references are flat indexes into the concatenated row: the base
/// table's columns first, then each join's columns in order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference (flat index).
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// SQL LIKE with `%` wildcards.
    Like(Box<Expr>, String),
    /// Membership in a literal list.
    InList(Box<Expr>, Vec<Value>),
}

impl Expr {
    /// `Col(i) op lit` convenience.
    pub fn cmp(col: usize, op: CmpOp, lit: impl Into<Value>) -> Expr {
        Expr::Cmp(op, Box::new(Expr::Col(col)), Box::new(Expr::Lit(lit.into())))
    }

    /// `Col(i) = lit` convenience.
    pub fn eq(col: usize, lit: impl Into<Value>) -> Expr {
        Expr::cmp(col, CmpOp::Eq, lit)
    }

    /// `a AND b` convenience.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `a OR b` convenience.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `Col(i) LIKE pattern` convenience.
    pub fn like(col: usize, pattern: &str) -> Expr {
        Expr::Like(Box::new(Expr::Col(col)), pattern.to_owned())
    }

    /// Evaluates to a scalar value over the row whose columns `col`
    /// supplies, borrowing column values and literals instead of cloning
    /// them.
    ///
    /// Boolean results are `ValueRef::Bool`; comparisons involving NULL
    /// are false (SQL three-valued logic collapsed to two values, which
    /// is sufficient for the benchmark's queries).
    pub fn eval<'a, F: Fn(usize) -> ValueRef<'a>>(&'a self, col: &F) -> ValueRef<'a> {
        ValueRef::Bool(match self {
            Expr::Col(i) => return col(*i),
            Expr::Lit(v) => return ValueRef::from(v),
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(col), b.eval(col));
                !va.is_null() && !vb.is_null() && op.test(va.cmp(&vb))
            }
            Expr::And(a, b) => a.truthy(col) && b.truthy(col),
            Expr::Or(a, b) => a.truthy(col) || b.truthy(col),
            Expr::Not(a) => !a.truthy(col),
            Expr::Like(e, p) => e.eval(col).like(p),
            Expr::InList(e, list) => {
                let v = e.eval(col);
                !v.is_null() && list.iter().any(|l| ValueRef::from(l) == v)
            }
        })
    }

    /// Evaluates as a boolean predicate.
    pub fn truthy<'a, F: Fn(usize) -> ValueRef<'a>>(&'a self, col: &F) -> bool {
        matches!(self.eval(col), ValueRef::Bool(true))
    }

    /// Calls `f` with every column the expression references.
    pub fn for_each_col(&self, f: &mut impl FnMut(usize)) {
        match self {
            Expr::Col(i) => f(*i),
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.for_each_col(f);
                b.for_each_col(f);
            }
            Expr::Not(e) | Expr::Like(e, _) | Expr::InList(e, _) => e.for_each_col(f),
        }
    }

    /// Collects `AND`-connected conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            other => vec![other],
        }
    }
}

/// How the base table's rows are accessed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Access {
    /// Let the executor pick an index from equality conjuncts, falling
    /// back to a full scan.
    Auto,
    /// Scan every row.
    FullScan,
    /// Exact-match lookup on index `index_no` of the base table.
    IndexEq {
        /// Which index.
        index_no: u8,
        /// Full key (one value per index column).
        key: Vec<Value>,
    },
    /// Range scan on index `index_no`.
    IndexRange {
        /// Which index.
        index_no: u8,
        /// Lower bound `(key prefix, inclusive)`.
        lo: Option<(Vec<Value>, bool)>,
        /// Upper bound `(key prefix, inclusive)`.
        hi: Option<(Vec<Value>, bool)>,
        /// Scan in descending key order.
        rev: bool,
        /// Stop after this many rows (applied before joins/filters).
        scan_limit: Option<usize>,
    },
}

/// An inner join step in a left-deep join chain.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Join {
    /// Table joined in.
    pub table: TableId,
    /// Equi-join column in the accumulated (left) row, as a flat index.
    pub left_col: usize,
    /// Equi-join column in the joined table.
    pub right_col: usize,
    /// Index on the joined table whose first column is `right_col`; when
    /// absent the join falls back to scan-and-filter.
    pub right_index: Option<u8>,
}

/// Aggregate functions (the column is a flat index into the joined row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFn {
    /// `COUNT(*)`
    Count,
    /// `SUM(col)`
    Sum(usize),
    /// `AVG(col)`
    Avg(usize),
    /// `MIN(col)`
    Min(usize),
    /// `MAX(col)`
    Max(usize),
}

/// Grouped aggregation: output rows are `group columns ++ aggregates`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GroupBy {
    /// Grouping columns (flat indexes into the joined row).
    pub cols: Vec<usize>,
    /// Aggregates appended after the grouping columns.
    pub aggs: Vec<AggFn>,
}

/// A SELECT statement.
///
/// Pipeline order: access → joins → filter → group → order → limit →
/// project. When `group_by` is set, `order_by` and `project` indexes refer
/// to the aggregated row (group columns then aggregates); otherwise to the
/// joined row.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Select {
    /// Base table.
    pub table: TableId,
    /// Base access path.
    pub access: Access,
    /// Joins, applied left to right.
    pub joins: Vec<Join>,
    /// Residual filter over the joined row.
    pub filter: Option<Expr>,
    /// Grouped aggregation.
    pub group_by: Option<GroupBy>,
    /// Sort keys: `(column, descending)`.
    pub order_by: Vec<(usize, bool)>,
    /// Row limit (after ordering).
    pub limit: Option<usize>,
    /// Output columns; `None` keeps all.
    pub project: Option<Vec<usize>>,
}

impl Select {
    /// A full scan of `table` with no joins or filters.
    pub fn scan(table: TableId) -> Self {
        Select {
            table,
            access: Access::FullScan,
            joins: Vec::new(),
            filter: None,
            group_by: None,
            order_by: Vec::new(),
            limit: None,
            project: None,
        }
    }

    /// Point lookup on the primary key (index 0).
    pub fn by_pk(table: TableId, key: Vec<Value>) -> Self {
        let mut s = Self::scan(table);
        s.access = Access::IndexEq { index_no: 0, key };
        s
    }

    /// Sets the access path.
    pub fn access(mut self, access: Access) -> Self {
        self.access = access;
        self
    }

    /// Adds a join.
    pub fn join(mut self, join: Join) -> Self {
        self.joins.push(join);
        self
    }

    /// Sets the residual filter.
    pub fn filter(mut self, e: Expr) -> Self {
        self.filter = Some(e);
        self
    }

    /// Sets grouped aggregation.
    pub fn group(mut self, cols: Vec<usize>, aggs: Vec<AggFn>) -> Self {
        self.group_by = Some(GroupBy { cols, aggs });
        self
    }

    /// Adds a sort key.
    pub fn order_by(mut self, col: usize, desc: bool) -> Self {
        self.order_by.push((col, desc));
        self
    }

    /// Sets the row limit.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Sets the projection.
    pub fn project(mut self, cols: Vec<usize>) -> Self {
        self.project = Some(cols);
        self
    }
}

/// Value computed for a SET clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SetExpr {
    /// Assign a literal.
    Value(Value),
    /// Add to the current integer value (e.g. stock decrement).
    AddInt(i64),
    /// Add to the current float value.
    AddFloat(f64),
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// Read-only select.
    Select(Select),
    /// Insert fully-specified rows.
    Insert {
        /// Target table.
        table: TableId,
        /// Rows to insert.
        rows: Vec<Row>,
    },
    /// Update rows matched by `access` + `filter`.
    Update {
        /// Target table.
        table: TableId,
        /// Base access path for locating rows.
        access: Access,
        /// Residual filter.
        filter: Option<Expr>,
        /// `(column, new value)` assignments.
        set: Vec<(usize, SetExpr)>,
    },
    /// Delete rows matched by `access` + `filter`.
    Delete {
        /// Target table.
        table: TableId,
        /// Base access path for locating rows.
        access: Access,
        /// Residual filter.
        filter: Option<Expr>,
    },
}

impl Query {
    /// True for statements that modify data.
    pub fn is_write(&self) -> bool {
        !matches!(self, Query::Select(_))
    }

    /// All tables the statement touches (base + joins), used by the
    /// scheduler for conflict-class routing.
    pub fn tables(&self) -> Vec<TableId> {
        match self {
            Query::Select(s) => {
                let mut v = vec![s.table];
                v.extend(s.joins.iter().map(|j| j.table));
                v
            }
            Query::Insert { table, .. }
            | Query::Update { table, .. }
            | Query::Delete { table, .. } => vec![*table],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.test(Equal));
        assert!(!CmpOp::Eq.test(Less));
        assert!(CmpOp::Ne.test(Greater));
        assert!(CmpOp::Le.test(Equal) && CmpOp::Le.test(Less) && !CmpOp::Le.test(Greater));
        assert!(CmpOp::Ge.test(Equal) && CmpOp::Ge.test(Greater));
    }

    fn holds(e: Expr, row: &[Value]) -> bool {
        e.truthy(&|i| ValueRef::at(row, i))
    }

    #[test]
    fn expr_eval_basics() {
        let row = vec![Value::Int(5), Value::from("abc"), Value::Null];
        assert!(holds(Expr::eq(0, 5), &row));
        assert!(!holds(Expr::eq(0, 6), &row));
        assert!(holds(Expr::cmp(0, CmpOp::Gt, 4), &row));
        assert!(holds(Expr::like(1, "%b%"), &row));
        assert!(holds(Expr::eq(0, 5).and(Expr::like(1, "a%")), &row));
        assert!(holds(Expr::eq(0, 9).or(Expr::eq(0, 5)), &row));
        assert!(holds(Expr::Not(Box::new(Expr::eq(0, 9))), &row));
        assert_eq!(Expr::Col(1).eval(&|i| ValueRef::at(&row, i)), ValueRef::Str("abc"));
    }

    #[test]
    fn null_comparisons_are_false() {
        let row = vec![Value::Null];
        assert!(!holds(Expr::eq(0, 5), &row));
        assert!(!holds(Expr::cmp(0, CmpOp::Ne, 5), &row));
        assert!(!holds(Expr::InList(Box::new(Expr::Col(0)), vec![Value::Null]), &row));
    }

    #[test]
    fn out_of_range_col_is_null() {
        assert!(!holds(Expr::eq(7, 1), &[Value::Int(1)]));
    }

    #[test]
    fn in_list() {
        let row = vec![Value::Int(3)];
        assert!(holds(Expr::InList(Box::new(Expr::Col(0)), vec![1.into(), 3.into()]), &row));
        assert!(!holds(Expr::InList(Box::new(Expr::Col(0)), vec![9.into()]), &row));
    }

    #[test]
    fn conjunct_collection() {
        let e = Expr::eq(0, 1).and(Expr::eq(1, 2)).and(Expr::eq(2, 3));
        assert_eq!(e.conjuncts().len(), 3);
        assert_eq!(Expr::eq(0, 1).conjuncts().len(), 1);
    }

    #[test]
    fn referenced_columns() {
        let e = Expr::eq(4, 1)
            .and(Expr::like(2, "x%").or(Expr::Not(Box::new(Expr::eq(9, 0)))))
            .and(Expr::InList(Box::new(Expr::Col(4)), vec![1.into()]));
        let mut cols = Vec::new();
        e.for_each_col(&mut |c| cols.push(c));
        assert_eq!(cols, vec![4, 2, 9, 4]);
    }

    #[test]
    fn query_tables_and_write_flag() {
        let t0 = TableId(0);
        let t1 = TableId(1);
        let s = Select::scan(t0).join(Join {
            table: t1,
            left_col: 0,
            right_col: 0,
            right_index: Some(0),
        });
        let q = Query::Select(s);
        assert_eq!(q.tables(), vec![t0, t1]);
        assert!(!q.is_write());
        let u = Query::Update { table: t1, access: Access::Auto, filter: None, set: vec![] };
        assert!(u.is_write());
        assert_eq!(u.tables(), vec![t1]);
    }

    #[test]
    fn select_builder_chains() {
        let s = Select::by_pk(TableId(2), vec![7.into()])
            .filter(Expr::eq(1, "x"))
            .order_by(0, true)
            .limit(10)
            .project(vec![0, 1]);
        assert_eq!(s.table, TableId(2));
        assert!(matches!(s.access, Access::IndexEq { index_no: 0, .. }));
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.order_by, vec![(0, true)]);
    }
}
