//! # dmv-sql
//!
//! Relational substrate shared by the in-memory engine (`dmv-memdb`) and
//! the on-disk engine (`dmv-ondisk`): typed [`value::Value`]s, table
//! [`schema`]s, a compact row codec, a structured [`query`] AST covering
//! everything the TPC-W interactions need (index lookups, range scans,
//! LIKE filters, nested-loop joins, grouped aggregation, ordering and
//! limits), and an [`exec`] executor that runs queries against any engine
//! implementing [`exec::ExecContext`].
//!
//! The middleware of the paper receives SQL text from the PHP
//! application; this reproduction uses the structured AST directly — the
//! queries are the same, only the parsing stage is elided (the scheduler
//! still sees per-query table access types, which is what its routing
//! decisions need).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod exec;
pub mod query;
pub mod row;
pub mod schema;
pub mod value;

pub use exec::{execute, ExecContext, ExecRunner, RecordingRunner, ResultSet, StatementRunner};
pub use query::{Access, AggFn, CmpOp, Expr, Join, Query, Select, SetExpr};
pub use row::{decode_row, encode_row, Row};
pub use schema::{ColType, Column, IndexDef, Schema, TableSchema};
pub use value::{Value, ValueRef};
