//! The executor's test suite. `dmv_sql::exec` is written against the
//! `ExecContext` trait alone, so it is tested against every context there
//! is: [`mock::MockContext`], a trivially correct in-memory one, and
//! `dmv-memdb`'s `Txn` (a dev-dependency of this crate) in every
//! transaction mode.
//!
//! * `cases` — hand-written statements with known answers;
//! * `differential` — random tables and random `Select` shapes, the
//!   executor's answer compared row for row with [`reference`]'s.

mod cases;
mod differential;
mod mock;
mod reference;
