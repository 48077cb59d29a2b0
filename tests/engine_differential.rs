//! Differential rig: per-page 2PL vs copy-on-write page MVCC.
//!
//! The MVCC protocol swap (`ConcurrencyMode::MvccCow`) must be
//! observationally equivalent to the paper's 2PL engine. Two proofs:
//!
//! 1. a sequential proptest runs random op sequences through both modes
//!    and compares every result set and error class, op by op (the
//!    `engine_equivalence.rs` pattern turned onto the concurrency axis);
//! 2. a concurrent rig runs ≥ 200 seeded multi-threaded schedules —
//!    each thread owns a key partition and retries its transactions
//!    until commit, so the final committed state is schedule-independent
//!    — and asserts equal committed row-sets and equal per-table version
//!    vectors across modes, with every abort a retryable
//!    `VersionConflict`/`Deadlock`.

use dmv::common::config::ConcurrencyMode;
use dmv::common::ids::TableId;
use dmv::common::version::VersionVector;
use dmv::common::DmvError;
use dmv::memdb::{MemDb, MemDbOptions};
use dmv::sql::exec::execute;
use dmv::sql::{
    Access, ColType, Column, Expr, IndexDef, Query, Row, Schema, Select, SetExpr, TableSchema,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

const TABLE: TableId = TableId(0);

fn schema() -> Schema {
    Schema::new(vec![TableSchema::new(
        TABLE,
        "t",
        vec![Column::new("k", ColType::Int), Column::new("n", ColType::Int)],
        vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_n", vec![1])],
    )])
}

fn db(mode: ConcurrencyMode) -> MemDb {
    MemDb::new(
        schema(),
        MemDbOptions {
            concurrency: mode,
            // Deadlocks between concurrent 2PL writers are expected and
            // retried; a short timeout keeps the rig fast.
            lock_timeout: Duration::from_millis(15),
            ..Default::default()
        },
    )
}

// ---------------------------------------------------------------------
// Part 1: sequential differential proptest (op-by-op result equality).
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
    PointRead(i64),
    RangeRead(i64),
    Scan,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..48, 0i64..8).prop_map(|(k, n)| Op::Insert(k, n)),
        (0i64..48, 0i64..8).prop_map(|(k, n)| Op::Update(k, n)),
        (0i64..48).prop_map(Op::Delete),
        (0i64..48).prop_map(Op::PointRead),
        (0i64..8).prop_map(Op::RangeRead),
        Just(Op::Scan),
    ]
}

fn to_query(op: &Op) -> Query {
    match op {
        Op::Insert(k, n) => {
            Query::Insert { table: TABLE, rows: vec![vec![(*k).into(), (*n).into()]] }
        }
        Op::Update(k, n) => Query::Update {
            table: TABLE,
            access: Access::Auto,
            filter: Some(Expr::eq(0, *k)),
            set: vec![(1, SetExpr::Value((*n).into()))],
        },
        Op::Delete(k) => {
            Query::Delete { table: TABLE, access: Access::Auto, filter: Some(Expr::eq(0, *k)) }
        }
        Op::PointRead(k) => Query::Select(Select::by_pk(TABLE, vec![(*k).into()])),
        Op::RangeRead(n) => Query::Select(
            Select::scan(TABLE)
                .access(Access::IndexEq { index_no: 1, key: vec![(*n).into()] })
                .order_by(0, false),
        ),
        Op::Scan => Query::Select(Select::scan(TABLE).order_by(0, false)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn both_modes_answer_identically(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let twopl = db(ConcurrencyMode::TwoPhase);
        let mvcc = db(ConcurrencyMode::MvccCow);
        for op in &ops {
            let q = to_query(op);
            let results: Vec<_> = [&twopl, &mvcc]
                .iter()
                .map(|engine| {
                    let mut txn = engine.begin_update();
                    let r = execute(&mut txn, &q);
                    match &r {
                        // Single-threaded: MVCC validation cannot lose.
                        Ok(_) => txn.try_commit(None).expect("uncontended commit"),
                        Err(_) => txn.abort(),
                    }
                    r
                })
                .collect();
            match (&results[0], &results[1]) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.rows, &b.rows, "rows diverged on {:?}", op);
                    prop_assert_eq!(a.affected, b.affected, "affected diverged on {:?}", op);
                }
                (Err(a), Err(b)) => prop_assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "error classes diverged on {:?}: {:?} vs {:?}", op, a, b
                ),
                (a, b) => {
                    return Err(TestCaseError::fail(
                        format!("outcome diverged on {op:?}: 2pl={a:?} mvcc={b:?}")
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Part 2: concurrent schedules — identical committed histories.
// ---------------------------------------------------------------------

const THREADS: usize = 3;
const KEYS_PER_THREAD: i64 = 12;
const TXNS_PER_THREAD: usize = 8;
const MAX_ATTEMPTS: usize = 1000;

/// Pre-generates thread `tid`'s transactions for `seed`: each is a batch
/// of write queries over the thread's private key partition, chosen
/// against a simulated key-set so every query succeeds logically (the
/// thread is the sole writer of its keys and retries until commit, so
/// the simulation matches reality in any interleaving).
fn plan_thread(seed: u64, tid: usize) -> Vec<Vec<Query>> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1000).wrapping_add(tid as u64));
    let lo = tid as i64 * KEYS_PER_THREAD;
    let mut present: BTreeSet<i64> = BTreeSet::new();
    let mut txns = Vec::with_capacity(TXNS_PER_THREAD);
    for _ in 0..TXNS_PER_THREAD {
        let n_ops = rng.gen_range(1..=2);
        let mut queries = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let k = lo + rng.gen_range(0..KEYS_PER_THREAD);
            let op = if present.contains(&k) { rng.gen_range(0..3) } else { 3 };
            queries.push(match op {
                0 => {
                    present.remove(&k);
                    to_query(&Op::Delete(k))
                }
                1 | 2 => to_query(&Op::Update(k, rng.gen_range(0..8))),
                _ => {
                    present.insert(k);
                    to_query(&Op::Insert(k, rng.gen_range(0..8)))
                }
            });
        }
        txns.push(queries);
    }
    txns
}

/// Runs one seeded concurrent schedule under `mode`; returns the final
/// committed row-set and the per-table version vector (bumped once per
/// committed writing transaction, mirroring the master's commit path).
fn run_concurrent(mode: ConcurrencyMode, seed: u64) -> (Vec<Row>, VersionVector) {
    let engine = db(mode);
    let versions = Mutex::new(VersionVector::new(1));
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let engine = &engine;
            let versions = &versions;
            s.spawn(move || {
                for queries in plan_thread(seed, tid) {
                    let mut attempts = 0;
                    'retry: loop {
                        attempts += 1;
                        assert!(attempts <= MAX_ATTEMPTS, "txn livelocked under {mode:?}");
                        let mut txn = engine.begin_update();
                        for q in &queries {
                            if let Err(e) = execute(&mut txn, q) {
                                assert!(
                                    e.is_retryable(),
                                    "non-retryable abort under {mode:?}: {e:?} on {q:?}"
                                );
                                assert!(
                                    matches!(
                                        e,
                                        DmvError::VersionConflict { .. } | DmvError::Deadlock(_)
                                    ),
                                    "unexpected abort class under {mode:?}: {e:?}"
                                );
                                txn.abort();
                                continue 'retry;
                            }
                        }
                        // Commit path mirrors the replica: the install
                        // (first-committer-wins) precedes the version
                        // bump, so a loser bumps nothing.
                        if txn.has_writes() {
                            if let Err(e) = txn.mvcc_install() {
                                assert!(
                                    mode == ConcurrencyMode::MvccCow
                                        && matches!(e, DmvError::VersionConflict { .. }),
                                    "unexpected commit abort under {mode:?}: {e:?}"
                                );
                                txn.abort();
                                continue 'retry;
                            }
                        }
                        let tables = txn.write_tables();
                        let vv = {
                            let mut g = versions.lock().expect("version vector mutex");
                            for t in tables {
                                g.bump(t);
                            }
                            g.clone()
                        };
                        txn.commit(Some(&vv));
                        break;
                    }
                }
            });
        }
    });
    let mut txn = engine.begin_read_local();
    let rows = execute(&mut txn, &to_query(&Op::Scan)).expect("final scan").rows;
    txn.commit(None);
    (rows, versions.into_inner().expect("version vector mutex"))
}

#[test]
fn concurrent_schedules_produce_identical_histories() {
    // ≥ 200 seeded schedules per mode (acceptance bar for the swap).
    for seed in 0..210 {
        let (rows_2pl, vv_2pl) = run_concurrent(ConcurrencyMode::TwoPhase, seed);
        let (rows_mvcc, vv_mvcc) = run_concurrent(ConcurrencyMode::MvccCow, seed);
        assert_eq!(rows_2pl, rows_mvcc, "committed row-sets diverged at seed {seed}");
        assert_eq!(vv_2pl, vv_mvcc, "version vectors diverged at seed {seed}");
    }
}
