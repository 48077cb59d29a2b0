//! Hot-path concurrency test for the zero-copy propagation pipeline:
//! many client threads hammer the scheduler (lock-light routing) and the
//! appliers (sharded queues, Arc-shared write-sets) of a 4-slave
//! cluster, then every replica must converge to the master's state and
//! every committed write-set must have reached every slave.
//!
//! It runs under both concurrency modes. The accounts share one heap
//! page, so MvccCow writers lose first-committer-wins validation to
//! each other and get through on the seeded retry backoff alone; under
//! 2PL they wait on the page lock instead.

use dmv::common::config::ConcurrencyMode;
use dmv::common::ids::TableId;
use dmv::core::cluster::{ClusterSpec, DmvCluster};
use dmv::sql::{
    Access, ColType, Column, Expr, IndexDef, Query, Schema, Select, SetExpr, TableSchema, Value,
};
use rand::Rng as _;
use std::sync::Arc;

const ACCOUNTS: i64 = 32;
const WRITERS: u64 = 8;
const UPDATES_PER_WRITER: usize = 30;
const READERS: u64 = 4;

fn bank_schema() -> Schema {
    Schema::new(vec![TableSchema::new(
        TableId(0),
        "bank",
        vec![Column::new("id", ColType::Int), Column::new("balance", ColType::Int)],
        vec![IndexDef::unique("pk", vec![0])],
    )])
}

fn transfer(from: i64, to: i64, amount: i64) -> Vec<Query> {
    vec![
        Query::Update {
            table: TableId(0),
            access: Access::Auto,
            filter: Some(Expr::eq(0, from)),
            set: vec![(1, SetExpr::AddInt(-amount))],
        },
        Query::Update {
            table: TableId(0),
            access: Access::Auto,
            filter: Some(Expr::eq(0, to)),
            set: vec![(1, SetExpr::AddInt(amount))],
        },
    ]
}

fn total_balance(rows: &[Vec<Value>]) -> i64 {
    rows.iter().map(|r| r[1].as_int().unwrap()).sum()
}

#[test]
fn concurrent_clients_converge_without_losing_writesets() {
    for mode in [ConcurrencyMode::TwoPhase, ConcurrencyMode::MvccCow] {
        converge_without_losing_writesets(mode);
    }
    // Under --cfg dmv_race this fails the test if the happens-before
    // detector flagged any race during the run; a no-op otherwise.
    dmv_check::race::assert_clean();
}

fn converge_without_losing_writesets(mode: ConcurrencyMode) {
    let mut spec = ClusterSpec::fast_test(bank_schema());
    spec.n_slaves = 4;
    spec.concurrency = mode;
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..ACCOUNTS).map(|i| vec![i.into(), 100.into()]).collect())
        .unwrap();
    cluster.finish_load();

    // Write-sets already enqueued by the initial load; the delta after
    // the workload is what the client threads produced.
    let slave_ids = cluster.slave_ids();
    let baseline: Vec<u64> = slave_ids
        .iter()
        .map(|&id| cluster.replica(id).unwrap().applier().enqueued_count())
        .collect();

    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let c = Arc::clone(&cluster);
        writers.push(dmv_check::thread::spawn(move || {
            let s = c.session();
            let mut rng = dmv::common::rng::seeded(w);
            let mut committed = 0u64;
            for _ in 0..UPDATES_PER_WRITER {
                let from = rng.gen_range(0..ACCOUNTS);
                let to = (from + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
                s.update_retry(&transfer(from, to, rng.gen_range(1..10)), 30).unwrap();
                committed += 1;
            }
            committed
        }));
    }
    let mut readers = Vec::new();
    for r in 0..READERS {
        let c = Arc::clone(&cluster);
        readers.push(dmv_check::thread::spawn(move || {
            let s = c.session();
            for _ in 0..40 {
                if let Ok(rs) = s.read_retry(&[Query::Select(Select::scan(TableId(0)))], 30) {
                    assert_eq!(
                        total_balance(&rs[0].rows),
                        100 * ACCOUNTS,
                        "reader {r} saw a torn snapshot"
                    );
                }
            }
        }));
    }
    let committed: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(committed, WRITERS * UPDATES_PER_WRITER as u64);
    assert_eq!(cluster.retry_exhausted_total(), 0, "{mode:?}: a writer ran out of retries");
    let conflicts: u64 = cluster.stats().iter().map(|s| s.update_version_aborts.get()).sum();
    println!("{mode:?}: {committed} commits, {conflicts} update_version_aborts");

    // No lost write-sets: every commit was broadcast to every slave, so
    // each applier enqueued at least `committed` new write-sets (more
    // only if a commit was retried after its broadcast), and — since the
    // master fans the same Arc out to all targets — the same number on
    // every slave.
    let master = cluster.master(0);
    let deltas: Vec<u64> = slave_ids
        .iter()
        .zip(&baseline)
        .map(|(&id, &base)| cluster.replica(id).unwrap().applier().enqueued_count() - base)
        .collect();
    for (i, &d) in deltas.iter().enumerate() {
        assert!(d >= committed, "slave {i} lost write-sets: enqueued {d} of {committed}");
        assert_eq!(d, deltas[0], "fan-out reached slaves unevenly: {deltas:?}");
    }

    // Convergence: each slave, once it has received and materialized the
    // master's final version, returns exactly the master's rows.
    let final_version = master.dbversion();
    let scan = [Query::Select(Select::scan(TableId(0)))];
    let expect = master.execute_read(&scan, &final_version).unwrap();
    assert_eq!(total_balance(&expect[0].rows), 100 * ACCOUNTS);
    for &id in &slave_ids {
        let slave = cluster.replica(id).unwrap();
        slave.applier().wait_received(&final_version).unwrap();
        slave.applier().apply_all();
        let got = slave.execute_read(&scan, &final_version).unwrap();
        assert_eq!(got[0].rows, expect[0].rows, "slave {id:?} diverged from master");
    }
    cluster.shutdown();
}
