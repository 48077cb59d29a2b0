//! Durability pipeline tests (paper §4.6): the scheduler's asynchronous
//! feed to the on-disk backends, backend WAL recovery, and rebuilding
//! the in-memory tier after total loss.

use dmv::common::error::DmvError;
use dmv::common::ids::TableId;
use dmv::core::cluster::{ClusterSpec, DmvCluster};
use dmv::ondisk::{DiskDb, DiskDbOptions};
use dmv::sql::{
    Access, ColType, Column, Expr, IndexDef, Query, Schema, Select, SetExpr, TableSchema, Value,
};
use std::sync::Arc;
use std::time::Duration;

fn schema() -> Schema {
    Schema::new(vec![TableSchema::new(
        TableId(0),
        "ledger",
        vec![
            Column::new("id", ColType::Int),
            Column::new("entry", ColType::Str),
            Column::new("amount", ColType::Int),
        ],
        vec![IndexDef::unique("pk", vec![0])],
    )])
}

fn start(n_backends: usize) -> Arc<DmvCluster> {
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    spec.n_backends = n_backends;
    // A real §4.6 insert, so attempts that fail while it runs are tested.
    spec.log_latency = Duration::from_millis(1);
    let cluster = DmvCluster::start(spec);
    cluster.finish_load();
    cluster
}

fn insert(i: i64) -> Query {
    Query::Insert {
        table: TableId(0),
        rows: vec![vec![i.into(), format!("entry-{i}").into(), (i * 10).into()]],
    }
}

#[test]
fn backends_replicate_committed_updates_in_order() {
    let cluster = start(2);
    let session = cluster.session();
    for i in 0..20 {
        session.update(&[insert(i)]).unwrap();
    }
    session
        .update(&[Query::Update {
            table: TableId(0),
            access: Access::Auto,
            filter: Some(Expr::eq(0, 5)),
            set: vec![(2, SetExpr::AddInt(1))],
        }])
        .unwrap();
    cluster.shutdown(); // drains the feed
    for (i, b) in cluster.backends().iter().enumerate() {
        let rs = b.execute_txn(&[Query::Select(Select::scan(TableId(0)))]).unwrap();
        assert_eq!(rs[0].rows.len(), 20, "backend {i}");
        let r5 =
            b.execute_txn(&[Query::Select(Select::by_pk(TableId(0), vec![5.into()]))]).unwrap();
        assert_eq!(r5[0].rows[0][2], Value::Int(51), "backend {i} must apply in order");
    }
}

#[test]
fn backend_wal_recovers_into_fresh_database() {
    let cluster = start(1);
    let session = cluster.session();
    for i in 0..15 {
        session.update(&[insert(i)]).unwrap();
    }
    cluster.shutdown();
    let backend = &cluster.backends()[0];
    // Simulate a backend crash: replay its WAL into an empty database.
    let records = backend.wal().read_from(0);
    let fresh = DiskDb::new(schema(), DiskDbOptions::default());
    let batches: Vec<&[Query]> = records.iter().map(|r| r.queries.as_slice()).collect();
    fresh.replay(batches).unwrap();
    let rs = fresh.execute_txn(&[Query::Select(Select::scan(TableId(0)))]).unwrap();
    assert_eq!(rs[0].rows.len(), 15);
}

#[test]
fn full_tier_loss_rebuilds_from_backend() {
    let cluster = start(1);
    let session = cluster.session();
    for i in 0..25 {
        session.update(&[insert(i)]).unwrap();
    }
    cluster.shutdown();

    // "All in-memory replicas fail": rebuild a new tier from the backend.
    let dump =
        cluster.backends()[0].execute_txn(&[Query::Select(Select::scan(TableId(0)))]).unwrap();
    let cluster2 = start(0);
    // cluster2 was finished empty; bootstrap a third cluster with data.
    drop(cluster2);
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 1;
    let rebuilt = DmvCluster::start(spec);
    rebuilt.load_rows(TableId(0), dump[0].rows.clone()).unwrap();
    rebuilt.finish_load();
    let rs = rebuilt.session().read_retry(&[Query::Select(Select::scan(TableId(0)))], 10).unwrap();
    assert_eq!(rs[0].rows.len(), 25);
    rebuilt.shutdown();
}

#[test]
fn scheduler_query_log_records_writes_only() {
    let cluster = start(1);
    let session = cluster.session();
    session.update(&[insert(1)]).unwrap();
    session.read_retry(&[Query::Select(Select::scan(TableId(0)))], 10).unwrap();
    session.update(&[insert(2)]).unwrap();
    // Two update transactions were logged; the read was not.
    cluster.shutdown();
    let backend = &cluster.backends()[0];
    assert_eq!(backend.wal().len(), 2);
}

#[test]
fn an_update_that_commits_no_write_is_never_fed() {
    let cluster = start(1);
    // Row 7 is on the backend only (loaded without a WAL record): a fed
    // update that matched no row in the cluster would write it there.
    cluster.backends()[0]
        .bulk_load(TableId(0), &[vec![7.into(), "entry-7".into(), 70.into()]])
        .unwrap();
    let session = cluster.session();
    let select = Query::Select(Select::by_pk(TableId(0), vec![7.into()]));
    let no_match = Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 7)),
        set: vec![(2, SetExpr::AddInt(1))],
    };
    for q in [select, no_match] {
        session.update_with(&[TableId(0)], &mut |r| r.run(&q).map(drop)).unwrap();
    }
    session.update(&[insert(1)]).unwrap();
    cluster.shutdown(); // drains the feed
    let wal = cluster.backends()[0].wal().read_from(0);
    let fed: Vec<&[Query]> = wal.iter().map(|r| r.queries.as_slice()).collect();
    assert_eq!(fed, vec![&[insert(1)][..]], "only the writing update reaches the WAL");
}

#[test]
fn a_batch_a_backend_rejects_is_counted_and_the_feed_goes_on() {
    let cluster = start(1);
    let backend = &cluster.backends()[0];
    // Row 5 is on the backend only: the cluster commits its insert, the
    // backend rejects the fed batch as a duplicate key.
    backend.execute_txn(&[insert(5)]).unwrap();
    let session = cluster.session();
    session.update(&[insert(5)]).unwrap();
    session.update(&[insert(6)]).unwrap();
    cluster.shutdown(); // drains the feed
    assert_eq!(cluster.stats()[0].feed_drops.get(), 1);
    let wal = backend.wal().read_from(0);
    assert_eq!(wal.len(), 2, "the direct insert and row 6");
    assert_eq!(wal[1].queries, vec![insert(6)], "the batch after the drop is applied");
}

// ---------------------------------------------------------------------
// The §4.6 log insert starts when an update's commit leaves the
// scheduler, before the master has validated it. An attempt that fails
// after that point may lose time, never data: nothing of it reaches a
// backend.

#[test]
fn an_attempt_whose_master_dies_after_its_log_insert_began_is_never_fed() {
    let cluster = start(1);
    let session = cluster.session();
    session.update(&[insert(1)]).unwrap();
    // Not idempotent, so a fed failed attempt would show in the sum (a
    // repeated insert would hide as a duplicate-key abort).
    let bump = Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 1)),
        set: vec![(2, SetExpr::AddInt(1))],
    };
    let first = cluster.master(0);
    first.arm_kill_mid_validation();
    let err = session.update(std::slice::from_ref(&bump)).unwrap_err();
    assert!(matches!(err, DmvError::NodeFailed(id) if id == first.id()), "{err:?}");
    cluster.detect_and_reconfigure();
    assert_ne!(cluster.master(0).id(), first.id(), "a slave was promoted");
    session.update(&[bump]).unwrap();
    cluster.shutdown(); // drains the feed
    let backend = &cluster.backends()[0];
    assert_eq!(backend.wal().len(), 2, "the insert and the retried bump, nothing else");
    let rs =
        backend.execute_txn(&[Query::Select(Select::by_pk(TableId(0), vec![1.into()]))]).unwrap();
    assert_eq!(rs[0].rows[0][2], Value::Int(11), "the bump is applied once");
}

#[test]
fn an_attempt_whose_statements_fail_after_a_write_is_never_fed() {
    let cluster = start(1);
    let session = cluster.session();
    let err = session
        .update_with(&[TableId(0)], &mut |r| {
            r.run(&insert(1))?;
            Err(DmvError::Query("abandoned after its write".into()))
        })
        .unwrap_err();
    assert!(matches!(err, DmvError::Query(_)), "{err:?}");
    cluster.shutdown();
    assert_eq!(cluster.backends()[0].wal().len(), 0, "nothing of the attempt is persisted");
}

// ---------------------------------------------------------------------
// Crash at an arbitrary commit boundary, via the dmv-dst harness: the
// master is killed mid-broadcast after its k-th outbound send, so some
// replication targets hold the in-flight write-set and others never see
// it. After election the promoted master discards unacknowledged
// records, and the harness's oracles check that the surviving slaves,
// the model, and the on-disk tier all agree — the half-propagated
// commit either survives everywhere or nowhere.

use dmv_dst::harness::run_schedule;
use dmv_dst::schedule::{Event, Schedule, ScheduleConfig};

fn crash_at_boundary_schedule(sends: u32) -> Schedule {
    let mut events = Vec::new();
    for i in 0..6 {
        events.push(Event::Transfer { client: 0, from: i, to: i + 1, amount: 2 });
        events.push(Event::Bump { client: 1, ctr: i % 4 });
    }
    events.push(Event::KillMasterMid { class: 0, sends });
    events.push(Event::Detect);
    for i in 0..4 {
        events.push(Event::Transfer { client: 1, from: i, to: 9 - i, amount: 3 });
        events.push(Event::Read { client: 0 });
    }
    Schedule { seed: 7_000 + u64::from(sends), config: ScheduleConfig::bank(), events }
}

#[test]
fn crash_at_every_commit_boundary_converges() {
    // sends=1: the write-set reaches no replication target at all;
    // sends=2..3: it reaches a strict subset (2 slaves + 1 backend feed
    // target order). Every split must converge after election.
    for sends in 1..=3u32 {
        let s = crash_at_boundary_schedule(sends);
        let r = run_schedule(&s);
        assert!(
            r.passed(),
            "crash after send {sends}: {} oracle failure(s):\n  {}\ntrace:\n{}",
            r.failures.len(),
            r.failures.join("\n  "),
            r.trace_text()
        );
        assert!(r.commits >= 12, "workload before and after the crash must commit");
    }
}

#[test]
fn crash_at_boundary_is_deterministic() {
    let s = crash_at_boundary_schedule(2);
    let a = run_schedule(&s);
    let b = run_schedule(&s);
    assert_eq!(a.trace_text(), b.trace_text());
}
