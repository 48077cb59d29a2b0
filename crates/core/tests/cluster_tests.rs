//! End-to-end tests of the DMV middleware: replication consistency,
//! version tagging, master/slave/scheduler fail-over, stale-node
//! reintegration, spare warmup and the persistence tier.

use dmv_common::config::ConcurrencyMode;
use dmv_common::error::DmvError;
use dmv_common::ids::TableId;
use dmv_common::version::VersionVector;
use dmv_core::cluster::{ClusterSpec, DmvCluster};
use dmv_core::scheduler::WarmupStrategy;
use dmv_core::trace::{TraceEvent, TraceTap};
use dmv_sql::query::{Access, Expr, Query, Select, SetExpr};
use dmv_sql::schema::{ColType, Column, IndexDef, Schema, TableSchema};
use dmv_sql::value::Value;
use std::sync::Arc;
use std::time::Duration;

fn schema() -> Schema {
    Schema::new(vec![
        TableSchema::new(
            TableId(0),
            "accounts",
            vec![
                Column::new("id", ColType::Int),
                Column::new("owner", ColType::Str),
                Column::new("balance", ColType::Int),
            ],
            vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_owner", vec![1])],
        ),
        TableSchema::new(
            TableId(1),
            "audit",
            vec![Column::new("seq", ColType::Int), Column::new("note", ColType::Str)],
            vec![IndexDef::unique("pk", vec![0])],
        ),
    ])
}

fn start_cluster(n_slaves: usize, n_spares: usize) -> Arc<DmvCluster> {
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = n_slaves;
    spec.n_spares = n_spares;
    let cluster = DmvCluster::start(spec);
    let rows: Vec<Vec<Value>> =
        (0..100).map(|i| vec![i.into(), format!("owner{}", i % 10).into(), 1000.into()]).collect();
    cluster.load_rows(TableId(0), rows).unwrap();
    cluster.finish_load();
    cluster
}

fn insert_account(id: i64) -> Query {
    Query::Insert {
        table: TableId(0),
        rows: vec![vec![id.into(), format!("owner{}", id % 10).into(), 1000.into()]],
    }
}

fn deposit(id: i64, amount: i64) -> Query {
    Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, id)),
        set: vec![(2, SetExpr::AddInt(amount))],
    }
}

fn read_balance(id: i64) -> Query {
    Query::Select(Select::by_pk(TableId(0), vec![id.into()]).project(vec![2]))
}

fn scan_all() -> Query {
    Query::Select(Select::scan(TableId(0)))
}

#[test]
fn loaded_data_visible_on_all_slaves() {
    let cluster = start_cluster(3, 0);
    let session = cluster.session();
    // Reads rotate across slaves; every one must see the initial load.
    for _ in 0..9 {
        let rs = session.read(&[scan_all()]).unwrap();
        assert_eq!(rs[0].rows.len(), 100);
    }
    cluster.shutdown();
}

#[test]
fn update_visible_to_subsequent_reads() {
    let cluster = start_cluster(2, 0);
    let session = cluster.session();
    session.update(&[deposit(7, 500)]).unwrap();
    // The read is tagged with the commit's version: it must see it, on
    // whichever slave it lands.
    for _ in 0..4 {
        let rs = session.read_retry(&[read_balance(7)], 5).unwrap();
        assert_eq!(rs[0].rows[0][0], Value::Int(1500));
    }
    cluster.shutdown();
}

#[test]
fn monotone_reads_under_concurrent_writers() {
    let cluster = start_cluster(2, 0);
    let writer = cluster.session();
    let w = std::thread::spawn(move || {
        for _ in 0..50 {
            writer.update_retry(&[deposit(1, 1)], 10).unwrap();
        }
    });
    let reader = cluster.session();
    let mut last = 1000i64;
    let mut observed = 0;
    for _ in 0..200 {
        if let Ok(rs) = reader.read_retry(&[read_balance(1)], 10) {
            let v = rs[0].rows[0][0].as_int().unwrap();
            assert!(v >= last, "balance went backwards: {v} < {last}");
            last = v;
            observed += 1;
        }
    }
    w.join().unwrap();
    assert!(observed > 0);
    let final_balance = reader.read_retry(&[read_balance(1)], 10).unwrap()[0].rows[0][0].clone();
    assert_eq!(final_balance, Value::Int(1050));
    cluster.shutdown();
}

#[test]
fn replicas_converge_bitwise_after_quiescence() {
    let cluster = start_cluster(3, 0);
    let session = cluster.session();
    for i in 0..30 {
        session.update(&[insert_account(1000 + i)]).unwrap();
        session.update(&[deposit(1000 + i, i)]).unwrap();
    }
    // Force full application everywhere.
    let master = cluster.master(0);
    let topo_slaves = cluster.slave_ids();
    for id in topo_slaves {
        let slave = cluster.replica(id).unwrap();
        slave.applier().apply_all();
        let ms = master.db().store();
        let ss = slave.db().store();
        let mut ids = ms.page_ids();
        ids.sort();
        assert!(!ids.is_empty());
        for pid in ids {
            let mp = ms.get(pid).unwrap();
            let sp = ss.get(pid).unwrap_or_else(|| panic!("{id} missing page {pid}"));
            assert_eq!(
                mp.latch.read().data(),
                sp.latch.read().data(),
                "page {pid} diverged on {id}"
            );
        }
    }
    cluster.shutdown();
}

#[test]
fn slave_failure_reconfigures_and_service_continues() {
    let cluster = start_cluster(2, 0);
    let session = cluster.session();
    session.update(&[deposit(1, 1)]).unwrap();
    let victim = cluster.slave_ids()[0];
    cluster.kill_replica(victim);
    cluster.detect_and_reconfigure();
    assert_eq!(cluster.slave_ids().len(), 1);
    // Reads keep working (maybe with a retry around the kill window).
    let rs = session.read_retry(&[read_balance(1)], 10).unwrap();
    assert_eq!(rs[0].rows[0][0], Value::Int(1001));
    cluster.shutdown();
}

#[test]
fn master_failure_promotes_slave_and_updates_continue() {
    let cluster = start_cluster(3, 0);
    let session = cluster.session();
    for i in 0..10 {
        session.update(&[deposit(i, 10)]).unwrap();
    }
    let old_master = cluster.master(0).id();
    cluster.kill_replica(old_master);
    cluster.detect_and_reconfigure();
    let new_master = cluster.master(0);
    assert_ne!(new_master.id(), old_master, "a slave must be promoted");
    assert_eq!(cluster.slave_ids().len(), 2, "promoted slave leaves the read set");
    // Updates and reads continue, with retries over the failure window.
    session.update_retry(&[deposit(1, 5)], 10).unwrap();
    let rs = session.read_retry(&[read_balance(1)], 10).unwrap();
    assert_eq!(rs[0].rows[0][0], Value::Int(1015));
    cluster.shutdown();
}

#[test]
fn writes_after_promotion_reach_remaining_slaves() {
    let cluster = start_cluster(3, 0);
    let session = cluster.session();
    session.update(&[deposit(2, 100)]).unwrap();
    cluster.kill_replica(cluster.master(0).id());
    cluster.detect_and_reconfigure();
    for _ in 0..5 {
        session.update_retry(&[deposit(2, 100)], 10).unwrap();
    }
    // Both remaining slaves serve the newest value.
    for _ in 0..4 {
        let rs = session.read_retry(&[read_balance(2)], 10).unwrap();
        assert_eq!(rs[0].rows[0][0], Value::Int(1600));
    }
    cluster.shutdown();
}

#[test]
fn spare_auto_activates_on_slave_failure() {
    let cluster = start_cluster(2, 1);
    let session = cluster.session();
    assert_eq!(cluster.spare_ids().len(), 1);
    let victim = cluster.slave_ids()[0];
    cluster.kill_replica(victim);
    cluster.detect_and_reconfigure();
    assert_eq!(cluster.slave_ids().len(), 2, "spare replaces the failed slave");
    assert_eq!(cluster.spare_ids().len(), 0);
    let rs = session.read_retry(&[scan_all()], 10).unwrap();
    assert_eq!(rs[0].rows.len(), 100);
    cluster.shutdown();
}

#[test]
fn reintegration_catches_up_and_serves() {
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    spec.checkpoint_period = Some(Duration::from_secs(3600)); // manual checkpoints only
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..50).map(|i| vec![i.into(), "o".into(), 1000.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();

    let victim = cluster.slave_ids()[0];
    cluster.kill_replica(victim);
    cluster.detect_and_reconfigure();

    // Commit plenty while the node is down.
    for i in 0..25 {
        session.update_retry(&[deposit(i, 7)], 10).unwrap();
    }

    let report = cluster.reintegrate(victim).unwrap();
    assert!(report.pages > 0, "changed pages must be transferred");
    assert_eq!(cluster.slave_ids().len(), 2);

    // The rejoined node can serve current data. Route directly to it.
    let node = cluster.replica(victim).unwrap();
    let tag = cluster.master(0).dbversion();
    let rs = node.execute_read(&[read_balance(10)], &tag).unwrap();
    assert_eq!(rs[0].rows[0][0], Value::Int(1007));
    cluster.shutdown();
}

#[test]
fn reintegration_transfers_only_changed_pages() {
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..2000).map(|i| vec![i.into(), "o".into(), 1000.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();
    let victim = cluster.slave_ids()[0];
    // Fresh checkpoint right before the failure: only post-failure
    // changes should move.
    cluster.replica(victim).unwrap().take_checkpoint();
    let total_pages = cluster.master(0).db().store().len();
    cluster.kill_replica(victim);
    cluster.detect_and_reconfigure();
    session.update_retry(&[deposit(1, 7)], 10).unwrap();
    let report = cluster.reintegrate(victim).unwrap();
    assert!(
        report.pages < total_pages / 2,
        "selective transfer moved {}/{} pages",
        report.pages,
        total_pages
    );
    cluster.shutdown();
}

#[test]
fn fresh_node_integration_transfers_everything() {
    let cluster = start_cluster(1, 0);
    let (id, report) = cluster.integrate_fresh_node().unwrap();
    let total_pages = cluster.master(0).db().store().len();
    assert_eq!(report.pages, total_pages, "fresh node needs every page");
    assert!(cluster.slave_ids().contains(&id));
    cluster.shutdown();
}

/// Regression (found by the dmv-dst fault-schedule explorer, seed 2,
/// shrunk to a single `integrate-fresh` event): a node integrated right
/// after the initial load — before any update bumped page versions —
/// must actually serve the loaded rows. The page-batch apply used to
/// drop images whose version was not strictly newer than the joiner's,
/// and a just-created page is at version 0, exactly like an untouched
/// loaded page; every migrated page was silently discarded and the
/// fresh node served empty scans.
#[test]
fn fresh_node_integrated_before_any_update_serves_loaded_rows() {
    let cluster = start_cluster(1, 0);
    let (id, report) = cluster.integrate_fresh_node().unwrap();
    assert!(report.pages > 0, "the whole database migrates");
    let fresh = cluster.replica(id).unwrap();
    let rs = fresh.execute_read(&[scan_all()], &cluster.latest_version()).unwrap();
    assert_eq!(rs[0].rows.len(), 100, "fresh node must serve the initial load");
    cluster.shutdown();
}

#[test]
fn scheduler_failover_preserves_versions() {
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    spec.n_schedulers = 2;
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..20).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();
    for _ in 0..5 {
        session.update(&[deposit(3, 1)]).unwrap();
    }
    cluster.kill_scheduler(0);
    // The peer scheduler recovered the latest version from the master:
    // a read through it must see all five deposits.
    let rs = session.read_retry(&[read_balance(3)], 10).unwrap();
    assert_eq!(rs[0].rows[0][0], Value::Int(5));
    cluster.shutdown();
}

#[test]
fn persistence_backend_receives_updates() {
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 1;
    spec.n_backends = 1;
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..10).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();
    // NOTE: the backend starts empty; it receives the update stream.
    for i in 0..10 {
        session.update(&[insert_account(100 + i)]).unwrap();
    }
    cluster.shutdown(); // drains the async feed
    let backend = &cluster.backends()[0];
    let rs = backend.execute_txn(&[scan_all()]).unwrap();
    assert_eq!(rs[0].rows.len(), 10, "all async-fed inserts applied");
    cluster.shutdown();
}

#[test]
fn total_memory_tier_loss_recovers_from_backend() {
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    spec.n_backends = 1;
    let cluster = DmvCluster::start(spec);
    cluster.finish_load();
    let session = cluster.session();
    for i in 0..30 {
        session.update(&[insert_account(i)]).unwrap();
        session.update(&[deposit(i, i)]).unwrap();
    }
    cluster.shutdown(); // drain feed
                        // Catastrophe: every in-memory node dies. Rebuild a new cluster from
                        // the on-disk backend.
    let backend = Arc::clone(&cluster.backends()[0]);
    let dump = backend.execute_txn(&[scan_all()]).unwrap();
    let mut spec2 = ClusterSpec::fast_test(schema());
    spec2.n_slaves = 1;
    let cluster2 = DmvCluster::start(spec2);
    cluster2.load_rows(TableId(0), dump[0].rows.clone()).unwrap();
    cluster2.finish_load();
    let s2 = cluster2.session();
    let rs = s2.read(&[read_balance(29)]).unwrap();
    assert_eq!(rs[0].rows[0][0], Value::Int(1029));
    cluster2.shutdown();
}

#[test]
fn conflict_class_masters_run_disjoint_updates() {
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    spec.conflict_classes = Some(vec![vec![TableId(0)], vec![TableId(1)]]);
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..10).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();
    // Class 0: accounts. Class 1: audit. Updates go to different masters.
    session.update(&[deposit(1, 5)]).unwrap();
    session
        .update(&[Query::Insert { table: TableId(1), rows: vec![vec![1.into(), "note".into()]] }])
        .unwrap();
    let m0 = cluster.master(0);
    let m1 = cluster.master(1);
    assert_ne!(m0.id(), m1.id());
    // relaxed-ok: commit counted once despite broadcast fan-out
    assert_eq!(m0.stats.commits.load(std::sync::atomic::Ordering::Relaxed), 1);
    // relaxed-ok: commit counted once despite broadcast fan-out
    assert_eq!(m1.stats.commits.load(std::sync::atomic::Ordering::Relaxed), 1);
    // A read joining both tables sees both effects.
    let rs = session.read_retry(&[read_balance(1)], 5).unwrap();
    assert_eq!(rs[0].rows[0][0], Value::Int(5));
    let rs = session.read_retry(&[Query::Select(Select::scan(TableId(1)))], 5).unwrap();
    assert_eq!(rs[0].rows.len(), 1);
    cluster.shutdown();
}

#[test]
fn warmup_query_fraction_touches_spare() {
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 1;
    spec.n_spares = 1;
    spec.warmup = WarmupStrategy::QueryFraction(0.25);
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..50).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let spare_id = cluster.spare_ids()[0];
    let spare = cluster.replica(spare_id).unwrap();
    spare.evict_all();
    let session = cluster.session();
    for _ in 0..40 {
        session.read_retry(&[scan_all()], 5).unwrap();
    }
    // relaxed-ok: read served; counter read after requests completed
    let served = spare.stats.reads.load(std::sync::atomic::Ordering::Relaxed);
    assert!(served >= 5, "spare should serve ~25% of reads, served {served}");
    assert!(spare.resident_pages() > 0, "warmup must touch the spare's cache");
    cluster.shutdown();
}

#[test]
fn warmup_pageid_transfer_keeps_spare_resident() {
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 1;
    spec.n_spares = 1;
    spec.warmup = WarmupStrategy::PageIdTransfer { every_reads: 5 };
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..50).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let spare_id = cluster.spare_ids()[0];
    let spare = cluster.replica(spare_id).unwrap();
    spare.evict_all();
    assert_eq!(spare.resident_pages(), 0);
    let session = cluster.session();
    for _ in 0..25 {
        session.read_retry(&[scan_all()], 5).unwrap();
    }
    // Hints travel the simulated network; give the receiver a beat.
    std::thread::sleep(Duration::from_millis(100));
    assert!(spare.resident_pages() > 0, "page-id transfer must fault hinted pages in");
    assert_eq!(
        // relaxed-ok: read served; counter read after requests completed
        spare.stats.reads.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "strategy B serves no reads on the spare"
    );
    cluster.shutdown();
}

#[test]
fn version_conflict_surfaces_as_retryable() {
    let cluster = start_cluster(1, 0);
    let session = cluster.session();
    // Single slave + interleaved writes: force a reader with an old tag
    // to land on pages upgraded by a reader with a newer tag.
    let c2 = Arc::clone(&cluster);
    let w = std::thread::spawn(move || {
        let s = c2.session();
        for _ in 0..30 {
            s.update_retry(&[deposit(1, 1)], 10).unwrap();
        }
    });
    let mut conflicts = 0;
    for _ in 0..100 {
        match session.read(&[read_balance(1)]) {
            Ok(_) => {}
            Err(e @ DmvError::VersionConflict { .. }) => {
                assert!(e.is_retryable());
                conflicts += 1;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    w.join().unwrap();
    // Conflicts may or may not occur (timing), but the accounting must
    // be consistent with the scheduler's counters.
    let stats = &cluster.stats()[0];
    assert_eq!(stats.version_aborts.get(), conflicts);
    cluster.shutdown();
}

#[test]
fn abort_rate_stays_low_with_enough_slaves() {
    let cluster = start_cluster(3, 0);
    let c2 = Arc::clone(&cluster);
    let w = std::thread::spawn(move || {
        let s = c2.session();
        for i in 0..60 {
            s.update_retry(&[deposit(i % 10, 1)], 10).unwrap();
        }
    });
    let mut readers = Vec::new();
    for _ in 0..3 {
        let c = Arc::clone(&cluster);
        readers.push(std::thread::spawn(move || {
            let s = c.session();
            for i in 0..100 {
                let _ = s.read_retry(&[read_balance(i % 10)], 10);
            }
        }));
    }
    w.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    let rate = cluster.version_abort_rate();
    assert!(rate < 0.05, "abort rate {rate} should stay low (paper: < 2.5%)");
    cluster.shutdown();
}

#[test]
fn slave_death_mid_ack_wait_does_not_stall_commit() {
    // Regression test for the ack-state leak on membership change: a
    // commit whose broadcast target dies between the send and its ack
    // must complete as soon as the death is noticed — not sit out the
    // full ack timeout. The timeout here is deliberately huge so a
    // regression shows up as a glaring stall, and `hold_flush` pins the
    // kill deterministically inside the broadcast→ack window.
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 1;
    spec.ack_timeout = Duration::from_secs(30);
    let cluster = DmvCluster::start(spec);
    let rows: Vec<Vec<Value>> =
        (0..100).map(|i| vec![i.into(), format!("owner{}", i % 10).into(), 1000.into()]).collect();
    cluster.load_rows(TableId(0), rows).unwrap();
    cluster.finish_load();

    let master = cluster.master(0);
    let victim = cluster.slave_ids()[0];
    master.hold_flush();
    let c2 = Arc::clone(&cluster);
    let h = std::thread::spawn(move || {
        let start = dmv_common::clock::wall_now();
        c2.session().update(&[deposit(1, 1)]).unwrap();
        start.elapsed()
    });
    // Wait until the commit is parked in the coalescer queue.
    while master.pending_flush_count() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // The only ack source dies; the broadcast then goes nowhere.
    cluster.kill_replica(victim);
    master.release_flush();
    cluster.detect_and_reconfigure();
    let elapsed = h.join().unwrap();
    assert!(
        elapsed < Duration::from_secs(10),
        "commit stalled {elapsed:?} waiting on a dead target's acks"
    );
    cluster.shutdown();
}

#[test]
fn an_update_waits_for_the_later_of_its_log_insert_and_its_acks() {
    // The §4.6 log insert starts when the commit leaves the scheduler
    // and runs alongside the master's ack round: an update pays the
    // longer of the two, not their sum. `hold_flush` stretches the ack
    // round past the insert deterministically.
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 1;
    spec.log_latency = Duration::from_millis(40);
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..20).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let timed_update = |c: Arc<DmvCluster>| {
        std::thread::spawn(move || {
            let start = dmv_common::clock::wall_now();
            c.session().update(&[deposit(1, 1)]).unwrap();
            start.elapsed()
        })
    };

    // (a) An ack round much shorter than the insert: the insert is
    // still paid in full.
    let elapsed = timed_update(Arc::clone(&cluster)).join().unwrap();
    assert!(elapsed >= Duration::from_millis(40), "the log insert was skipped: {elapsed:?}");

    // (b) An ack round of ≈ 60 ms: the 40 ms insert ends inside it, so
    // the update returns at ≈ 60 ms, where insert-after-acks took ≥ 100.
    let master = cluster.master(0);
    master.hold_flush();
    let h = timed_update(Arc::clone(&cluster));
    while master.pending_flush_count() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(60));
    master.release_flush();
    let elapsed = h.join().unwrap();
    assert!(
        elapsed >= Duration::from_millis(60),
        "returned before its write-set left the master: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(95),
        "the log insert waited for the ack round instead of overlapping it: {elapsed:?}"
    );
    cluster.shutdown();
}

#[test]
fn an_update_that_commits_no_write_skips_the_log_insert() {
    // §4.6 logs the committed update queries. An update the master
    // commits with nothing written has none, whatever it ran: a select
    // alone, or a write whose filter matched no row.
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 1;
    spec.log_latency = Duration::from_millis(40);
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..20).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();
    let log_inserts = || cluster.stats()[0].log_inserts.get();
    let before = cluster.latest_version();
    for (what, update) in [("select-only", read_balance(1)), ("no-match", deposit(9_999, 1))] {
        let start = dmv_common::clock::wall_now();
        session.update_with(&[TableId(0)], &mut |r| r.run(&update).map(drop)).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(40), "{what} update paid the insert: {elapsed:?}");
        assert_eq!(cluster.latest_version(), before, "{what} update published a version");
        assert_eq!(log_inserts(), 0, "{what} update counted an insert");
    }
    let start = dmv_common::clock::wall_now();
    session.update(&[deposit(1, 1)]).unwrap();
    let elapsed = start.elapsed();
    assert!(elapsed >= Duration::from_millis(40), "a writing update skipped it: {elapsed:?}");
    assert_eq!(log_inserts(), 1);
    cluster.shutdown();
}

#[test]
fn concurrent_commits_coalesce_and_all_replicate() {
    // Group-commit smoke: many writers commit concurrently, every
    // update must survive batching (no write-set lost or reordered in
    // the coalescer) and reach every slave.
    let cluster = start_cluster(2, 0);
    let mut writers = Vec::new();
    for t in 0..8i64 {
        let c = Arc::clone(&cluster);
        writers.push(std::thread::spawn(move || {
            let s = c.session();
            for _ in 0..10 {
                s.update_retry(&[deposit(t, 1)], 10).unwrap();
            }
        }));
    }
    for w in writers {
        w.join().unwrap();
    }
    let session = cluster.session();
    for t in 0..8i64 {
        let rs = session.read_retry(&[read_balance(t)], 10).unwrap();
        assert_eq!(rs[0].rows[0][0], Value::Int(1010), "account {t}");
    }
    cluster.shutdown();
}

#[test]
fn master_failure_after_scheduler_failover_keeps_acknowledged_commits() {
    // Scheduler 0 dies first, so its `latest` stops at five deposits
    // while its peer acknowledges five more. The master fail-over that
    // follows must discard and promote at the live scheduler's vector:
    // driven by the dead one's, it erases acknowledged commits.
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    spec.n_schedulers = 2;
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..20).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();
    for _ in 0..5 {
        session.update(&[deposit(3, 1)]).unwrap();
    }
    cluster.kill_scheduler(0);
    for _ in 0..5 {
        session.update(&[deposit(3, 1)]).unwrap();
    }
    cluster.kill_replica(cluster.master(0).id());
    cluster.detect_and_reconfigure();
    assert!(cluster.master(0).is_alive(), "a slave was promoted");
    let rs = session.read_retry(&[read_balance(3)], 10).unwrap();
    assert_eq!(rs[0].rows, vec![vec![Value::Int(10)]], "acknowledged deposits survive");
    session.update_retry(&[deposit(3, 1)], 10).unwrap();
    let rs = session.read_retry(&[read_balance(3)], 10).unwrap();
    assert_eq!(rs[0].rows, vec![vec![Value::Int(11)]]);
    cluster.shutdown();
}

#[test]
fn a_writeless_update_publishes_no_unacknowledged_version() {
    // The master's version vector carries the bump of a commit still
    // waiting for its acks. An update that wrote nothing must not hand
    // that vector to the scheduler: reads would be tagged with it and a
    // fail-over would promote at it, and no slave has acknowledged it.
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 1;
    spec.concurrency = ConcurrencyMode::MvccCow;
    spec.ack_timeout = Duration::from_secs(30);
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..20).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let master = cluster.master(0);
    master.hold_flush();
    let c2 = Arc::clone(&cluster);
    let parked = std::thread::spawn(move || c2.session().update(&[deposit(1, 1)]).unwrap());
    while master.pending_flush_count() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = cluster.latest_version();
    cluster.session().update(&[deposit(9_999, 1)]).unwrap(); // no such row
    assert_eq!(cluster.latest_version(), before, "nothing was broadcast, nothing is published");
    master.release_flush();
    parked.join().unwrap();
    assert_eq!(cluster.latest_version().get(TableId(0)), before.get(TableId(0)) + 1);
    cluster.shutdown();
}

#[test]
fn a_silent_slave_does_not_stall_reclamation_on_the_others() {
    // A slave that is alive but unreachable acknowledges nothing; its
    // commits complete on the ack time-out. Reclamation follows what
    // readers pin, so the healthy slave still drains its queues up to
    // the latest version — the silent one is repaired by reintegration,
    // not by holding everyone's history.
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    spec.ack_timeout = Duration::from_millis(100);
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..20).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();
    session.update(&[deposit(3, 1)]).unwrap();
    let (healthy, silent) = (cluster.slave_ids()[0], cluster.slave_ids()[1]);
    cluster.net().partition(cluster.master(0).id(), silent);
    for _ in 0..3 {
        session.update(&[deposit(3, 1)]).unwrap();
    }
    assert_eq!(cluster.gc_sweep(), cluster.latest_version());
    assert_eq!(cluster.replica(healthy).unwrap().pending_bytes(), 0);
    cluster.shutdown();
}

/// The background sweeper (`gc_interval`) drains every live replica's
/// queues, masters' included, with no `gc_sweep` call from the test:
/// with no reader pinned the watermark is the latest version, so every
/// queued diff is applied and every slot reaped.
#[test]
fn the_background_sweeper_drains_every_replica() {
    for classes in [None, Some(vec![vec![TableId(0)], vec![TableId(1)]])] {
        let masters = classes.as_ref().map_or(1, Vec::len);
        let mut spec = ClusterSpec::fast_test(schema());
        spec.n_slaves = 2;
        spec.n_spares = 1;
        spec.gc_interval = Some(Duration::from_millis(20));
        spec.conflict_classes = classes;
        let cluster = DmvCluster::start(spec);
        cluster
            .load_rows(TableId(0), (0..20).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
            .unwrap();
        cluster.finish_load();
        let session = cluster.session();
        for i in 0..6 {
            session.update(&[deposit(i, 1)]).unwrap();
            let note = Query::Insert { table: TableId(1), rows: vec![vec![i.into(), "n".into()]] };
            session.update(&[note]).unwrap();
        }
        let drained = |id| {
            let r = cluster.replica(id).unwrap();
            r.pending_bytes() == 0 && r.applier().slot_count() == 0
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut live = cluster.memory_gauges();
        while !live.iter().all(|&(id, _, _)| drained(id)) {
            assert!(std::time::Instant::now() < deadline, "undrained after 10 s: {live:?}");
            std::thread::sleep(Duration::from_millis(10));
            live = cluster.memory_gauges();
        }
        assert_eq!(live.len(), masters + 3, "masters, slaves and the spare are all swept");
        cluster.shutdown();
    }
}

/// Collects every trace event, in emission order.
#[derive(Default)]
struct Recorder(std::sync::Mutex<Vec<TraceEvent>>);

impl TraceTap for Recorder {
    fn record(&self, ev: TraceEvent) {
        self.0.lock().unwrap().push(ev);
    }
}

#[test]
fn a_session_under_a_master_slave_partition_reads_nothing_stale() {
    // Slave B is cut off from the master but alive, so it stays routable
    // and every commit waits out the ack time-out for it. One session
    // runs 20 reads and 5 updates through it. What must hold now and
    // once B is dropped and repaired by the cluster itself: no read sees
    // less than what was acknowledged before it began, and every error
    // is retryable. The routing counts are printed, not asserted.
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    spec.ack_timeout = Duration::from_millis(100);
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..20).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let tap = Arc::new(Recorder::default());
    cluster.set_trace_tap(Arc::clone(&tap) as Arc<dyn TraceTap>);
    let silent = cluster.slave_ids()[0]; // first among equals in routing
    cluster.net().partition(cluster.master(0).id(), silent);
    let session = cluster.session();
    let mut acknowledged = 0i64;
    let mut update_times = Vec::new();
    let mut read_errors = Vec::new();
    for _ in 0..5 {
        for _ in 0..4 {
            match session.read_retry(&[read_balance(1)], 3) {
                Ok(rs) => {
                    let seen = rs[0].rows[0][0].as_int().unwrap();
                    assert!(seen >= acknowledged, "read {seen} below its tag's {acknowledged}");
                }
                Err(e) => {
                    assert!(e.is_retryable(), "a read failed for good: {e}");
                    read_errors.push(e);
                }
            }
        }
        let start = dmv_common::clock::wall_now();
        match session.update(&[deposit(1, 1)]) {
            Ok(_) => acknowledged += 1,
            Err(e) => assert!(e.is_retryable(), "an update failed for good: {e}"),
        }
        update_times.push(start.elapsed());
    }
    let events = tap.0.lock().unwrap();
    let on_silent = |slave: &dmv_common::ids::NodeId| *slave == silent;
    let routed = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ReadRouted { slave, .. } if on_silent(slave)))
        .count();
    let served = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ReadCommitted { slave, .. } if on_silent(slave)))
        .count();
    let aborted: Vec<&String> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ReadAborted { slave, reason, .. } if on_silent(slave) => Some(reason),
            _ => None,
        })
        .collect();
    let attempts = events.iter().filter(|e| matches!(e, TraceEvent::ReadRouted { .. })).count();
    eprintln!(
        "partitioned slave: {routed} of {attempts} read attempts routed to it (20 reads), \
         {served} served there, aborts there: {aborted:?}; reads failed to the client: \
         {read_errors:?}; update wall times: {update_times:?}"
    );
    drop(events);
    cluster.shutdown();
}

#[test]
fn master_failover_promotes_a_slave_that_holds_every_acknowledged_commit() {
    // A commit completes when its ack wait times out, so the slave cut
    // off from the master misses three acknowledged deposits. Promoting
    // it would restart the class from its stale pages; the slave that
    // acknowledged everything must be the one promoted.
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    spec.ack_timeout = Duration::from_millis(100);
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..20).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();
    session.update(&[deposit(3, 1)]).unwrap();
    let silent = cluster.slave_ids()[0];
    cluster.net().partition(cluster.master(0).id(), silent);
    for _ in 0..3 {
        session.update(&[deposit(3, 1)]).unwrap();
    }
    cluster.kill_replica(cluster.master(0).id());
    cluster.detect_and_reconfigure();
    let master = cluster.master(0);
    assert!(master.is_alive(), "a slave was promoted");
    assert_ne!(master.id(), silent, "the slave that missed commits was promoted");
    session.update_retry(&[deposit(3, 1)], 10).unwrap();
    let rs = dmv_sql::exec::execute(&mut master.db().begin_read_local(), &read_balance(3));
    assert_eq!(rs.unwrap().rows, vec![vec![Value::Int(5)]], "acknowledged deposits survive");
    cluster.shutdown();
}

#[test]
fn a_peer_scheduler_routes_by_the_membership_the_lead_changed() {
    // The lead scheduler sees a slave die and come back; after the lead
    // dies too, the peer must route to the returned slave and drive a
    // master fail-over without losing an acknowledged commit.
    let mut spec = ClusterSpec::fast_test(schema());
    spec.n_slaves = 2;
    spec.n_schedulers = 2;
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..20).map(|i| vec![i.into(), "o".into(), 0.into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();
    session.update(&[deposit(3, 1)]).unwrap();
    let returned = cluster.slave_ids()[0];
    cluster.kill_replica(returned);
    cluster.detect_and_reconfigure();
    session.update(&[deposit(3, 1)]).unwrap();
    cluster.reintegrate(returned).unwrap();
    cluster.kill_scheduler(0);
    session.update(&[deposit(3, 1)]).unwrap();

    // Two reads at once through the peer: routing balances in-flight
    // reads first, so while one is held inside its slave the other goes
    // to the other slave — one of them the returned node.
    let reads_on = |id| {
        // relaxed-ok: read served; counter read after requests completed
        cluster.replica(id).unwrap().stats.reads.load(std::sync::atomic::Ordering::Relaxed)
    };
    let before = reads_on(returned);
    let both_in = Arc::new(std::sync::Barrier::new(2));
    let (entered, first_in) = std::sync::mpsc::channel();
    let (s2, b2) = (cluster.session(), Arc::clone(&both_in));
    let held = std::thread::spawn(move || {
        s2.read_with(&mut |r| {
            r.run(&read_balance(3))?;
            entered.send(()).unwrap();
            b2.wait();
            Ok(())
        })
    });
    first_in.recv().unwrap();
    session
        .read_with(&mut |r| {
            r.run(&read_balance(3))?;
            both_in.wait();
            Ok(())
        })
        .unwrap();
    held.join().unwrap().unwrap();
    assert_eq!(reads_on(returned), before + 1, "the peer routes to the returned slave");

    cluster.kill_replica(cluster.master(0).id());
    cluster.detect_and_reconfigure();
    let rs = session.read_retry(&[read_balance(3)], 10).unwrap();
    assert_eq!(rs[0].rows, vec![vec![Value::Int(3)]], "acknowledged deposits survive");
    session.update_retry(&[deposit(3, 1)], 10).unwrap();
    let rs = session.read_retry(&[read_balance(3)], 10).unwrap();
    assert_eq!(rs[0].rows, vec![vec![Value::Int(4)]]);
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// Reuse of tagged select results (crates/core/src/reuse.rs)

const BOOKS: TableId = TableId(0);
const AUTHORS: TableId = TableId(1);
const NOTES: TableId = TableId(2);

/// Books by authors, and notes no select here reads.
fn library() -> Schema {
    Schema::new(vec![
        TableSchema::new(
            BOOKS,
            "books",
            vec![
                Column::new("b_id", ColType::Int),
                Column::new("b_a_id", ColType::Int),
                Column::new("price", ColType::Int),
            ],
            vec![IndexDef::unique("pk", vec![0])],
        ),
        TableSchema::new(
            AUTHORS,
            "authors",
            vec![Column::new("a_id", ColType::Int), Column::new("name", ColType::Str)],
            vec![IndexDef::unique("pk", vec![0])],
        ),
        TableSchema::new(
            NOTES,
            "notes",
            vec![Column::new("n_id", ColType::Int), Column::new("text", ColType::Str)],
            vec![IndexDef::unique("pk", vec![0])],
        ),
    ])
}

/// A library of `books` books by 7 authors, on a cluster of `n_slaves`.
fn start_library(books: i64, n_slaves: usize, ack_timeout: Duration) -> Arc<DmvCluster> {
    let mut spec = ClusterSpec::fast_test(library());
    spec.n_slaves = n_slaves;
    spec.ack_timeout = ack_timeout;
    let cluster = DmvCluster::start(spec);
    let rows = (0..books).map(|b| vec![b.into(), (b % 7).into(), 10.into()]).collect();
    cluster.load_rows(BOOKS, rows).unwrap();
    let rows = (0..7i64).map(|a| vec![a.into(), format!("author {a}").into()]).collect();
    cluster.load_rows(AUTHORS, rows).unwrap();
    cluster.finish_load();
    cluster
}

/// Books ⋈ authors, in book order.
fn books_by_author() -> Query {
    Query::Select(
        Select::scan(BOOKS)
            .join(dmv_sql::query::Join {
                table: AUTHORS,
                left_col: 1,
                right_col: 0,
                right_index: Some(0),
            })
            .order_by(0, false)
            .project(vec![0, 4]),
    )
}

fn reused(node: &dmv_core::ReplicaNode) -> u64 {
    // relaxed-ok: stats counter; read after the reads it counts returned
    node.stats.reused.load(std::sync::atomic::Ordering::Relaxed)
}

/// Reads `q` on `node` at `tag` and returns its rows and whether the
/// result store answered.
fn read_on(
    node: &dmv_core::ReplicaNode,
    q: &Query,
    tag: &VersionVector,
) -> (Vec<Vec<Value>>, bool) {
    let before = reused(node);
    let rs = node.execute_read(std::slice::from_ref(q), tag).unwrap();
    (rs.into_iter().next().unwrap().rows, reused(node) > before)
}

/// A join answered twice at one tag — the second time stored — is
/// answered from the store the third time, row for row.
fn stored_join(cluster: &DmvCluster) -> (Arc<dmv_core::ReplicaNode>, Vec<Vec<Value>>) {
    let slave = cluster.replica(cluster.slave_ids()[0]).unwrap();
    let tag = cluster.latest_version();
    let q = books_by_author();
    let (first, hit) = read_on(&slave, &q, &tag);
    assert!(!hit, "a first sighting executes");
    let (second, hit) = read_on(&slave, &q, &tag);
    assert!(!hit, "a second sighting executes and stores");
    let (third, hit) = read_on(&slave, &q, &tag);
    assert!(hit, "the third sighting is answered from the store");
    assert_eq!(first.len(), 40);
    assert_eq!((&second, &third), (&first, &first), "served rows equal the miss's, in order");
    (slave, first)
}

#[test]
fn a_join_repeated_at_one_tag_is_answered_from_the_store() {
    let cluster = start_library(40, 1, Duration::from_millis(500));
    let (slave, rows) = stored_join(&cluster);
    assert_eq!(rows[8], vec![Value::Int(8), Value::from("author 1")]);
    // The stored rows go on answering at the same tag.
    let (again, hit) = read_on(&slave, &books_by_author(), &cluster.latest_version());
    assert!(hit);
    assert_eq!(again, rows);
    cluster.shutdown();
}

#[test]
fn a_commit_to_a_table_the_select_does_not_read_keeps_it_reusable() {
    let cluster = start_library(40, 1, Duration::from_millis(500));
    let (slave, rows) = stored_join(&cluster);
    let before = cluster.latest_version();
    cluster
        .session()
        .update(&[Query::Insert { table: NOTES, rows: vec![vec![1.into(), "n".into()]] }])
        .unwrap();
    let tag = cluster.latest_version();
    assert_ne!(tag, before, "the notes table moved");
    let (after, hit) = read_on(&slave, &books_by_author(), &tag);
    assert!(hit, "books and authors are where they were: the stored answer holds");
    assert_eq!(after, rows);
    cluster.shutdown();
}

#[test]
fn a_commit_to_the_joined_table_forces_a_recompute() {
    let cluster = start_library(40, 1, Duration::from_millis(500));
    let (slave, rows) = stored_join(&cluster);
    let rename = Query::Update {
        table: AUTHORS,
        access: Access::Auto,
        filter: Some(Expr::eq(0, 1)),
        set: vec![(1, SetExpr::Value("renamed".into()))],
    };
    cluster.session().update(&[rename]).unwrap();
    let tag = cluster.latest_version();
    assert_eq!(tag.get(BOOKS), 0, "the base table did not move");
    let (after, hit) = read_on(&slave, &books_by_author(), &tag);
    assert!(!hit, "the joined table moved: the key did too");
    assert_eq!(after[8], vec![Value::Int(8), Value::from("renamed")]);
    assert_eq!(after[9], rows[9], "other authors are as they were");
    cluster.shutdown();
}

#[test]
fn a_version_reissued_after_fail_over_is_never_answered_from_the_store() {
    // The master commits a price change to book 0 and dies in its ack
    // wait, the commit acknowledged by slave A only (B is cut off). A
    // reads book 1999 — another heap page — at the unacknowledged
    // version three times, so that answer is stored. Fail-over discards
    // the version everywhere and promotes B (first in line, and it has
    // every acknowledged commit); B reissues the number for a change to
    // book 1999. At that same key, A must answer the new price, never
    // the stored one.
    let cluster = start_library(2000, 2, Duration::from_secs(2));
    let (b, a) = (cluster.slave_ids()[0], cluster.slave_ids()[1]);
    let master = cluster.master(0);
    cluster.net().partition(master.id(), b);
    let reprice = |book: i64, price: i64| Query::Update {
        table: BOOKS,
        access: Access::Auto,
        filter: Some(Expr::eq(0, book)),
        set: vec![(2, SetExpr::Value(price.into()))],
    };
    let c2 = Arc::clone(&cluster);
    let ghost_commit = std::thread::spawn(move || c2.session().update(&[reprice(0, 11)]));
    let slave_a = cluster.replica(a).unwrap();
    while slave_a.applier().received().get(BOOKS) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let ghost = master.dbversion();
    let q = Query::Select(Select::by_pk(BOOKS, vec![1999.into()]).project(vec![2]));
    for _ in 0..3 {
        assert_eq!(read_on(&slave_a, &q, &ghost).0, vec![vec![Value::Int(10)]]);
    }
    assert!(read_on(&slave_a, &q, &ghost).1, "stored at the unacknowledged version");

    cluster.kill_replica(master.id());
    cluster.detect_and_reconfigure();
    assert!(ghost_commit.join().unwrap().is_err(), "the master died before its acks");
    assert_eq!(cluster.master(0).id(), b);
    cluster.session().update_retry(&[reprice(1999, 12)], 10).unwrap();
    let tag = cluster.latest_version();
    assert_eq!(tag, ghost, "the discarded version number was reissued");
    let (rows, hit) = read_on(&slave_a, &q, &tag);
    assert!(!hit, "an answer from before the discard was served");
    assert_eq!(rows, vec![vec![Value::Int(12)]]);
    cluster.shutdown();
}

#[test]
fn a_version_conflict_is_never_stored() {
    // A tag whose page history is exhausted fails with `VersionConflict`
    // every time it is read — its second sighting included, which a
    // store that kept what a failed statement left would answer.
    let cluster = start_library(40, 1, Duration::from_millis(500));
    let slave = cluster.replica(cluster.slave_ids()[0]).unwrap();
    let old = cluster.latest_version();
    let session = cluster.session();
    for price in 0..24i64 {
        let bump = Query::Update {
            table: BOOKS,
            access: Access::Auto,
            filter: Some(Expr::eq(0, 3)),
            set: vec![(2, SetExpr::Value(price.into()))],
        };
        session.update(&[bump]).unwrap();
    }
    let q = Query::Select(Select::by_pk(BOOKS, vec![3.into()]).project(vec![2]));
    let newest = slave.execute_read(std::slice::from_ref(&q), &cluster.latest_version()).unwrap();
    assert_eq!(newest[0].rows, vec![vec![Value::Int(23)]]);
    for sighting in 1..=4 {
        let err = slave.execute_read(std::slice::from_ref(&q), &old).unwrap_err();
        assert!(matches!(err, DmvError::VersionConflict { .. }), "sighting {sighting}: {err}");
    }
    assert_eq!(reused(&slave), 0);
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Frames shaped for another schema
// ---------------------------------------------------------------------------

/// A write-set whose version vector does not have one entry per table
/// of the receiver's schema is dropped, and the receiver goes on
/// serving the stream: it once panicked the node's receiver thread,
/// leaving the node alive but deaf, so every commit then waited out its
/// ack timeout.
#[test]
fn a_frame_shaped_for_another_schema_is_dropped_and_the_node_keeps_acking() {
    use dmv_common::ids::{NodeId, PageId, TxnId};
    use dmv_core::messages::{Msg, WriteSet};
    use dmv_core::replica::{ReplicaConfig, ReplicaNode};
    use dmv_net::{DynTransport, SimnetTransport};
    use dmv_pagestore::diff::PageDiff;
    use dmv_pagestore::PAGE_SIZE;

    let net: DynTransport<Msg> = Arc::new(SimnetTransport::zero());
    let (slave_id, master_id) = (NodeId(1), NodeId(0));
    let slave = ReplicaNode::start(slave_id, schema(), Arc::clone(&net), ReplicaConfig::default());
    let master = net.register(master_id);
    let page = PageId::heap(TableId(0), 0);
    let mut image = vec![0u8; PAGE_SIZE];
    image[0] = 7;
    let write_set = |seq: u64, versions: Vec<u64>| {
        let diff = PageDiff::compute(&[0u8; PAGE_SIZE], &image);
        let ws = WriteSet {
            txn: TxnId::new(master_id, seq),
            seq,
            versions: VersionVector::from_entries(versions),
            pages: vec![(page, diff)],
        };
        Msg::WriteSet(Arc::new(ws))
    };
    master.send(slave_id, write_set(1, vec![1]), 0).unwrap();
    master.send(slave_id, write_set(2, vec![1, 0]), 0).unwrap();
    let ack = master.recv_timeout(Duration::from_secs(5)).expect("the valid write-set is acked");
    assert!(matches!(ack.msg, Msg::CumAck { seq: 2 }), "{:?}", ack.msg);
    assert_eq!(slave.applier().enqueued_count(), 1, "only the valid write-set is enqueued");
    assert_eq!(slave.applier().received(), VersionVector::from_entries(vec![1, 0]));
    slave.shutdown();
}
