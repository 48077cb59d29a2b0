//! Transport-conformance suite, layer 2: full cluster scenarios run
//! against **both** transports — the simulated fabric and real TCP over
//! loopback. The cluster machinery (replication, version tagging,
//! partition tolerance, fail-over, reintegration) must behave
//! identically; only timing differs.

use dmv::common::clock::SimClock;
use dmv::common::config::{NetProfile, TcpConfig};
use dmv::common::ids::{NodeId, TableId};
use dmv::core::cluster::{ClusterSpec, DmvCluster};
use dmv::core::Msg;
use dmv::net::{DynTransport, SimnetTransport, TcpTransport};
use dmv::sql::{
    Access, ColType, Column, Expr, IndexDef, Query, Schema, Select, SetExpr, TableSchema,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn kv_schema() -> Schema {
    Schema::new(vec![TableSchema::new(
        TableId(0),
        "kv",
        vec![Column::new("k", ColType::Int), Column::new("v", ColType::Int)],
        vec![IndexDef::unique("pk", vec![0])],
    )])
}

/// A TCP transport tuned for fast reconnects in tests.
fn tcp() -> DynTransport<Msg> {
    Arc::new(TcpTransport::new(TcpConfig {
        connect_backoff_base: Duration::from_millis(5),
        connect_backoff_cap: Duration::from_millis(100),
        heartbeat_interval: Duration::from_millis(100),
        ..TcpConfig::default()
    }))
}

/// Starts a loaded 1-master/2-slave cluster over the given transport
/// (`None` = the default simnet fabric).
fn start_cluster(rows: i64, transport: Option<DynTransport<Msg>>) -> Arc<DmvCluster> {
    let mut spec = ClusterSpec::fast_test(kv_schema());
    spec.n_slaves = 2;
    let cluster = match transport {
        None => DmvCluster::start(spec),
        Some(t) => DmvCluster::start_with_transport(spec, t),
    };
    cluster.load_rows(TableId(0), (0..rows).map(|i| vec![i.into(), 0.into()]).collect()).unwrap();
    cluster.finish_load();
    cluster
}

fn bump(k: i64) -> Query {
    Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, k)),
        set: vec![(1, SetExpr::AddInt(1))],
    }
}

fn read_all(cluster: &Arc<DmvCluster>) -> Vec<i64> {
    let rs = cluster
        .session()
        .read_retry(&[Query::Select(Select::scan(TableId(0)))], 20)
        .expect("read after retries");
    rs[0].rows.iter().map(|r| r[1].as_int().unwrap()).collect()
}

/// Both transports, labeled. Each scenario builds a fresh cluster per
/// transport so failures name the fabric they happened on.
fn fabrics() -> Vec<(&'static str, Option<DynTransport<Msg>>)> {
    vec![("simnet", None), ("tcp", Some(tcp()))]
}

#[test]
fn replicated_updates_converge_on_both_transports() {
    for (name, t) in fabrics() {
        let cluster = start_cluster(8, t);
        let session = cluster.session();
        for round in 0..5 {
            for k in 0..8 {
                session
                    .update_retry(&[bump(k)], 10)
                    .unwrap_or_else(|e| panic!("[{name}] update k={k} round={round} failed: {e}"));
            }
        }
        let totals = read_all(&cluster);
        assert_eq!(totals, vec![5i64; 8], "[{name}] replicas did not converge");
        cluster.shutdown();
    }
}

#[test]
fn partitioned_slave_leaves_reads_available() {
    for (name, t) in fabrics() {
        let cluster = start_cluster(4, t);
        let session = cluster.session();
        session.update_retry(&[bump(0)], 10).unwrap();
        // Cut the replication link master → slave B. The master's next
        // commits time out waiting for B's ack but still commit; reads
        // retry onto the healthy slave A.
        let slave_b = *cluster.slave_ids().last().unwrap();
        cluster.net().partition(NodeId(0), slave_b);
        session
            .update_retry(&[bump(1)], 10)
            .unwrap_or_else(|e| panic!("[{name}] update during partition failed: {e}"));
        let totals = read_all(&cluster);
        assert_eq!(totals, vec![1, 1, 0, 0], "[{name}] stale read during partition");
        // The stale slave is then declared dead and reconfigured away;
        // the cluster returns to full speed.
        cluster.kill_replica(slave_b);
        cluster.detect_and_reconfigure();
        session.update_retry(&[bump(2)], 10).unwrap();
        let totals = read_all(&cluster);
        assert_eq!(totals, vec![1, 1, 1, 0], "[{name}] post-reconfiguration read");
        cluster.shutdown();
    }
}

#[test]
fn master_failover_promotes_a_slave_on_both_transports() {
    for (name, t) in fabrics() {
        let cluster = start_cluster(4, t);
        let session = cluster.session();
        session.update_retry(&[bump(0)], 10).unwrap();
        let old_master = cluster.master(0).id();
        cluster.kill_replica(old_master);
        cluster.detect_and_reconfigure();
        let new_master = cluster.master(0).id();
        assert_ne!(new_master, old_master, "[{name}] no promotion");
        session
            .update_retry(&[bump(1)], 20)
            .unwrap_or_else(|e| panic!("[{name}] update after failover failed: {e}"));
        let totals = read_all(&cluster);
        assert_eq!(totals, vec![1, 1, 0, 0], "[{name}] lost committed data across failover");
        cluster.shutdown();
    }
}

#[test]
fn fresh_node_integration_migrates_pages_on_both_transports() {
    for (name, t) in fabrics() {
        let cluster = start_cluster(16, t);
        let session = cluster.session();
        for k in 0..16 {
            session.update_retry(&[bump(k)], 10).unwrap();
        }
        // Integrate a brand-new node: every page crosses the transport
        // as full-image PageBatch frames.
        let (joined, report) = cluster
            .integrate_fresh_node()
            .unwrap_or_else(|e| panic!("[{name}] integration failed: {e}"));
        assert!(report.pages > 0, "[{name}] no pages migrated");
        assert!(report.bytes > 0, "[{name}] no bytes charged");
        assert!(cluster.slave_ids().contains(&joined), "[{name}] joiner not serving");
        let totals = read_all(&cluster);
        assert_eq!(totals, vec![1i64; 16], "[{name}] joiner state diverged");
        cluster.shutdown();
    }
}

/// A fan-out never stalls its sender: on both fabrics `broadcast` only
/// queues (simnet stamps each copy with its modeled arrival, TCP hands
/// the frame to per-link writer threads), so it is back before the wire
/// could have delivered anything — and simnet still delivers no earlier
/// than the model says.
#[test]
fn broadcast_returns_before_the_first_delivery_is_due() {
    // Simnet: 20 ms of NIC time per copy and a 50 ms hop, so a sender
    // that paid the serialization itself would be held 80 ms.
    let (ser, hop) = (Duration::from_millis(20), Duration::from_millis(50));
    let slow_lan = NetProfile { latency: hop, per_kib: ser };
    let simnet: DynTransport<Msg> = Arc::new(SimnetTransport::new(slow_lan, SimClock::default()));
    // Loopback TCP has no modeled wire: its first delivery is due at once.
    for (name, t, due) in [("simnet", simnet, ser + hop), ("tcp", tcp(), Duration::ZERO)] {
        let targets: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let _master = t.register(NodeId(0));
        let slaves: Vec<_> = targets.iter().map(|n| t.register(*n)).collect();
        let msg = Msg::CumAck { seq: 7 };
        let t0 = Instant::now();
        t.broadcast(NodeId(0), &targets, &msg, 1024);
        let returned = t0.elapsed();
        assert!(returned < hop, "[{name}] broadcast held its sender for {returned:?}");
        for s in &slaves {
            let env = s.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(matches!(env.msg, Msg::CumAck { seq: 7 }), "[{name}] wrong message");
            assert!(t0.elapsed() >= due, "[{name}] delivered early, at {:?}", t0.elapsed());
        }
        t.shutdown();
    }
}
