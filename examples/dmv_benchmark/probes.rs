//! Single-threaded timed loops over one layer each, through public
//! functions only. Fixed iteration counts, every modeled cost zero, so
//! what they report is real CPU time. Inputs are the write-sets the
//! traced run sampled at the transport and the population generated
//! from the seed.

use crate::stats::median;
use crate::trace::now_ns;
use crate::workload::{POPULATION_SEED, RETRIES};
use dmv::common::config::{ConcurrencyMode, TcpConfig};
use dmv::common::error::DmvResult;
use dmv::common::ids::{NodeId, TableId};
use dmv::common::rng::derive;
use dmv::common::wire::{decode_exact, Wire};
use dmv::core::cluster::{ClusterSpec, DmvCluster};
use dmv::core::{Msg, WriteSet};
use dmv::memdb::index::BTreeIndex;
use dmv::memdb::{MemDb, MemDbOptions};
use dmv::net::{SimnetTransport, TcpTransport, Transport};
use dmv::pagestore::diff::PageDiff;
use dmv::pagestore::PAGE_SIZE;
use dmv::sql::{
    execute, Access, ColType, Column, ExecRunner, IndexDef, Query, Schema, Select, SetExpr,
    StatementRunner, TableSchema, Value,
};
use dmv::tpcw::interactions::{plan, ClientState, IdAllocator, InteractionKind};
use dmv::tpcw::populate::{generate, Population, TpcwScale};
use dmv::tpcw::schema::{self, item, tpcw_schema};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `(metric name, value)` in the unit the name ends in.
pub type Results = Vec<(String, f64)>;

/// Median nanoseconds per call of `f` over `batches` batches of
/// `per_batch` calls; `f` gets the call's index.
fn ns_per_op(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|b| {
            let t0 = now_ns();
            for i in 0..per_batch {
                f(b * per_batch + i);
            }
            (now_ns() - t0) as f64 / per_batch as f64
        })
        .collect();
    median(&times)
}

/// Runs every probe. `writesets` must be non-empty.
pub fn run_all(seed: u64, writesets: &[Arc<WriteSet>]) -> Results {
    assert!(!writesets.is_empty(), "probes need write-sets sampled from a traced run");
    let scale = TpcwScale::small();
    let pop = generate(scale, POPULATION_SEED);
    let db = standalone_db(&pop);
    let mut out = Results::new();
    wire(writesets, &mut out);
    diff(&db, writesets, &mut out);
    memdb(&db, scale, &mut out);
    sql_exec(&db, scale, &pop, seed, &mut out);
    for slaves in [2usize, 8] {
        let cluster = kv_cluster(slaves);
        session_paths(&cluster, slaves, &mut out);
        if slaves == 2 {
            applier_and_epoch(&cluster, &mut out);
        }
        cluster.shutdown();
    }
    simnet(&mut out);
    tcp_rtt(writesets, &mut out);
    out
}

/// A stand-alone MvccCow engine holding the generated population.
fn standalone_db(pop: &Population) -> MemDb {
    let db = MemDb::new(
        tpcw_schema(),
        MemDbOptions { concurrency: ConcurrencyMode::MvccCow, ..MemDbOptions::default() },
    );
    for (table, rows) in &pop.tables {
        for chunk in rows.chunks(256) {
            let mut txn = db.begin_update();
            for row in chunk {
                execute(&mut txn, &Query::Insert { table: *table, rows: vec![row.clone()] })
                    .expect("generated row inserts");
            }
            txn.try_commit(None).expect("uncontended load commit");
        }
    }
    db
}

fn wire(writesets: &[Arc<WriteSet>], out: &mut Results) {
    let msgs: Vec<Msg> = writesets.iter().map(|ws| Msg::WriteSet(Arc::clone(ws))).collect();
    let frames: Vec<Vec<u8>> = msgs.iter().map(Wire::encode).collect();
    let n = msgs.len();
    let encode = ns_per_op(20, n, |i| {
        black_box(black_box(&msgs[i % n]).encode());
    });
    let decode = ns_per_op(20, n, |i| {
        black_box(decode_exact::<Msg>(black_box(&frames[i % n])).expect("own encoding decodes"));
    });
    let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
    out.push(("common.wire.encode_ns".into(), encode));
    out.push(("common.wire.decode_ns".into(), decode));
    out.push(("common.wire.bytes_per_writeset".into(), bytes));
}

/// Before/after image pairs rebuilt from sampled diffs: the populated
/// image of the page (zeros for a page allocated during the run) and
/// that image with the real diff applied.
fn diff(db: &MemDb, writesets: &[Arc<WriteSet>], out: &mut Results) {
    let cases: Vec<(Vec<u8>, Vec<u8>, &PageDiff)> = writesets
        .iter()
        .flat_map(|ws| ws.pages.iter())
        .take(2000)
        .map(|(id, d)| {
            let before = db
                .store()
                .get(*id)
                .map_or_else(|| vec![0u8; PAGE_SIZE], |cell| cell.latch.read().data().to_vec());
            let mut after = before.clone();
            d.apply(&mut after);
            (before, after, d)
        })
        .collect();
    let n = cases.len();
    let compute = ns_per_op(10, n, |i| {
        let (before, after, _) = &cases[i % n];
        black_box(PageDiff::compute(black_box(before), black_box(after)));
    });
    let mut scratch = vec![0u8; PAGE_SIZE];
    let apply = ns_per_op(10, n, |i| {
        black_box(cases[i % n].2).apply(black_box(&mut scratch));
    });
    let bytes = cases.iter().map(|(_, _, d)| d.encoded_len()).sum::<usize>() as f64 / n as f64;
    out.push(("pagestore.diff.compute_ns".into(), compute));
    out.push(("pagestore.diff.apply_ns".into(), apply));
    out.push(("pagestore.diff.bytes_per_page".into(), bytes));
}

fn memdb(db: &MemDb, scale: TpcwScale, out: &mut Results) {
    let items = scale.items as i64;
    let item_pk = BTreeIndex::new(schema::ITEM, 0);
    let lines_by_order = BTreeIndex::new(schema::ORDER_LINE, 1);
    let mut txn = db.begin_read_local();
    let lookup = ns_per_op(20, 500, |i| {
        let key = [Value::Int(1 + (i as i64 * 7919) % items)];
        black_box(item_pk.lookup_eq(&mut txn, &key).expect("index lookup"));
    });
    let orders = scale.orders() as i64;
    let range = ns_per_op(20, 100, |i| {
        let lo = [Value::Int(1 + (i as i64 * 7919) % (orders - 100))];
        let hits = lines_by_order.range(&mut txn, Some((&lo, true)), None, false, Some(100));
        assert_eq!(black_box(hits.expect("index range")).len(), 100);
    });
    txn.commit(None);
    // begin → one-row update → validate/install → diff capture → commit.
    let commit = ns_per_op(10, 100, |i| {
        let mut txn = db.begin_update();
        let stock_up = Query::Update {
            table: schema::ITEM,
            access: Access::IndexEq {
                index_no: 0,
                key: vec![(1 + (i as i64 * 7919) % items).into()],
            },
            filter: None,
            set: vec![(item::I_STOCK, SetExpr::AddInt(1))],
        };
        execute(&mut txn, &stock_up).expect("update");
        txn.mvcc_install().expect("uncontended install");
        black_box(txn.precommit());
        txn.commit(None);
    });
    out.push(("memdb.index.lookup_ns".into(), lookup));
    out.push(("memdb.index.range100_ns".into(), range));
    out.push(("memdb.txn.update_commit_ns".into(), commit));
}

/// Each interaction's statements through `ExecRunner` on the
/// stand-alone engine: SQL execution alone, no cluster around it.
fn sql_exec(db: &MemDb, scale: TpcwScale, pop: &Population, seed: u64, out: &mut Results) {
    const ITERS: usize = 40;
    let ids = IdAllocator::from_population(scale, pop);
    for kind in InteractionKind::ALL {
        let mut rng = derive(seed, 0x5EED ^ kind as u64);
        let mut state = ClientState::new(1 + seed as i64 % scale.customers as i64);
        let mut times = Vec::with_capacity(ITERS);
        for step in 0..ITERS {
            // Same cart bound as the client emulator: check out a full cart.
            if matches!(&state.cart, Some((_, lines)) if lines.len() >= 8) {
                let mut checkout =
                    plan(InteractionKind::BuyConfirm, &mut rng, &mut state, &ids, scale, 13_000);
                run_standalone(db, true, &mut checkout.exec).expect("checkout");
            }
            let mut interaction =
                plan(kind, &mut rng, &mut state, &ids, scale, 13_000 + step as i64);
            let ns = run_standalone(db, kind.is_update(), &mut interaction.exec)
                .unwrap_or_else(|e| panic!("{} on the stand-alone engine: {e}", kind.name()));
            times.push(ns as f64 / 1e3);
        }
        out.push((format!("sql.exec.{}_us", kind.name()), median(&times)));
    }
}

/// Runs `exec` in one transaction and returns the nanoseconds the
/// statements took (commit excluded).
fn run_standalone(
    db: &MemDb,
    update: bool,
    exec: &mut dyn FnMut(&mut dyn StatementRunner) -> DmvResult<()>,
) -> DmvResult<u64> {
    let mut txn = if update { db.begin_update() } else { db.begin_read_local() };
    let t0 = now_ns();
    let res = exec(&mut ExecRunner::new(&mut txn));
    let ns = now_ns() - t0;
    match res {
        Ok(()) => txn.try_commit(None).map(|()| ns),
        Err(e) => {
            txn.abort();
            Err(e)
        }
    }
}

const KV: TableId = TableId(0);
const KV_ROWS: i64 = 64;

/// A zero-cost-model key/value cluster: what is left is the real CPU
/// of routing and the commit pipeline.
fn kv_cluster(slaves: usize) -> Arc<DmvCluster> {
    let schema = Schema::new(vec![TableSchema::new(
        KV,
        "kv",
        vec![Column::new("k", ColType::Int), Column::new("v", ColType::Int)],
        vec![IndexDef::unique("pk", vec![0])],
    )]);
    let mut spec = ClusterSpec::fast_test(schema);
    spec.n_slaves = slaves;
    spec.concurrency = ConcurrencyMode::MvccCow;
    spec.detect_interval = Duration::from_secs(3600);
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(KV, (0..KV_ROWS).map(|k| vec![k.into(), 0.into()]).collect())
        .expect("kv rows load");
    cluster.finish_load();
    cluster
}

fn bump(k: i64) -> Query {
    Query::Update {
        table: KV,
        access: Access::IndexEq { index_no: 0, key: vec![k.into()] },
        filter: None,
        set: vec![(1, SetExpr::AddInt(1))],
    }
}

fn get(k: i64) -> Query {
    Query::Select(Select::by_pk(KV, vec![k.into()]))
}

fn session_paths(cluster: &Arc<DmvCluster>, slaves: usize, out: &mut Results) {
    let session = cluster.session();
    let route = ns_per_op(20, 200, |_| {
        session.read_with_retry(&mut |_r| Ok(()), RETRIES).expect("no-op read");
    });
    let commit = ns_per_op(20, 50, |i| {
        let q = bump(i as i64 % KV_ROWS);
        session
            .update_with_retry(&[KV], &mut |r| r.run(&q).map(|_| ()), RETRIES)
            .expect("one-row update");
    });
    out.push((format!("core.scheduler.route_noop_ns.slaves{slaves}"), route));
    out.push((format!("core.replica.commit_ns.slaves{slaves}"), commit));
}

/// Lazy apply, rewind, pin and sweep on a two-slave cluster whose
/// background GC is off, so pending diffs and history move only when
/// the probe says so.
fn applier_and_epoch(cluster: &Arc<DmvCluster>, out: &mut Results) {
    const ROUNDS: usize = 200;
    const K: usize = 8;
    let session = cluster.session();
    let slave = cluster.replica(cluster.slave_ids()[0]).expect("slave exists");
    let read_key0 = |tag: &dmv::common::version::VersionVector| {
        let t0 = now_ns();
        slave.execute_read_with(tag, &mut |r| r.run(&get(0)).map(|_| ())).map(|()| now_ns() - t0)
    };
    let (mut apply, mut rewind, mut sweep) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let mut tags = Vec::with_capacity(K);
        for _ in 0..K {
            session
                .update_with_retry(&[KV], &mut |r| r.run(&bump(0)).map(|_| ()), RETRIES)
                .expect("update");
            tags.push(cluster.latest_version());
        }
        // First read at the newest tag materializes K pending diffs of
        // the row's page; the second finds it current.
        let first = read_key0(&tags[K - 1]).expect("read at the newest tag");
        let base = read_key0(&tags[K - 1]).expect("repeat read");
        apply.push(first.saturating_sub(base) as f64 / K as f64);
        // A read K-1 versions back walks the page's reverse history.
        if let Ok(old) = read_key0(&tags[0]) {
            rewind.push(old.saturating_sub(base) as f64 / (K - 1) as f64);
        }
        let t0 = now_ns();
        cluster.gc_sweep();
        sweep.push((now_ns() - t0) as f64 / 1e3);
    }
    assert!(rewind.len() * 2 > ROUNDS, "rewind reads aborted in {} rounds", ROUNDS - rewind.len());
    let tag = cluster.latest_version();
    let pin = ns_per_op(20, 1000, |_| drop(black_box(cluster.epoch().pin(&tag))));
    out.push(("core.applier.apply_ns_per_diff".into(), median(&apply)));
    out.push(("core.applier.rewind_ns_per_step".into(), median(&rewind)));
    out.push(("epoch.pin_ns".into(), pin));
    out.push(("epoch.gc_sweep_us".into(), median(&sweep)));
}

fn simnet(out: &mut Results) {
    let net = SimnetTransport::<Msg>::zero();
    let (a, b) = (NodeId(1), NodeId(2));
    let _ep_a = net.register(a);
    let ep_b = net.register(b);
    let ns = ns_per_op(20, 1000, |i| {
        net.send_from(a, b, Msg::CumAck { seq: i as u64 }, 9).expect("send");
        black_box(ep_b.try_recv().expect("delivered"));
    });
    out.push(("net.simnet.msg_ns".into(), ns));
}

/// Write-set out, cumulative ack back, over real loopback sockets.
fn tcp_rtt(writesets: &[Arc<WriteSet>], out: &mut Results) {
    const ROUND_TRIPS: usize = 300;
    let net = TcpTransport::<Msg>::new(TcpConfig::default());
    let (a, b) = (NodeId(1), NodeId(2));
    let ep_a = net.register(a);
    let ep_b = net.register(b);
    let stop = &AtomicBool::new(false);
    let mut times = Vec::with_capacity(ROUND_TRIPS);
    std::thread::scope(|s| {
        s.spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if let Ok(env) = ep_b.recv_timeout(Duration::from_millis(20)) {
                    if let Msg::WriteSet(ws) = env.msg {
                        ep_b.send(a, Msg::CumAck { seq: ws.seq }, 9).expect("ack");
                    }
                }
            }
        });
        for i in 0..ROUND_TRIPS {
            let msg = Msg::WriteSet(Arc::clone(&writesets[i % writesets.len()]));
            let size = msg.encoded_len();
            let t0 = now_ns();
            net.send_from(a, b, msg, size).expect("send over loopback");
            ep_a.recv_timeout(Duration::from_secs(5)).expect("ack over loopback");
            times.push((now_ns() - t0) as f64 / 1e3);
        }
        stop.store(true, Ordering::Release);
    });
    net.shutdown();
    out.push(("net.tcp.writeset_rtt_us".into(), median(&times)));
}

/// The probe metrics as `(name, unit)`, in report order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("common.wire.encode_ns", "ns"),
        ("common.wire.decode_ns", "ns"),
        ("common.wire.bytes_per_writeset", "B"),
        ("pagestore.diff.compute_ns", "ns"),
        ("pagestore.diff.apply_ns", "ns"),
        ("pagestore.diff.bytes_per_page", "B"),
        ("memdb.index.lookup_ns", "ns"),
        ("memdb.index.range100_ns", "ns"),
        ("memdb.txn.update_commit_ns", "ns"),
    ]
    .map(|(n, u)| (n.to_owned(), u))
    .to_vec();
    v.extend(InteractionKind::ALL.iter().map(|k| (format!("sql.exec.{}_us", k.name()), "us")));
    for slaves in [2, 8] {
        v.push((format!("core.scheduler.route_noop_ns.slaves{slaves}"), "ns"));
        v.push((format!("core.replica.commit_ns.slaves{slaves}"), "ns"));
        if slaves == 2 {
            v.extend(
                [
                    ("core.applier.apply_ns_per_diff", "ns"),
                    ("core.applier.rewind_ns_per_step", "ns"),
                    ("epoch.pin_ns", "ns"),
                    ("epoch.gc_sweep_us", "us"),
                ]
                .map(|(n, u)| (n.to_owned(), u)),
            );
        }
    }
    v.push(("net.simnet.msg_ns".into(), "ns"));
    v.push(("net.tcp.writeset_rtt_us".into(), "us"));
    v
}
