//! End-to-end TPC-W workload tests against all three backends.

use dmv_common::clock::{SimClock, TimeScale};
use dmv_common::error::DmvError;
use dmv_common::ids::{NodeId, TxnId};
use dmv_core::cluster::{ClusterSpec, DmvCluster};
use dmv_ondisk::{DiskDb, DiskDbOptions, InnoDbTier};
use dmv_tpcw::backend::{load_cluster, load_diskdb, load_tier};
use dmv_tpcw::emulator::{run_emulator, EmulatorConfig};
use dmv_tpcw::interactions::{plan, ClientState, IdAllocator, InteractionKind};
use dmv_tpcw::populate::{generate, TpcwScale};
use dmv_tpcw::schema::tpcw_schema;
use dmv_tpcw::{Backend, Mix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fast_clock() -> SimClock {
    SimClock::new(TimeScale::new(1.0))
}

fn dmv_backend(scale: TpcwScale) -> (Arc<DmvCluster>, Backend, Arc<IdAllocator>) {
    let mut spec = ClusterSpec::fast_test(tpcw_schema());
    spec.n_slaves = 2;
    let cluster = DmvCluster::start(spec);
    let pop = generate(scale, 11);
    load_cluster(&cluster, &pop).unwrap();
    cluster.finish_load();
    let ids = Arc::new(IdAllocator::from_population(scale, &pop));
    let backend = Backend::Dmv(cluster.session());
    (cluster, backend, ids)
}

#[test]
fn every_interaction_runs_on_dmv() {
    let scale = TpcwScale::tiny();
    let (cluster, backend, ids) = dmv_backend(scale);
    let mut rng = dmv_common::rng::seeded(3);
    let mut state = ClientState::new(5);
    for kind in InteractionKind::ALL {
        for rep in 0..3 {
            let mut i = plan(kind, &mut rng, &mut state, &ids, scale, 13_000 + rep);
            backend.run(&mut i, 10).unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
        }
    }
    cluster.shutdown();
}

#[test]
fn every_interaction_runs_on_diskdb() {
    let scale = TpcwScale::tiny();
    let db = Arc::new(DiskDb::new(
        tpcw_schema(),
        DiskDbOptions {
            clock: SimClock::new(TimeScale::new(1e-6)),
            buffer_pages: 4096,
            ..Default::default()
        },
    ));
    let pop = generate(scale, 11);
    load_diskdb(&db, &pop).unwrap();
    let ids = Arc::new(IdAllocator::from_population(scale, &pop));
    let backend = Backend::Disk(Arc::clone(&db));
    let mut rng = dmv_common::rng::seeded(4);
    let mut state = ClientState::new(5);
    for kind in InteractionKind::ALL {
        let mut i = plan(kind, &mut rng, &mut state, &ids, scale, 13_000);
        backend.run(&mut i, 10).unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
    }
}

#[test]
fn every_interaction_runs_on_tier() {
    let scale = TpcwScale::tiny();
    let tier = Arc::new(InnoDbTier::new(
        tpcw_schema(),
        2,
        DiskDbOptions {
            clock: SimClock::new(TimeScale::new(1e-6)),
            buffer_pages: 4096,
            ..Default::default()
        },
    ));
    let pop = generate(scale, 11);
    load_tier(&tier, &pop).unwrap();
    let ids = Arc::new(IdAllocator::from_population(scale, &pop));
    let backend = Backend::Tier(Arc::clone(&tier));
    let mut rng = dmv_common::rng::seeded(5);
    let mut state = ClientState::new(5);
    for kind in InteractionKind::ALL {
        let mut i = plan(kind, &mut rng, &mut state, &ids, scale, 13_000);
        backend.run(&mut i, 10).unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
    }
    // Actives stay consistent: spare refresh then both actives answer.
    tier.refresh_spare().unwrap();
}

#[test]
fn tier_retries_an_interaction_whose_first_attempt_aborts() {
    let scale = TpcwScale::tiny();
    let tier = Arc::new(InnoDbTier::new(
        tpcw_schema(),
        2,
        DiskDbOptions {
            clock: SimClock::new(TimeScale::new(1e-6)),
            buffer_pages: 4096,
            ..Default::default()
        },
    ));
    let pop = generate(scale, 11);
    load_tier(&tier, &pop).unwrap();
    let ids = Arc::new(IdAllocator::from_population(scale, &pop));
    let mut rng = dmv_common::rng::seeded(6);
    let mut state = ClientState::new(5);
    let mut planned =
        plan(InteractionKind::CustomerRegistration, &mut rng, &mut state, &ids, scale, 13_000);
    let attempts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&attempts);
    let mut inner = planned.exec;
    planned.exec = Box::new(move |runner| {
        if seen.fetch_add(1, Ordering::SeqCst) == 0 {
            return Err(DmvError::Deadlock(TxnId::new(NodeId(0), 1)));
        }
        inner(runner)
    });
    Backend::Tier(Arc::clone(&tier)).run(&mut planned, 3).unwrap();
    assert_eq!(attempts.load(Ordering::SeqCst), 2, "one abort, then one successful retry");
}

#[test]
fn emulator_produces_throughput_on_dmv() {
    let scale = TpcwScale::tiny();
    let (cluster, backend, ids) = dmv_backend(scale);
    let cfg = EmulatorConfig {
        mix: Mix::Shopping,
        n_clients: 4,
        think_time: Duration::from_millis(5),
        duration: Duration::from_secs(2),
        warmup: Duration::from_millis(200),
        retries: 10,
        seed: 7,
        series_window: Duration::from_millis(500),
    };
    let report = run_emulator(&backend, fast_clock(), &ids, scale, cfg);
    assert!(report.interactions > 50, "only {} interactions", report.interactions);
    assert!(report.wips > 10.0, "wips {}", report.wips);
    // Retry exhaustion under heavy contention on the tiny database is
    // tolerable but must stay rare.
    assert!(
        (report.errors as f64) < (report.interactions as f64) * 0.05,
        "errors {} vs {} interactions",
        report.errors,
        report.interactions
    );
    assert!(report.updates > 0, "shopping mix must include updates");
    let frac = report.updates as f64 / report.interactions as f64;
    assert!((0.1..0.35).contains(&frac), "update fraction {frac}");
    assert!(report.mean_latency > Duration::ZERO);
    cluster.shutdown();
}

#[test]
fn emulator_series_records_events() {
    let scale = TpcwScale::tiny();
    let (cluster, backend, ids) = dmv_backend(scale);
    let cfg = EmulatorConfig {
        mix: Mix::Browsing,
        n_clients: 2,
        think_time: Duration::from_millis(5),
        duration: Duration::from_secs(1),
        warmup: Duration::ZERO,
        retries: 10,
        seed: 9,
        series_window: Duration::from_millis(250),
    };
    let report = run_emulator(&backend, fast_clock(), &ids, scale, cfg);
    let total: u64 = report.series.iter().map(|p| p.events).sum();
    assert!(total >= report.interactions, "series {total} < summary {}", report.interactions);
    assert!(report.series.len() >= 4);
    cluster.shutdown();
}

#[test]
fn dmv_and_diskdb_agree_on_workload_effects() {
    // Run the same deterministic interaction sequence on both systems;
    // the resulting order/item state must match (the executor is shared,
    // so this checks the replication layer changes nothing semantically).
    let scale = TpcwScale::tiny();
    let pop = generate(scale, 11);

    let (cluster, dmv, dmv_ids) = dmv_backend(scale);
    let db = Arc::new(DiskDb::new(
        tpcw_schema(),
        DiskDbOptions {
            clock: SimClock::new(TimeScale::new(1e-6)),
            buffer_pages: 4096,
            ..Default::default()
        },
    ));
    load_diskdb(&db, &pop).unwrap();
    let disk_ids = Arc::new(IdAllocator::from_population(scale, &pop));
    let disk = Backend::Disk(Arc::clone(&db));

    for (backend, ids) in [(&dmv, &dmv_ids), (&disk, &disk_ids)] {
        let mut rng = dmv_common::rng::seeded(21);
        let mut state = ClientState::new(2);
        for step in 0..40 {
            let kind = Mix::Ordering.sample(&mut rng);
            let mut i = plan(kind, &mut rng, &mut state, ids, scale, 13_000 + step);
            backend.run(&mut i, 10).unwrap();
        }
    }

    use dmv_sql::query::{Query, Select};
    use dmv_tpcw::schema::{ORDERS, ORDER_LINE};
    let q_orders = Query::Select(Select::scan(ORDERS).order_by(0, false));
    let q_lines = Query::Select(Select::scan(ORDER_LINE).order_by(0, false));
    let dmv_orders = cluster.session().read_retry(std::slice::from_ref(&q_orders), 10).unwrap();
    let disk_orders = db.execute_txn(&[q_orders]).unwrap();
    assert_eq!(dmv_orders[0].rows, disk_orders[0].rows, "orders diverged");
    let dmv_lines = cluster.session().read_retry(std::slice::from_ref(&q_lines), 10).unwrap();
    let disk_lines = db.execute_txn(&[q_lines]).unwrap();
    assert_eq!(dmv_lines[0].rows, disk_lines[0].rows, "order lines diverged");
    cluster.shutdown();
}
