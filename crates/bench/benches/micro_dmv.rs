//! Criterion micro-benchmarks for the design choices DESIGN.md calls
//! out:
//!
//! * `pagediff/*` — byte-diff encoding vs full-page shipping (ablation
//!   1: the paper ships fine-grained modifications, not pages);
//! * `version/*` — version-vector operations on the scheduler hot path;
//! * `btree/*` — page-based B+Tree index operations (the master's
//!   "costly index updates": inserts in key order and out of it, on
//!   integer and on string keys, deletes), and a key set resolved in one
//!   walk against the same keys looked up one by one;
//! * `exec/*` — a whole select through the executor on the stand-alone
//!   engine: BestSellers, which aggregates below its joins, next to the
//!   same statement made to join every order line, and a join's keys
//!   numbered as dense integers next to the same join on strings;
//!   BuyConfirm's writes, commit excluded, on an `MvccCow` engine and,
//!   abort included, on a `TwoPhase` one; and SearchResults' title and
//!   author searches, full scans that stop at their limit;
//! * `reuse/*` — a slave's result store: BestSellers answered from it and
//!   executed and stored, and what a point select's key hash and
//!   doorkeeper probe cost next to the select;
//! * `locks/*` — per-page 2PL lock manager;
//! * `writeset/*` — the capture → broadcast-encode → apply pipeline;
//! * `fanout/*` — what a commit's fan-out costs its sender: one shared
//!   allocation against a deep clone per target, and one `broadcast` on
//!   the simulated LAN;
//! * `scheduler/*` — one single-row update end to end on the 2007 LAN
//!   with the §4.6 log insert: request hop, master commit and ack round
//!   (the insert runs alongside), then the reply hop; and the same
//!   update matching no row, which commits nothing and so pays neither
//!   the ack round nor the insert;
//! * `clock/*` — the wall time one modeled wait takes: a NIC
//!   serialization slot, a LAN hop, and the scheduler's log insert plus
//!   reply hop, which a writing update pays in full when its ack round
//!   ends before the insert. What a row reports over its name is the
//!   OS's overshoot.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dmv_common::clock::{sleep_wall, SimClock, TimeScale};
use dmv_common::config::{ConcurrencyMode, CpuProfile, NetProfile};
use dmv_common::ids::{NodeId, PageId, TableId, TxnId};
use dmv_common::rng::seeded;
use dmv_common::version::VersionVector;
use dmv_core::messages::{Msg, WriteSet};
use dmv_core::reuse::{Key, ResultStore};
use dmv_core::{ClusterSpec, DmvCluster, PendingApplier};
use dmv_memdb::index::BTreeIndex;
use dmv_memdb::lock::{LockManager, LockMode};
use dmv_memdb::{MemDb, MemDbOptions, Txn};
use dmv_net::{SimnetTransport, Transport};
use dmv_pagestore::diff::PageDiff;
use dmv_pagestore::{PageStore, PAGE_SIZE};
use dmv_sql::exec::{execute, ExecContext, ExecRunner, ResultSet, StatementRunner};
use dmv_sql::query::{Access, AggFn, Expr, Join, Query, Select, SetExpr};
use dmv_sql::schema::{ColType, Column, IndexDef, Schema, TableSchema};
use dmv_sql::value::Value;
use dmv_tpcw::interactions::{plan, ClientState, IdAllocator, InteractionKind};
use dmv_tpcw::populate::{generate, TpcwScale, TITLE_WORDS};
use dmv_tpcw::schema::{self as tpcw, tpcw_schema};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn sparse_change(before: &[u8], n_bytes: usize) -> Vec<u8> {
    let mut after = before.to_vec();
    for i in 0..n_bytes {
        let at = (i * 131) % PAGE_SIZE;
        after[at] = after[at].wrapping_add(1);
    }
    after
}

fn bench_pagediff(c: &mut Criterion) {
    let before = vec![0u8; PAGE_SIZE];
    let after_small = sparse_change(&before, 32);
    let after_big = sparse_change(&before, 1024);

    let mut g = c.benchmark_group("pagediff");
    g.bench_function("compute_small_change", |b| {
        b.iter(|| PageDiff::compute(black_box(&before), black_box(&after_small)))
    });
    g.bench_function("compute_large_change", |b| {
        b.iter(|| PageDiff::compute(black_box(&before), black_box(&after_big)))
    });
    let diff = PageDiff::compute(&before, &after_small);
    g.bench_function("apply_small_change", |b| {
        b.iter_batched(
            || before.clone(),
            |mut page| diff.apply(black_box(&mut page)),
            BatchSize::SmallInput,
        )
    });
    // Ablation: shipping the whole page instead of the diff.
    g.bench_function("full_page_copy", |b| {
        b.iter_batched(
            || before.clone(),
            |mut page| page.copy_from_slice(black_box(&after_small)),
            BatchSize::SmallInput,
        )
    });
    println!(
        "pagediff ablation: diff wire size {} B vs full page {} B",
        diff.encoded_len(),
        PAGE_SIZE
    );
    g.finish();
}

fn bench_version(c: &mut Criterion) {
    let mut g = c.benchmark_group("version");
    let a = VersionVector::from_entries((0..10).map(|i| i * 7).collect());
    let b2 = VersionVector::from_entries((0..10).map(|i| i * 5 + 3).collect());
    g.bench_function("merge_10_tables", |b| {
        b.iter_batched(|| a.clone(), |mut v| v.merge(black_box(&b2)), BatchSize::SmallInput)
    });
    g.bench_function("dominates_10_tables", |b| b.iter(|| a.dominates(black_box(&b2))));
    g.finish();
}

fn kv_schema() -> Schema {
    Schema::new(vec![TableSchema::new(
        TableId(0),
        "kv",
        vec![Column::new("k", ColType::Int), Column::new("v", ColType::Str)],
        vec![IndexDef::unique("pk", vec![0])],
    )])
}

fn str_schema() -> Schema {
    Schema::new(vec![TableSchema::new(
        TableId(0),
        "users",
        vec![Column::new("uname", ColType::Str), Column::new("v", ColType::Str)],
        vec![IndexDef::unique("by_uname", vec![0])],
    )])
}

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    g.bench_function("insert_1000_sequential", |b| {
        b.iter_batched(
            || MemDb::new(kv_schema(), MemDbOptions::default()),
            |db| {
                let mut txn = db.begin_update();
                for k in 0..1000i64 {
                    txn.insert(TableId(0), vec![k.into(), "value".into()]).unwrap();
                }
                txn.commit(None);
            },
            BatchSize::SmallInput,
        )
    });
    // Keys in an order that is neither ascending nor descending: after
    // the first pass most inserts land mid-leaf. Dropping the engine is
    // not timed.
    g.bench_function("insert_1000_shuffled", |b| {
        b.iter_batched(
            || MemDb::new(kv_schema(), MemDbOptions::default()),
            |db| {
                let mut txn = db.begin_update();
                for i in 0..1000i64 {
                    txn.insert(TableId(0), vec![(i * 7 % 1000).into(), "value".into()]).unwrap();
                }
                txn.commit(None);
                db
            },
            BatchSize::SmallInput,
        )
    });
    // The same shuffled inserts on a unique string key shaped like
    // C_UNAME (`user<id>`): a comparison walks text, not one integer.
    g.bench_function("insert_1000_str", |b| {
        b.iter_batched(
            || MemDb::new(str_schema(), MemDbOptions::default()),
            |db| {
                let mut txn = db.begin_update();
                for i in 0..1000i64 {
                    let key = format!("user{}", i * 7 % 1000);
                    txn.insert(TableId(0), vec![key.into(), "value".into()]).unwrap();
                }
                txn.commit(None);
                db
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("delete_1000", |b| {
        b.iter_batched(
            || {
                let db = MemDb::new(kv_schema(), MemDbOptions::default());
                let mut txn = db.begin_update();
                let rids: Vec<_> = (0..1000i64)
                    .map(|k| txn.insert(TableId(0), vec![k.into(), "value".into()]).unwrap())
                    .collect();
                txn.commit(None);
                (db, rids)
            },
            |(db, rids)| {
                let mut txn = db.begin_update();
                for rid in rids {
                    txn.delete(TableId(0), rid).unwrap();
                }
                txn.commit(None);
                db
            },
            BatchSize::SmallInput,
        )
    });
    let db = MemDb::new(kv_schema(), MemDbOptions::default());
    {
        let mut txn = db.begin_update();
        for k in 0..10_000i64 {
            txn.insert(TableId(0), vec![k.into(), "value".into()]).unwrap();
        }
        txn.commit(None);
    }
    g.bench_function("point_lookup_10k", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 37) % 10_000;
            let mut txn = db.begin_read_local();
            black_box(txn.index_probe(TableId(0), 0, &[&[Value::Int(i)]], &[0, 1]).unwrap());
        })
    });
    // A key set in one walk, and the same keys one descent each: 1 000
    // neighbours (a join over a dense key range) and 50 keys 200 apart
    // (about one per leaf, where the walk re-descends or follows `next`).
    let pk = BTreeIndex::new(TableId(0), 0);
    for (name, keys) in [
        ("1000_dense", (4000..5000i64).map(Value::Int).collect::<Vec<_>>()),
        ("50_sparse_of_10k", (0..50i64).map(|i| Value::Int(100 + 200 * i)).collect()),
    ] {
        let probe: Vec<&[Value]> = keys.iter().map(std::slice::from_ref).collect();
        g.bench_function(format!("lookup_many_{name}"), |b| {
            b.iter(|| {
                let mut txn = db.begin_read_local();
                black_box(pk.lookup_many(&mut txn, black_box(&probe)).unwrap());
            })
        });
        g.bench_function(format!("point_lookups_{name}"), |b| {
            b.iter(|| {
                let mut txn = db.begin_read_local();
                for key in black_box(&probe) {
                    black_box(pk.lookup_eq(&mut txn, key).unwrap());
                }
            })
        });
    }
    g.bench_function("range_scan_100", |b| {
        b.iter(|| {
            let mut txn = db.begin_read_local();
            black_box(
                txn.index_range(
                    TableId(0),
                    0,
                    Some((&[Value::Int(5000)], true)),
                    Some((&[Value::Int(5099)], true)),
                    false,
                    None,
                    &[0, 1],
                )
                .unwrap(),
            );
        })
    });
    g.finish();
}

/// The small TPC-W population on a stand-alone engine in `mode`, and
/// its ids.
fn small_tpcw(mode: ConcurrencyMode) -> (MemDb, IdAllocator, TpcwScale) {
    let scale = TpcwScale::small();
    let pop = generate(scale, 20_070_625);
    let opts = MemDbOptions { concurrency: mode, ..MemDbOptions::default() };
    let db = MemDb::new(tpcw_schema(), opts);
    for (table, rows) in &pop.tables {
        for chunk in rows.chunks(256) {
            let mut txn = db.begin_update();
            for row in chunk {
                txn.insert(*table, row.clone()).unwrap();
            }
            txn.commit(None);
        }
    }
    let ids = IdAllocator::from_population(scale, &pop);
    (db, ids, scale)
}

/// SearchResults' two full scans, for one title word: the items whose
/// title holds it, with their authors, the first 50 in heap order; and the
/// authors whose last name starts with it, with their items.
fn searches() -> [(&'static str, Query); 2] {
    use tpcw::{author as au, item as it};
    let word = TITLE_WORDS[3];
    let by_title = Select::scan(tpcw::ITEM)
        .filter(Expr::like(it::I_TITLE, &format!("%{word}%")))
        .join(Join {
            table: tpcw::AUTHOR,
            left_col: it::I_A_ID,
            right_col: au::A_ID,
            right_index: Some(0),
        })
        .limit(50);
    let by_author = Select::scan(tpcw::AUTHOR)
        .filter(Expr::like(au::A_LNAME, &format!("{word}%")))
        .join(Join {
            table: tpcw::ITEM,
            left_col: au::A_ID,
            right_col: it::I_A_ID,
            right_index: Some(it::IDX_BY_AUTHOR),
        })
        .limit(50);
    [("search_title", Query::Select(by_title)), ("search_author", Query::Select(by_author))]
}

/// BestSellers — order lines of the latest 3 333 orders ⋈ items ⋈
/// authors, grouped by item — on the small TPC-W population.
fn bench_exec(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec");
    let (db, ids, scale) = small_tpcw(ConcurrencyMode::MvccCow);
    let (mut rng, mut state) = (seeded(1), ClientState::new(1));
    let mut best = plan(InteractionKind::BestSellers, &mut rng, &mut state, &ids, scale, 13_000);
    g.bench_function("best_sellers", |b| {
        b.iter(|| {
            let mut txn = db.begin_read_local();
            (best.exec)(&mut ExecRunner::new(&mut txn)).unwrap();
        })
    });
    // BestSellers with one aggregate over an item column added: every
    // order line goes through both joins and the aggregate.
    let (ol, it) = (tpcw::order_line::OL_I_ID, 5 + tpcw::item::I_ID);
    let general = Query::Select(
        Select::scan(tpcw::ORDER_LINE)
            .access(Access::IndexRange {
                index_no: 1,
                lo: Some((vec![(ids.current_max_order() - 3333).max(1).into()], true)),
                hi: None,
                rev: false,
                scan_limit: None,
            })
            .join(Join { table: tpcw::ITEM, left_col: ol, right_col: 0, right_index: Some(0) })
            .join(Join {
                table: tpcw::AUTHOR,
                left_col: 5 + tpcw::item::I_A_ID,
                right_col: 0,
                right_index: Some(0),
            })
            .group(
                vec![it, 5 + tpcw::item::I_TITLE],
                vec![AggFn::Sum(tpcw::order_line::OL_QTY), AggFn::Max(it)],
            )
            .order_by(2, true)
            .limit(50),
    );
    g.bench_function("group_join_general", |b| {
        b.iter(|| {
            let mut txn = db.begin_read_local();
            black_box(execute(&mut txn, &general).unwrap());
        })
    });
    // BuyConfirm's statements for a new client — its cart and cart line,
    // the stock updates, the order, order line and card charge, the cart's
    // deletes — in one update transaction, which is dropped untimed: no
    // commit, so every iteration finds the same population.
    let mut buy_plan = || {
        let mut client = ClientState::new(1);
        plan(InteractionKind::BuyConfirm, &mut rng, &mut client, &ids, scale, 13_000)
    };
    g.bench_function("buy_confirm", |b| {
        b.iter_batched(
            &mut buy_plan,
            |mut buy| {
                let mut txn = db.begin_update();
                (buy.exec)(&mut ExecRunner::new(&mut txn)).unwrap();
                txn
            },
            BatchSize::SmallInput,
        )
    });
    // The same on a TwoPhase engine: the same private page copies, and a
    // page lock taken before each page is touched. The locks would stall
    // the next iteration, so the abort that releases them is timed too.
    let (two_phase, ..) = small_tpcw(ConcurrencyMode::TwoPhase);
    g.bench_function("buy_confirm_2pl", |b| {
        b.iter_batched(
            &mut buy_plan,
            |mut buy| {
                let mut txn = two_phase.begin_update();
                (buy.exec)(&mut ExecRunner::new(&mut txn)).unwrap();
                txn.abort();
            },
            BatchSize::SmallInput,
        )
    });
    for (name, search) in searches() {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut txn = db.begin_read_local();
                black_box(execute(&mut txn, &search).unwrap());
            })
        });
    }

    // 1 000 rows ⋈ 1 000 rows on a unique index, once on keys that are
    // neighbouring integers and once on the same keys as strings: what
    // numbering a stage's keys and ordering them for the probe costs.
    let int = |name: &str| Column::new(name, ColType::Int);
    let text = |name: &str| Column::new(name, ColType::Str);
    let (left, right) = (TableId(0), TableId(1));
    let schema = Schema::new(vec![
        TableSchema::new(
            left,
            "l",
            vec![int("id"), int("k"), text("s")],
            vec![IndexDef::unique("pk", vec![0])],
        ),
        TableSchema::new(
            right,
            "r",
            vec![int("id"), text("name")],
            vec![IndexDef::unique("pk", vec![0]), IndexDef::unique("by_name", vec![1])],
        ),
    ]);
    let db = MemDb::new(schema, MemDbOptions::default());
    let mut txn = db.begin_update();
    for i in 0..1000i64 {
        // Keys in an order that is neither ascending nor descending.
        let k = i * 7 % 1000;
        txn.insert(left, vec![i.into(), k.into(), format!("name {k:04}").into()]).unwrap();
        txn.insert(right, vec![i.into(), format!("name {i:04}").into()]).unwrap();
    }
    txn.commit(None);
    for (name, left_col, right_col) in [("dense_int", 1, 0), ("strings", 2, 1)] {
        let join = Join { table: right, left_col, right_col, right_index: Some(right_col as u8) };
        let q = Query::Select(
            Select::scan(left).join(join).order_by(0, true).limit(1).project(vec![0]),
        );
        g.bench_function(format!("join_keys_{name}_1000"), |b| {
            b.iter(|| {
                let mut txn = db.begin_read_local();
                black_box(execute(&mut txn, &q).unwrap());
            })
        });
    }
    g.finish();
}

/// Answers every statement through a slave's result store, as a
/// replica's statement runner does.
struct Reusing<'a, 'db> {
    store: &'a ResultStore,
    txn: &'a mut Txn<'db>,
    applier: &'a PendingApplier,
}

impl StatementRunner for Reusing<'_, '_> {
    fn run(&mut self, q: &Query) -> dmv_common::error::DmvResult<ResultSet> {
        self.store.answer(self.txn, q, self.applier).map(|(rs, _)| rs)
    }
}

/// Tagged selects through the result store on the small TPC-W
/// population: BestSellers answered from the store, BestSellers executed
/// and stored (the key's lineage moves every iteration), and what a
/// point select pays for its key's hash and the doorkeeper probe — next
/// to the select itself.
fn bench_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("reuse");
    let (db, ids, scale) = small_tpcw(ConcurrencyMode::MvccCow);
    let applier = Arc::new(PendingApplier::new(
        Arc::clone(db.store()),
        db.schema().len(),
        Duration::from_secs(1),
    ));
    db.set_gate(Arc::clone(&applier) as Arc<dyn dmv_memdb::ReadGate>);
    let tag = VersionVector::new(db.schema().len());
    let (mut rng, mut state) = (seeded(1), ClientState::new(1));
    let mut best = plan(InteractionKind::BestSellers, &mut rng, &mut state, &ids, scale, 13_000);
    let store = ResultStore::new();
    let mut best_sellers = || {
        let mut txn = db.begin_read_tagged(tag.clone());
        (best.exec)(&mut Reusing { store: &store, txn: &mut txn, applier: &applier }).unwrap();
        txn.commit(None);
    };
    g.bench_function("best_sellers_hit", |b| b.iter(&mut best_sellers));
    g.bench_function("best_sellers_miss_stored", |b| {
        b.iter(|| {
            applier.new_lineage();
            best_sellers();
        })
    });
    let items = scale.items as i64;
    let point = |i: i64| Query::Select(Select::by_pk(tpcw::ITEM, vec![(i % items + 1).into()]));
    let mut i = 0i64;
    g.bench_function("by_pk_select", |b| {
        b.iter(|| {
            i += 1;
            let mut txn = db.begin_read_tagged(tag.clone());
            black_box(execute(&mut txn, &point(i)).unwrap());
            txn.commit(None);
        })
    });
    let probes = ResultStore::new();
    g.bench_function("by_pk_key_and_probe", |b| {
        b.iter_batched(
            || {
                i += 1;
                point(i)
            },
            |q| {
                let key = Key::new(&q, &tag).unwrap();
                black_box(probes.lookup(&key, 0));
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_locks(c: &mut Criterion) {
    let mut g = c.benchmark_group("locks");
    let mgr = LockManager::new(Duration::from_millis(100));
    let txn = TxnId::new(NodeId(0), 1);
    g.bench_function("acquire_release_exclusive_8pages", |b| {
        b.iter(|| {
            for p in 0..8u32 {
                mgr.acquire(txn, PageId::heap(TableId(0), p), LockMode::Exclusive).unwrap();
            }
            mgr.release_all(txn);
        })
    });
    g.finish();
}

fn bench_writeset(c: &mut Criterion) {
    let mut g = c.benchmark_group("writeset");
    // Capture: one update transaction producing diffs.
    g.bench_function("capture_update_txn", |b| {
        let db = MemDb::new(kv_schema(), MemDbOptions::default());
        {
            let mut txn = db.begin_update();
            for k in 0..1000i64 {
                txn.insert(TableId(0), vec![k.into(), "value".into()]).unwrap();
            }
            txn.commit(None);
        }
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 1) % 1000;
            let mut txn = db.begin_update();
            let hit = txn.index_probe(TableId(0), 0, &[&[Value::Int(k)]], &[0, 1]).unwrap();
            let rid = hit.rows.rids()[0];
            let mut row = hit.rows.into_rows().remove(0);
            row[1] = "updated".into();
            txn.update(TableId(0), rid, row).unwrap();
            black_box(txn.precommit());
            txn.commit(None);
        })
    });
    // Apply: a slave enqueue + materialize cycle.
    g.bench_function("enqueue_and_materialize", |b| {
        let store = Arc::new(PageStore::new_free());
        let applier = PendingApplier::new(Arc::clone(&store), 1, Duration::from_secs(1));
        let before = vec![0u8; PAGE_SIZE];
        let after = sparse_change(&before, 64);
        let diff = PageDiff::compute(&before, &after);
        let mut version = 0u64;
        b.iter(|| {
            version += 1;
            let mut vv = VersionVector::new(1);
            vv.set(TableId(0), version);
            let ws = Arc::new(WriteSet {
                txn: TxnId::new(NodeId(0), version),
                seq: version,
                versions: vv,
                pages: vec![(PageId::heap(TableId(0), 0), diff.clone())],
            });
            applier.enqueue(&ws);
            applier.apply_page(PageId::heap(TableId(0), 0));
        })
    });
    g.finish();
}

/// A write-set shaped like a multi-page update: `n_pages` pages, each
/// with a moderate sparse diff.
fn multi_page_writeset(n_pages: u32) -> WriteSet {
    let before = vec![0u8; PAGE_SIZE];
    let after = sparse_change(&before, 256);
    let diff = PageDiff::compute(&before, &after);
    WriteSet {
        txn: TxnId::new(NodeId(0), 1),
        seq: 1,
        versions: VersionVector::from_entries(vec![1]),
        pages: (0..n_pages).map(|p| (PageId::heap(TableId(0), p), diff.clone())).collect(),
    }
}

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("fanout");
    let template = multi_page_writeset(16);
    for &n in &[1usize, 2, 4, 8] {
        // New hot path: one deep allocation per commit, an Arc clone per
        // target. Should stay ~flat in the target count.
        g.bench_function(format!("arc_{n}_targets"), |b| {
            b.iter(|| {
                let ws = Arc::new(black_box(&template).clone());
                let msgs: Vec<Msg> = (0..n).map(|_| Msg::WriteSet(Arc::clone(&ws))).collect();
                black_box(msgs)
            })
        });
        // Ablation (pre-refactor behavior): a deep write-set clone per
        // target — linear in the target count.
        g.bench_function(format!("deep_clone_{n}_targets"), |b| {
            b.iter(|| {
                let msgs: Vec<Msg> =
                    (0..n).map(|_| Msg::WriteSet(Arc::new(black_box(&template).clone()))).collect();
                black_box(msgs)
            })
        });
    }
    g.finish();
    // What one fan-out costs its sender on the simulated LAN (wall time
    // per `broadcast` of an 840 B write-set). Nothing here drains the
    // links, so each sample gets a fresh fabric and the window is short
    // enough that what it queues stays in the tens of MiB.
    let mut short = Criterion::default().measurement_time(Duration::from_millis(200));
    let mut g = short.benchmark_group("fanout");
    let msg = Msg::WriteSet(Arc::new(multi_page_writeset(1)));
    for &n in &[2u32, 8] {
        let targets: Vec<NodeId> = (1..=n).map(NodeId).collect();
        g.bench_function(format!("simnet_broadcast_{n}_targets_lan"), |b| {
            let net = SimnetTransport::new(NetProfile::lan_2007(), SimClock::default());
            let _links: Vec<_> = targets.iter().map(|t| net.register(*t)).collect();
            b.iter(|| net.broadcast(NodeId(0), &targets, &msg, 840))
        });
    }
    g.finish();
}

fn bench_applier_contention(c: &mut Criterion) {
    const THREADS: u32 = 4;
    const PAGES_PER_THREAD: u32 = 64;
    let mut g = c.benchmark_group("applier");
    // Four threads enqueue + materialize disjoint page sets on one
    // applier: with the sharded queue map they mostly touch different
    // shards instead of serializing on a global map lock.
    g.bench_function("contended_enqueue_apply_4_threads", |b| {
        let before = vec![0u8; PAGE_SIZE];
        let after = sparse_change(&before, 64);
        let diff = PageDiff::compute(&before, &after);
        b.iter_batched(
            || {
                let store = Arc::new(PageStore::new_free());
                Arc::new(PendingApplier::new(store, 1, Duration::from_secs(1)))
            },
            |applier| {
                std::thread::scope(|s| {
                    for t in 0..THREADS {
                        let applier = Arc::clone(&applier);
                        let diff = diff.clone();
                        s.spawn(move || {
                            for p in 0..PAGES_PER_THREAD {
                                let page = PageId::heap(TableId(0), t * PAGES_PER_THREAD + p);
                                let ws = Arc::new(WriteSet {
                                    txn: TxnId::new(NodeId(t), u64::from(p) + 1),
                                    seq: u64::from(p) + 1,
                                    versions: VersionVector::from_entries(vec![u64::from(p)]),
                                    pages: vec![(page, diff.clone())],
                                });
                                applier.enqueue(&ws);
                                applier.apply_page(page);
                            }
                        });
                    }
                });
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    let mut spec = ClusterSpec::fast_test(kv_schema());
    spec.n_slaves = 4;
    let cluster = DmvCluster::start(spec);
    cluster.finish_load();
    let session = cluster.session();
    // Route + tag + slave dispatch with a no-op statement closure: the
    // scheduler hot path (atomic latest snapshot, lock-free load scan).
    g.bench_function("read_route_noop", |b| {
        b.iter(|| session.read_with(&mut |_r| Ok(())).unwrap())
    });
    g.bench_function("read_route_noop_4_threads", |b| {
        b.iter_batched(
            || (),
            |()| {
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let session = cluster.session();
                        s.spawn(move || {
                            for _ in 0..64 {
                                session.read_with(&mut |_r| Ok(())).unwrap();
                            }
                        });
                    }
                });
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
    cluster.shutdown();
}

fn bench_scheduler(c: &mut Criterion) {
    // One single-row update through a session with `ClusterSpec::new`'s
    // 2007 LAN and 500 µs §4.6 log insert, no modeled CPU, no
    // compression: what is left over the modeled waits is the commit
    // path's own cost and the OS's overshoot.
    let mut spec = ClusterSpec::new(kv_schema(), TimeScale::realtime());
    spec.n_slaves = 2;
    spec.cpu = CpuProfile::zero();
    let cluster = DmvCluster::start(spec);
    cluster
        .load_rows(TableId(0), (0..100i64).map(|k| vec![k.into(), "v".into()]).collect())
        .unwrap();
    cluster.finish_load();
    let session = cluster.session();
    let update = [Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 7)),
        set: vec![(1, SetExpr::Value("w".into()))],
    }];
    // The same update with a filter no row matches: the master commits
    // nothing, so there is no ack round and no §4.6 log insert.
    let writeless = [Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 1_000)),
        set: vec![(1, SetExpr::Value("w".into()))],
    }];
    let mut g = c.benchmark_group("scheduler");
    g.measurement_time(Duration::from_secs(1));
    g.bench_function("update_lan_2slaves", |b| b.iter(|| session.update(&update).unwrap()));
    g.bench_function("update_writeless_lan_2slaves", |b| {
        b.iter(|| session.update(&writeless).unwrap())
    });
    g.finish();
    cluster.shutdown();
}

fn bench_clock(c: &mut Criterion) {
    // The first clock of the process tightens its timer slack, as
    // `DmvCluster::start` does before it spawns a node.
    let _ = SimClock::default();
    let mut g = c.benchmark_group("clock");
    g.measurement_time(Duration::from_millis(500));
    for us in [7u64, 120, 627] {
        g.bench_function(format!("sleep_{us}us"), |b| {
            b.iter(|| sleep_wall(Duration::from_micros(us)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    // Short measurement windows: the full figure suite shares the wall
    // clock with these micro-benchmarks.
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20);
    targets = bench_pagediff, bench_version, bench_btree, bench_exec, bench_reuse, bench_locks,
        bench_writeset,
        bench_fanout, bench_applier_contention, bench_routing, bench_scheduler, bench_clock
}
criterion_main!(benches);
