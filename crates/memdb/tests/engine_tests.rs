//! Engine-level tests for dmv-memdb: executor integration, transaction
//! semantics (commit/abort), B+Tree behaviour under load, and the
//! replica-convergence property that the replication layer relies on:
//! applying a transaction's captured write-set to a second store yields
//! bit-identical pages.

use dmv_common::config::ConcurrencyMode;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{NodeId, PageId, PageSpace, RowId, TableId};
use dmv_common::version::VersionVector;
use dmv_memdb::index::BTreeIndex;
use dmv_memdb::{heap, MemDb, MemDbOptions, ReadGate, Txn};
use dmv_pagestore::checkpoint::fuzzy_checkpoint;
use dmv_pagestore::store::PageCell;
use dmv_pagestore::{slotted, PageStore};
use dmv_sql::exec::{execute, ExecContext};
use dmv_sql::query::{Access, AggFn, CmpOp, Expr, Join, Query, Select, SetExpr};
use dmv_sql::row::{encode_row, Row};
use dmv_sql::schema::{ColType, Column, IndexDef, Schema, TableSchema};
use dmv_sql::value::Value;
use rand::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every column of the `kv` table, for reads that want whole rows.
const KV_COLS: &[usize] = &[0, 1, 2];

/// The whole `kv` rows whose key in index `index_no` is `key`.
fn lookup(txn: &mut Txn<'_>, index_no: u8, key: i64) -> Vec<(RowId, Row)> {
    let found = txn.index_probe(TableId(0), index_no, &[&[Value::Int(key)]], KV_COLS).unwrap();
    found.rows.rids().to_vec().into_iter().zip(found.rows.into_rows()).collect()
}

fn kv_schema() -> Schema {
    Schema::new(vec![TableSchema::new(
        TableId(0),
        "kv",
        vec![
            Column::new("k", ColType::Int),
            Column::new("v", ColType::Str),
            Column::new("n", ColType::Int),
        ],
        vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_n", vec![2])],
    )])
}

fn two_table_schema() -> Schema {
    Schema::new(vec![
        TableSchema::new(
            TableId(0),
            "item",
            vec![
                Column::new("i_id", ColType::Int),
                Column::new("i_title", ColType::Str),
                Column::new("i_a_id", ColType::Int),
            ],
            vec![IndexDef::unique("pk", vec![0]), IndexDef::non_unique("by_a", vec![2])],
        ),
        TableSchema::new(
            TableId(1),
            "author",
            vec![Column::new("a_id", ColType::Int), Column::new("a_name", ColType::Str)],
            vec![IndexDef::unique("pk", vec![0])],
        ),
    ])
}

fn insert_kv(db: &MemDb, k: i64, v: &str, n: i64) {
    let mut txn = db.begin_update();
    execute(
        &mut txn,
        &Query::Insert { table: TableId(0), rows: vec![vec![k.into(), v.into(), n.into()]] },
    )
    .unwrap();
    txn.commit(None);
}

/// Both concurrency modes. They share one write path — private page
/// copies installed at commit — and differ only in how conflicts are
/// found, so every commit and abort case runs under each.
const MODES: [ConcurrencyMode; 2] = [ConcurrencyMode::TwoPhase, ConcurrencyMode::MvccCow];

fn kv_db(mode: ConcurrencyMode) -> MemDb {
    MemDb::new(kv_schema(), MemDbOptions { concurrency: mode, ..MemDbOptions::default() })
}

/// Every page of `db`, as (version, bytes) images.
fn page_images(db: &MemDb) -> BTreeMap<PageId, Vec<u8>> {
    let store = db.store();
    store
        .page_ids()
        .into_iter()
        .map(|id| (id, store.get(id).unwrap().latch.read().data().to_vec()))
        .collect()
}

fn kv_rows(db: &MemDb) -> Vec<Row> {
    let mut r = db.begin_read_local();
    execute(&mut r, &Query::Select(Select::scan(TableId(0)))).unwrap().rows
}

#[test]
fn insert_commit_read_back() {
    for mode in MODES {
        let db = kv_db(mode);
        insert_kv(&db, 1, "one", 10);
        insert_kv(&db, 2, "two", 20);
        let mut r = db.begin_read_local();
        let rs =
            execute(&mut r, &Query::Select(Select::by_pk(TableId(0), vec![2.into()]))).unwrap();
        assert_eq!(rs.rows.len(), 1, "{mode:?}");
        assert_eq!(rs.rows[0][1], Value::from("two"), "{mode:?}");
    }
}

/// `commit` on an MVCC update that never called `mvcc_install` installs
/// first: the copy-on-write buffers used to be cleared un-installed and
/// the insert vanished without an error.
#[test]
fn mvcc_commit_without_explicit_install_keeps_the_writes() {
    let opts = MemDbOptions { concurrency: ConcurrencyMode::MvccCow, ..MemDbOptions::default() };
    let db = MemDb::new(kv_schema(), opts);
    insert_kv(&db, 1, "one", 10);
    insert_kv(&db, 2, "two", 20);
    let mut r = db.begin_read_local();
    let rs = execute(&mut r, &Query::Select(Select::by_pk(TableId(0), vec![2.into()]))).unwrap();
    assert_eq!(rs.rows.len(), 1, "commit(None) dropped the MVCC write");
    assert_eq!(rs.rows[0][1], Value::from("two"));
}

/// The implicit install is the infallible form: losing validation to a
/// rival must be loud and point at the fallible one.
#[test]
#[should_panic(expected = "try_commit")]
fn mvcc_commit_that_loses_validation_panics_naming_try_commit() {
    let opts = MemDbOptions { concurrency: ConcurrencyMode::MvccCow, ..MemDbOptions::default() };
    let db = MemDb::new(kv_schema(), opts);
    insert_kv(&db, 1, "one", 10);
    let bump = Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 1)),
        set: vec![(2, SetExpr::AddInt(1))],
    };
    let (mut first, mut second) = (db.begin_update(), db.begin_update());
    execute(&mut first, &bump).unwrap();
    execute(&mut second, &bump).unwrap();
    first.commit(None);
    second.commit(None);
}

/// An abort leaves every page that existed before it byte-identical:
/// nothing shared is written before the install, so there is nothing to
/// restore. Pages the aborted transaction allocated stay behind, zeroed.
#[test]
fn abort_restores_everything() {
    for mode in MODES {
        let db = kv_db(mode);
        insert_kv(&db, 1, "one", 10);
        let before = page_images(&db);
        let mut txn = db.begin_update();
        // Enough rows to split the index and take fresh heap pages.
        let rows = (100..400i64).map(|k| vec![k.into(), "many".into(), k.into()]).collect();
        execute(&mut txn, &Query::Insert { table: TableId(0), rows }).unwrap();
        execute(
            &mut txn,
            &Query::Update {
                table: TableId(0),
                access: Access::Auto,
                filter: Some(Expr::eq(0, 1)),
                set: vec![(1, SetExpr::Value("mutated".into()))],
            },
        )
        .unwrap();
        assert!(txn.precommit().len() > 2, "{mode:?}: the aborted write spans pages");
        txn.abort();
        let after = page_images(&db);
        assert!(after.len() > before.len(), "{mode:?}: the aborted write allocated pages");
        for (id, image) in &after {
            match before.get(id) {
                Some(was) => assert!(was == image, "{mode:?}: page {id} changed"),
                None => assert!(image.iter().all(|&b| b == 0), "{mode:?}: fresh page {id} written"),
            }
        }
        assert_eq!(kv_rows(&db), vec![vec![1.into(), "one".into(), 10.into()]], "{mode:?}");
    }
}

#[test]
fn drop_without_commit_aborts() {
    for mode in MODES {
        let db = kv_db(mode);
        insert_kv(&db, 1, "one", 10);
        {
            let mut txn = db.begin_update();
            let delete = Query::Delete { table: TableId(0), access: Access::Auto, filter: None };
            execute(&mut txn, &delete).unwrap();
            // dropped here without commit
        }
        assert_eq!(kv_rows(&db).len(), 1, "{mode:?}: drop must roll back");
    }
}

#[test]
fn duplicate_key_rejected_and_clean() {
    for mode in MODES {
        let db = kv_db(mode);
        insert_kv(&db, 1, "one", 10);
        let mut txn = db.begin_update();
        let dup = vec![vec![1.into(), "dup".into(), 0.into()]];
        let err = execute(&mut txn, &Query::Insert { table: TableId(0), rows: dup }).unwrap_err();
        assert!(matches!(err, DmvError::DuplicateKey(_)), "{mode:?}: {err}");
        assert!(!txn.has_writes(), "{mode:?}: a rejected duplicate writes nothing");
        txn.abort();
        assert_eq!(kv_rows(&db).len(), 1, "{mode:?}");
    }
}

#[test]
fn update_maintains_secondary_index() {
    for mode in MODES {
        let db = kv_db(mode);
        insert_kv(&db, 1, "one", 10);
        insert_kv(&db, 2, "two", 10);
        let mut txn = db.begin_update();
        execute(
            &mut txn,
            &Query::Update {
                table: TableId(0),
                access: Access::Auto,
                filter: Some(Expr::eq(0, 1)),
                set: vec![(2, SetExpr::Value(Value::Int(99)))],
            },
        )
        .unwrap();
        txn.commit(None);
        let mut r = db.begin_read_local();
        // lookup via secondary index must reflect the move
        let hits10 = lookup(&mut r, 1, 10);
        let hits99 = lookup(&mut r, 1, 99);
        assert_eq!(hits10.len(), 1, "{mode:?}");
        assert_eq!(hits99.len(), 1, "{mode:?}");
        assert_eq!(hits99[0].1[0], Value::Int(1), "{mode:?}");
    }
}

#[test]
fn delete_removes_from_indexes() {
    for mode in MODES {
        let db = kv_db(mode);
        for i in 0..10 {
            insert_kv(&db, i, "x", i % 3);
        }
        let mut txn = db.begin_update();
        execute(
            &mut txn,
            &Query::Delete {
                table: TableId(0),
                access: Access::Auto,
                filter: Some(Expr::eq(2, 0)),
            },
        )
        .unwrap();
        txn.commit(None);
        let mut r = db.begin_read_local();
        assert_eq!(lookup(&mut r, 1, 0).len(), 0, "{mode:?}");
        assert_eq!(kv_rows(&db).len(), 6, "{mode:?}");
    }
}

/// A `TwoPhase` writer keeps its writes in private copies until its
/// install, as an `MvccCow` one does: an untagged local read taken while
/// the write is open sees the committed bytes.
#[test]
fn a_local_read_on_a_two_phase_engine_sees_only_committed_bytes() {
    let db = kv_db(ConcurrencyMode::TwoPhase);
    insert_kv(&db, 1, "one", 10);
    let mut writer = db.begin_update();
    let mutate = Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 1)),
        set: vec![(1, SetExpr::Value("uncommitted".into()))],
    };
    execute(&mut writer, &mutate).unwrap();
    assert_eq!(kv_rows(&db), vec![vec![1.into(), "one".into(), 10.into()]]);
    writer.commit(None);
    assert_eq!(kv_rows(&db), vec![vec![1.into(), "uncommitted".into(), 10.into()]]);
}

/// A fuzzy checkpoint skips only pages with an installed write not yet
/// through its commit. A `TwoPhase` writer that has not installed has
/// written no shared page, so the checkpoint captures the page it is
/// writing at its committed image.
#[test]
fn a_fuzzy_checkpoint_during_an_open_two_phase_write_captures_the_committed_image() {
    let db = kv_db(ConcurrencyMode::TwoPhase);
    insert_kv(&db, 1, "one", 10);
    let page = PageId::heap(TableId(0), 0);
    let committed = page_images(&db)[&page].clone();
    let mut writer = db.begin_update();
    let mutate = Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 1)),
        set: vec![(1, SetExpr::Value("uncommitted".into()))],
    };
    execute(&mut writer, &mutate).unwrap();
    assert!(writer.precommit().iter().any(|(id, _)| *id == page), "the writer writes the page");
    let ck = fuzzy_checkpoint(db.store());
    assert!(ck.page(page).is_some(), "the page was skipped as dirty");
    let restored = PageStore::new_free();
    ck.restore_into(&restored, true);
    assert!(restored.get(page).unwrap().latch.read().data().to_vec() == committed);
    writer.abort();
}

/// An `MvccCow` update shares the committed images it reads instead of
/// copying them. A rival's install swaps a new image in and leaves the
/// shared one untouched, so the open update keeps reading what it read
/// first, a checkpoint taken meanwhile holds the rival's image, and the
/// open update's first write loses first-committer-wins validation.
#[test]
fn an_open_update_keeps_its_shared_base_across_a_rival_install() {
    let db = kv_db(ConcurrencyMode::MvccCow);
    insert_kv(&db, 1, "one", 10);
    let row = |v: &str| vec![1.into(), v.into(), 10.into()];
    let page = PageId::heap(TableId(0), 0);
    let mut t1 = db.begin_update();
    assert_eq!(lookup(&mut t1, 0, 1)[0].1, row("one"));
    let rename = |v: &str| Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, 1)),
        set: vec![(1, SetExpr::Value(v.into()))],
    };
    let mut t2 = db.begin_update();
    execute(&mut t2, &rename("two")).unwrap();
    t2.try_commit(None).unwrap();
    assert_eq!(lookup(&mut t1, 0, 1)[0].1, row("one"), "the open update's base changed");
    let committed = page_images(&db)[&page].clone();
    let ck = fuzzy_checkpoint(db.store());
    let restored = PageStore::new_free();
    ck.restore_into(&restored, true);
    assert!(
        restored.get(page).unwrap().latch.read().data().to_vec() == committed,
        "the checkpoint missed the rival's install"
    );
    execute(&mut t1, &rename("three")).unwrap();
    assert!(matches!(t1.try_commit(None), Err(DmvError::VersionConflict { .. })));
    assert_eq!(kv_rows(&db), vec![row("two")]);
}

#[test]
fn btree_survives_many_inserts_with_splits() {
    let db = MemDb::new(kv_schema(), MemDbOptions::default());
    let n = 3000i64;
    // interleave to exercise splits at both ends and middles
    let mut keys: Vec<i64> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(7);
    keys.shuffle(&mut rng);
    let mut txn = db.begin_update();
    for &k in &keys {
        txn.insert(TableId(0), vec![k.into(), format!("value-{k}").into(), (k % 17).into()])
            .unwrap();
    }
    txn.commit(None);

    let mut r = db.begin_read_local();
    // every key findable
    for k in [0i64, 1, n / 2, n - 1] {
        let hits = lookup(&mut r, 0, k);
        assert_eq!(hits.len(), 1, "key {k}");
    }
    // range scan ordered
    let rows = r
        .index_range(
            TableId(0),
            0,
            Some((&[Value::Int(100)], true)),
            Some((&[Value::Int(200)], true)),
            false,
            None,
            KV_COLS,
        )
        .unwrap();
    assert_eq!(rows.len(), 101);
    let got: Vec<i64> = rows.into_rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    let want: Vec<i64> = (100..=200).collect();
    assert_eq!(got, want);
    // reverse with limit
    let rows = r.index_range(TableId(0), 0, None, None, true, Some(5), KV_COLS).unwrap();
    let got: Vec<i64> = rows.into_rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(got, vec![n - 1, n - 2, n - 3, n - 4, n - 5]);
    // secondary index group counts
    let hits = lookup(&mut r, 1, 3);
    assert_eq!(hits.len() as i64, (0..n).filter(|k| k % 17 == 3).count() as i64);
}

/// A read gate that lets every tagged read through and notes the page:
/// one entry per pass through the transaction's read protocol.
#[derive(Default)]
struct PagePasses(Mutex<Vec<PageId>>);

impl ReadGate for PagePasses {
    fn prepare_read(&self, id: PageId, _: &PageCell, _: &VersionVector) -> DmvResult<()> {
        self.0.lock().unwrap().push(id);
        Ok(())
    }
}

impl PagePasses {
    /// The passes since the last call.
    fn take(&self) -> Vec<PageId> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

/// What resolving a key set costs in page passes: about one per leaf for
/// neighbouring keys (the walk follows the leaf chain), about one descent
/// per key for keys far apart (it descends across the gaps instead of
/// walking them), and one per heap page for the rows, in whatever order
/// their ids come.
#[test]
fn a_key_set_is_resolved_in_about_one_pass_per_page_it_needs() {
    let db = MemDb::new(kv_schema(), MemDbOptions::default());
    let n = 8000i64;
    for chunk in (0..n).collect::<Vec<_>>().chunks(500) {
        let mut txn = db.begin_update();
        for &k in chunk {
            txn.insert(TableId(0), vec![k.into(), "v".into(), (k % 7).into()]).unwrap();
        }
        txn.commit(None);
    }
    let pk = BTreeIndex::new(TableId(0), 0);
    let pages = db.store().allocated_count(TableId(0), PageSpace::Index(0)) as usize;
    assert!(pages > 60, "{pages} index pages");
    let gate = Arc::new(PagePasses::default());
    db.set_gate(gate.clone());
    let mut txn = db.begin_read_tagged(VersionVector::new(1));
    let keys_of = |ks: &[i64]| ks.iter().map(|&k| [Value::Int(k)]).collect::<Vec<_>>();
    let mut lookup_many = |ks: &[i64]| {
        let keys = keys_of(ks);
        let keys: Vec<&[Value]> = keys.iter().map(|k| &k[..]).collect();
        let found = pk.lookup_many(&mut txn, &keys).unwrap();
        assert_eq!(found.1, (1..=ks.len()).collect::<Vec<_>>(), "every key is there once");
        (found.0, gate.take().len())
    };
    // One key: the meta page, then a page per level.
    let depth = lookup_many(&[n / 2]).1 - 1;
    assert!((2..=3).contains(&depth), "depth {depth}");

    // A thousand neighbours: one descent, then the leaves that hold them
    // (a leaf of int keys holds over a hundred).
    let (_, passes) = lookup_many(&(5000..6000).collect::<Vec<_>>());
    assert!(passes <= 1 + depth + 1000 / 100, "{passes} passes for 1000 dense keys");
    // Five keys a fifth of the tree apart: a descent each, and the sibling
    // that showed the gap — not the leaves in between.
    let (_, passes) = lookup_many(&[100, 1700, 3300, 4900, 6500]);
    assert!(passes <= 1 + 5 * (depth + 1), "{passes} passes for 5 sparse keys");
    // A key every fifty: no leaf is skipped, so following the chain is all
    // it takes — every leaf once, the inner pages of one descent.
    let spread: Vec<i64> = (0..n).step_by(50).collect();
    let (rids, passes) = lookup_many(&spread);
    assert!(passes <= pages + depth, "{passes} passes over {pages} pages");

    // Their rows, every other one and then the rest, so that each heap
    // page comes up twice: it is still visited once, and the rows come
    // back in the order asked for.
    fn dealt<T: Copy>(all: &[T]) -> Vec<T> {
        [0, 1].iter().flat_map(|&i| all.iter().skip(i).step_by(2).copied()).collect()
    }
    let (shuffled, want) = (dealt(&rids), dealt(&spread));
    let (rows, dead) = heap::read_many(&mut txn, TableId(0), shuffled, &[0]).unwrap();
    assert!(dead.is_empty());
    let ks: Vec<i64> = rows.into_rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(ks, want);
    let mut pages = gate.take();
    let passes = pages.len();
    pages.sort();
    pages.dedup();
    assert_eq!(passes, pages.len(), "a heap page is visited once");
    txn.commit(None);
}

/// A read gate that cannot serve any version: a slave whose wait for
/// the tag timed out.
struct NeverReceived;

impl ReadGate for NeverReceived {
    fn prepare_read(&self, _: PageId, _: &PageCell, tag: &VersionVector) -> DmvResult<()> {
        Err(DmvError::Network(format!("version {tag} not received")))
    }
}

/// An index walk that cannot read its meta page fails with the gate's
/// error: "no rows" would be a wrong answer the caller cannot tell from
/// a right one.
#[test]
fn an_index_read_the_gate_refuses_fails_instead_of_finding_nothing() {
    let db = MemDb::new(kv_schema(), MemDbOptions::default());
    for k in 0..10 {
        insert_kv(&db, k, "v", k);
    }
    db.set_gate(Arc::new(NeverReceived));
    let refused = |r: DmvResult<_>, what: &str| match r {
        Err(DmvError::Network(m)) => assert!(m.contains("not received"), "{what}: {m}"),
        Err(e) => panic!("{what}: wrong error {e}"),
        Ok(_) => panic!("{what}: answered without its pages"),
    };
    let pk = BTreeIndex::new(TableId(0), 0);
    let mut txn = db.begin_read_tagged(VersionVector::new(1));
    let three = [Value::Int(3)];
    refused(pk.lookup_eq(&mut txn, &three).map(drop), "lookup_eq");
    refused(pk.lookup_many(&mut txn, &[&three[..]]).map(drop), "lookup_many");
    refused(pk.range(&mut txn, None, None, false, None).map(drop), "range");
    let by_pk = Query::Select(Select::by_pk(TableId(0), vec![3.into()]));
    refused(execute(&mut txn, &by_pk).map(drop), "by_pk select");
}

#[test]
fn non_unique_index_handles_duplicate_keys() {
    let db = MemDb::new(kv_schema(), MemDbOptions::default());
    let mut txn = db.begin_update();
    for k in 0..500i64 {
        txn.insert(TableId(0), vec![k.into(), "same".into(), 7.into()]).unwrap();
    }
    txn.commit(None);
    let mut r = db.begin_read_local();
    let hits = lookup(&mut r, 1, 7);
    assert_eq!(hits.len(), 500);
}

#[test]
fn join_and_aggregate_through_engine() {
    let db = MemDb::new(two_table_schema(), MemDbOptions::default());
    let mut txn = db.begin_update();
    txn.insert(TableId(1), vec![1.into(), "Gray".into()]).unwrap();
    txn.insert(TableId(1), vec![2.into(), "Reuter".into()]).unwrap();
    for i in 0..20i64 {
        txn.insert(TableId(0), vec![i.into(), format!("book{i}").into(), (1 + i % 2).into()])
            .unwrap();
    }
    txn.commit(None);
    let mut r = db.begin_read_local();
    let q = Query::Select(
        Select::scan(TableId(0))
            .join(Join { table: TableId(1), left_col: 2, right_col: 0, right_index: Some(0) })
            .group(vec![4], vec![AggFn::Count])
            .order_by(1, true),
    );
    let rs = execute(&mut r, &q).unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][1], Value::Int(10));
}

/// The property the replication layer depends on: applying the write-set
/// diffs (in commit order) to a second page store reproduces the master's
/// pages bit for bit.
#[test]
fn write_set_application_converges_bitwise() {
    let db = MemDb::new(kv_schema(), MemDbOptions::default());
    let replica = PageStore::new_free();
    let mut rng = StdRng::seed_from_u64(42);
    let mut version = VersionVector::new(1);

    for round in 0..40 {
        let mut txn = db.begin_update();
        // random batch of operations
        for _ in 0..rng.gen_range(1..10) {
            let k: i64 = rng.gen_range(0..200);
            match rng.gen_range(0..3) {
                0 => {
                    let _ = txn.insert(
                        TableId(0),
                        vec![k.into(), format!("r{round}k{k}").into(), (k % 5).into()],
                    );
                }
                1 => {
                    let hit = lookup(&mut txn, 0, k);
                    if let Some((rid, mut row)) = hit.into_iter().next() {
                        row[1] = format!("upd{round}").into();
                        txn.update(TableId(0), rid, row).unwrap();
                    }
                }
                _ => {
                    let hit = lookup(&mut txn, 0, k);
                    if let Some((rid, _)) = hit.into_iter().next() {
                        txn.delete(TableId(0), rid).unwrap();
                    }
                }
            }
        }
        let diffs = txn.precommit();
        version.bump(TableId(0));
        // apply to replica in order
        for (id, diff) in &diffs {
            let cell = replica.get_or_create(*id);
            let mut page = cell.latch.write();
            diff.apply(page.data_mut());
            page.version = version.get(TableId(0));
        }
        txn.commit(Some(&version));
    }

    // compare every page
    let master_store = db.store();
    let mut ids = master_store.page_ids();
    ids.sort();
    assert!(!ids.is_empty());
    for id in ids {
        let m = master_store.get(id).unwrap();
        let r = replica.get(id).unwrap_or_else(|| panic!("replica missing page {id}"));
        let mi = m.latch.read();
        let ri = r.latch.read();
        assert_eq!(mi.data(), ri.data(), "page {id} diverged");
    }
}

#[test]
fn tagged_read_sees_exact_version_or_conflicts() {
    // Without a replication gate, a tagged read on the master's own store
    // must succeed when the tag matches and conflict when it is behind.
    let db = MemDb::new(kv_schema(), MemDbOptions::default());
    let mut v = VersionVector::new(1);
    // commit version 1
    let mut txn = db.begin_update();
    txn.insert(TableId(0), vec![1.into(), "a".into(), 0.into()]).unwrap();
    txn.precommit();
    v.bump(TableId(0));
    txn.commit(Some(&v));
    // commit version 2
    let mut txn = db.begin_update();
    txn.insert(TableId(0), vec![2.into(), "b".into(), 0.into()]).unwrap();
    txn.precommit();
    v.bump(TableId(0));
    txn.commit(Some(&v));

    // tag = current version: fine
    let mut r = db.begin_read_tagged(v.clone());
    let rs = execute(&mut r, &Query::Select(Select::scan(TableId(0)))).unwrap();
    assert_eq!(rs.rows.len(), 2);

    // stale tag (version 1): pages are already at version 2 -> conflict
    let mut stale = VersionVector::new(1);
    stale.bump(TableId(0));
    let mut r = db.begin_read_tagged(stale);
    let err = execute(&mut r, &Query::Select(Select::scan(TableId(0)))).unwrap_err();
    assert!(matches!(err, DmvError::VersionConflict { .. }), "got {err:?}");
}

#[test]
fn concurrent_writers_disjoint_keys_commit() {
    let db = Arc::new(MemDb::new(kv_schema(), MemDbOptions::default()));
    // seed enough rows that pages exist
    for i in 0..50 {
        insert_kv(&db, i, "seed", 0);
    }
    let mut handles = Vec::new();
    for t in 0..4i64 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut committed = 0;
            for i in 0..25i64 {
                let k = 1000 + t * 100 + i;
                let mut txn = db.begin_update();
                let res =
                    txn.insert(TableId(0), vec![k.into(), format!("w{t}").into(), (k % 7).into()]);
                match res {
                    Ok(_) => {
                        txn.precommit();
                        txn.commit(None);
                        committed += 1;
                    }
                    Err(e) if e.is_retryable() => txn.abort(),
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            committed
        }));
    }
    let total: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
    let mut r = db.begin_read_local();
    let rs = execute(&mut r, &Query::Select(Select::scan(TableId(0)))).unwrap();
    assert_eq!(rs.rows.len(), 50 + total as usize);
}

#[test]
fn writes_in_read_mode_rejected() {
    let db = MemDb::new(kv_schema(), MemDbOptions::default());
    insert_kv(&db, 1, "one", 0);
    let mut r = db.begin_read_local();
    let err = r.insert(TableId(0), vec![2.into(), "x".into(), 0.into()]).unwrap_err();
    assert!(matches!(err, DmvError::InvalidTxnState(_)));
}

#[test]
fn write_tables_reports_touched_tables() {
    let db = MemDb::new(two_table_schema(), MemDbOptions::default());
    let mut txn = db.begin_update();
    txn.insert(TableId(1), vec![1.into(), "A".into()]).unwrap();
    assert_eq!(txn.write_tables(), vec![TableId(1)]);
    txn.insert(TableId(0), vec![1.into(), "t".into(), 1.into()]).unwrap();
    assert_eq!(txn.write_tables(), vec![TableId(0), TableId(1)]);
    txn.commit(None);
}

#[test]
fn precommit_empty_for_read_only_update_txn() {
    let db = MemDb::new(kv_schema(), MemDbOptions::default());
    insert_kv(&db, 1, "one", 0);
    let mut txn = db.begin_update();
    let _ = execute(&mut txn, &Query::Select(Select::scan(TableId(0)))).unwrap();
    assert!(txn.precommit().is_empty());
    assert!(!txn.has_writes());
    txn.commit(None);
}

#[test]
fn different_nodes_generate_distinct_txn_ids() {
    let a = MemDb::new(kv_schema(), MemDbOptions { node: NodeId(1), ..Default::default() });
    let b = MemDb::new(kv_schema(), MemDbOptions { node: NodeId(2), ..Default::default() });
    assert_ne!(a.begin_update().id(), b.begin_update().id());
}

/// Regression: two transactions doing read-modify-write on rows of the
/// same page must not deadlock on S→X upgrades — the executor declares
/// write intent, so the locate phase locks exclusively up front.
#[test]
fn concurrent_same_page_updates_do_not_upgrade_deadlock() {
    let db = Arc::new(MemDb::new(kv_schema(), MemDbOptions::default()));
    for i in 0..8 {
        insert_kv(&db, i, "seed", 0);
    }
    let mut handles = Vec::new();
    let deadlocks = Arc::new(std::sync::atomic::AtomicU64::new(0));
    for t in 0..4i64 {
        let db = Arc::clone(&db);
        let deadlocks = Arc::clone(&deadlocks);
        handles.push(std::thread::spawn(move || {
            for i in 0..50i64 {
                loop {
                    let mut txn = db.begin_update();
                    let q = Query::Update {
                        table: TableId(0),
                        access: Access::Auto,
                        filter: Some(Expr::eq(0, (t + i) % 8)),
                        set: vec![(2, SetExpr::AddInt(1))],
                    };
                    match execute(&mut txn, &q) {
                        Ok(_) => {
                            txn.commit(None);
                            break;
                        }
                        Err(DmvError::Deadlock(_)) => {
                            // relaxed-ok: test tally; read after all workers joined
                            deadlocks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            txn.abort();
                        }
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // All 200 increments landed.
    let mut r = db.begin_read_local();
    let rs = execute(&mut r, &Query::Select(Select::scan(TableId(0)))).unwrap();
    let total: i64 = rs.rows.iter().map(|row| row[2].as_int().unwrap()).sum();
    assert_eq!(total, 200);
    // Point updates on the same page serialize via immediate X locks;
    // upgrade deadlocks would show up in the hundreds here.
    // relaxed-ok: test tally; read after all workers joined
    let d = deadlocks.load(std::sync::atomic::Ordering::Relaxed);
    assert!(d < 20, "unexpected deadlock storm: {d}");
}

/// Regression: concurrent inserts into the same table (same index
/// leaves) must not deadlock via the unique-probe S→X upgrade.
#[test]
fn concurrent_inserts_do_not_upgrade_deadlock() {
    let db = Arc::new(MemDb::new(kv_schema(), MemDbOptions::default()));
    let deadlocks = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..4i64 {
        let db = Arc::clone(&db);
        let deadlocks = Arc::clone(&deadlocks);
        handles.push(std::thread::spawn(move || {
            for i in 0..50i64 {
                let k = t * 1000 + i;
                loop {
                    let mut txn = db.begin_update();
                    match txn.insert(TableId(0), vec![k.into(), "w".into(), (k % 3).into()]) {
                        Ok(_) => {
                            txn.commit(None);
                            break;
                        }
                        Err(DmvError::Deadlock(_)) => {
                            // relaxed-ok: test tally; read after all workers joined
                            deadlocks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            txn.abort();
                        }
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut r = db.begin_read_local();
    let rs = execute(&mut r, &Query::Select(Select::scan(TableId(0)))).unwrap();
    assert_eq!(rs.rows.len(), 200);
    // relaxed-ok: test tally; read after all workers joined
    let d = deadlocks.load(std::sync::atomic::Ordering::Relaxed);
    assert!(d < 20, "unexpected deadlock storm: {d}");
}

/// A `TwoPhase` kv table of 2 000 rows, keyed 0..2000 in insert order, so
/// that keys 0 and 1 999 lie on different heap pages and different leaves
/// of every index.
fn two_phase_kv_spread() -> Arc<MemDb> {
    let db = Arc::new(kv_db(ConcurrencyMode::TwoPhase));
    let mut load = db.begin_update();
    for k in 0..2000i64 {
        load.insert(TableId(0), vec![k.into(), format!("value {k:06}").into(), k.into()]).unwrap();
    }
    load.commit(None);
    db
}

/// Rewrites row `k`'s `v` in place: no indexed column changes.
fn rename(k: i64) -> Query {
    Query::Update {
        table: TableId(0),
        access: Access::Auto,
        filter: Some(Expr::eq(0, k)),
        set: vec![(1, SetExpr::Value(format!("renamed {k:04}").into()))],
    }
}

/// Two 2PL UPDATEs of rows on different heap pages and index leaves of
/// one table are both open at once, and each commits while the other is
/// open: the descents share the index's meta page and internal nodes (S)
/// and lock only their own leaf and heap page X. When every page a
/// descent read was X-locked, the second queued on index page 0 behind
/// the first, which waits at the barrier for it.
#[test]
fn two_phase_updates_of_rows_on_different_pages_run_side_by_side() {
    let db = two_phase_kv_spread();
    let both_open = Arc::new(std::sync::Barrier::new(2));
    let updaters: Vec<_> = [0i64, 1999]
        .into_iter()
        .map(|k| {
            let (db, both_open) = (Arc::clone(&db), Arc::clone(&both_open));
            std::thread::spawn(move || {
                let mut txn = db.begin_update();
                let done = execute(&mut txn, &rename(k));
                both_open.wait();
                done.map(|_| txn.commit(None))
            })
        })
        .collect();
    for updater in updaters {
        updater.join().unwrap().expect("neither update waits for the other");
    }
    let names: Vec<Value> = [0i64, 1999]
        .into_iter()
        .map(|k| lookup(&mut db.begin_read_local(), 0, k).remove(0).1.remove(1))
        .collect();
    assert_eq!(names, [Value::from("renamed 0000"), Value::from("renamed 1999")]);
}

/// Two 2PL transactions update two rows in opposite orders. The second to
/// ask for the other's row closes a cycle and gets `Deadlock` at once,
/// not after a wait; the other commits once the victim aborts.
#[test]
fn a_two_phase_deadlock_is_found_when_it_forms() {
    let db = two_phase_kv_spread();
    let firsts_taken = Arc::new(std::sync::Barrier::new(2));
    let updaters: Vec<_> = [(0i64, 1999i64), (1999, 0)]
        .into_iter()
        .map(|(first, second)| {
            let (db, firsts_taken) = (Arc::clone(&db), Arc::clone(&firsts_taken));
            std::thread::spawn(move || {
                let mut txn = db.begin_update();
                execute(&mut txn, &rename(first)).unwrap();
                firsts_taken.wait();
                let asked = std::time::Instant::now();
                match execute(&mut txn, &rename(second)) {
                    Ok(_) => {
                        txn.commit(None);
                        None
                    }
                    Err(DmvError::Deadlock(_)) => {
                        txn.abort();
                        Some(asked.elapsed())
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            })
        })
        .collect();
    let waits: Vec<Option<Duration>> = updaters.into_iter().map(|u| u.join().unwrap()).collect();
    let victims: Vec<Duration> = waits.iter().flatten().copied().collect();
    assert_eq!(victims.len(), 1, "exactly one transaction is the victim: {waits:?}");
    assert!(victims[0] < Duration::from_millis(100), "the victim waited {:?}", victims[0]);
}

/// A record a filtered scan reaches that does not decode is a `Storage`
/// error, whether the record test reads or walks past the bad column under
/// the latch or the decoding of a record it kept does — never a panic,
/// never a record silently left out.
#[test]
fn a_malformed_record_under_a_scan_filter_is_a_storage_error() {
    let db = MemDb::new(kv_schema(), MemDbOptions::default());
    for k in 0..3 {
        insert_kv(&db, k, "v", k);
    }
    // The second record's `v` gets an unknown tag: past the column count
    // (2 bytes) and `k` (a tag and 8 bytes).
    let mut bad = encode_row(&[1.into(), "v".into(), 1.into()]);
    bad[11] = 99;
    let cell = db.store().get(PageId::heap(TableId(0), 0)).unwrap();
    assert!(slotted::update(cell.latch.write().data_mut(), 1, &bad));
    let read = |f: Expr| {
        let q = Query::Select(Select::scan(TableId(0)).filter(f).project(vec![0, 1]));
        execute(&mut db.begin_read_local(), &q)
    };
    for (f, how) in [
        (Expr::like(1, "v%"), "tested"),
        (Expr::cmp(2, CmpOp::Ge, 0), "walked past"),
        (Expr::cmp(0, CmpOp::Ge, 0), "kept and decoded"),
    ] {
        assert!(matches!(read(f), Err(DmvError::Storage(_))), "{how}");
    }
    // A record rejected on `k` is not read any further, as a decode of
    // the columns before `v` would not be.
    let rows = read(Expr::cmp(0, CmpOp::Ne, 1)).unwrap().rows;
    assert_eq!(rows, [vec![0.into(), "v".into()], vec![2.into(), "v".into()]]);
}
