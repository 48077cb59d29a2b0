//! B+Tree model test: random insert/delete runs against a `BTreeMap`,
//! with `lookup_eq` and `range` — both directions, every bound and limit
//! combination — compared to the model after every step. Keys are wide
//! strings or string/int composites, so a leaf holds a handful of entries
//! and a few hundred inserts split leaves *and* internal nodes; a few
//! hot keys get many row ids each, so runs of duplicates span leaf
//! boundaries.

use dmv_common::config::ConcurrencyMode;
use dmv_common::ids::{PageSpace, RowId, TableId};
use dmv_common::rng::seeded;
use dmv_memdb::index::BTreeIndex;
use dmv_memdb::{MemDb, MemDbOptions, Txn};
use dmv_sql::schema::{ColType, Column, IndexDef, Schema, TableSchema};
use dmv_sql::value::Value;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;

type Key = Vec<Value>;
type Model = BTreeMap<(Key, RowId), ()>;

const T: TableId = TableId(0);

fn db(mode: ConcurrencyMode) -> MemDb {
    let schema = Schema::new(vec![TableSchema::new(
        T,
        "t",
        vec![Column::new("s", ColType::Str), Column::new("n", ColType::Int)],
        vec![IndexDef::non_unique("by_s_n", vec![0, 1])],
    )]);
    MemDb::new(schema, MemDbOptions { concurrency: mode, ..MemDbOptions::default() })
}

/// A key from a small domain: `(wide string, small int)`, or the string
/// alone when `composite` is off. Ten strings × five ints, a tenth of the
/// draws going to one hot key.
fn key(rng: &mut SmallRng, composite: bool) -> Key {
    let (s, n) =
        if rng.gen_bool(0.1) { (3, 3) } else { (rng.gen_range(0..10), rng.gen_range(0..5)) };
    // 300 to 750 bytes: unequal, but not so unequal that splitting a
    // node by entry count could leave one half too large for a page.
    let mut key = vec![Value::from(format!("{s:02}{}", "k".repeat(300 + 50 * s)))];
    if composite {
        key.push(Value::Int(n));
    }
    key
}

fn prefix_cmp(key: &[Value], probe: &[Value]) -> std::cmp::Ordering {
    let n = probe.len().min(key.len());
    key[..n].cmp(&probe[..n])
}

/// What `range` must return, from the model.
fn expected(
    model: &Model,
    lo: Option<(&[Value], bool)>,
    hi: Option<(&[Value], bool)>,
    rev: bool,
    limit: Option<usize>,
) -> Vec<RowId> {
    use std::cmp::Ordering::*;
    let inside = |k: &Key| {
        lo.is_none_or(|(p, inc)| matches!((prefix_cmp(k, p), inc), (Greater, _) | (Equal, true)))
            && hi
                .is_none_or(|(p, inc)| matches!((prefix_cmp(k, p), inc), (Less, _) | (Equal, true)))
    };
    let mut rids: Vec<RowId> =
        model.keys().filter(|(k, _)| inside(k)).map(|(_, rid)| *rid).collect();
    if rev {
        rids.reverse();
    }
    rids.truncate(limit.unwrap_or(usize::MAX));
    rids
}

/// Compares the tree with the model around `around` (the key the last
/// step touched) and `other`: equality lookups on the full key and on
/// its first column, and every pair of lower and upper bound — in every
/// direction and under every limit when `exhaustive`, else in one drawn
/// from `rng`.
fn check(
    ix: BTreeIndex,
    txn: &mut Txn<'_>,
    model: &Model,
    (around, other): (&Key, &Key),
    rng: &mut SmallRng,
    exhaustive: bool,
) {
    for probe in [&around[..], &around[..1], &other[..]] {
        let want = expected(model, Some((probe, true)), Some((probe, true)), false, None);
        assert_eq!(ix.lookup_eq(txn, probe).unwrap(), want, "lookup_eq {probe:?}");
    }
    let (lo_key, hi_key) = if around <= other { (around, other) } else { (other, around) };
    fn bounds(k: &Key) -> [Option<(&[Value], bool)>; 5] {
        [None, Some((k, true)), Some((k, false)), Some((&k[..1], true)), Some((&k[..1], false))]
    }
    let shapes: Vec<(bool, Option<usize>)> = [false, true]
        .into_iter()
        .flat_map(|rev| [None, Some(0), Some(1), Some(7)].map(|limit| (rev, limit)))
        .collect();
    for lo in bounds(lo_key) {
        for hi in bounds(hi_key) {
            let one = [shapes[rng.gen_range(0..shapes.len())]];
            for &(rev, limit) in if exhaustive { &shapes[..] } else { &one[..] } {
                let want = expected(model, lo, hi, rev, limit);
                let got = ix.range(txn, lo, hi, rev, limit).unwrap();
                assert_eq!(got, want, "range lo={lo:?} hi={hi:?} rev={rev} limit={limit:?}");
            }
        }
    }
}

fn run(seed: u64, mode: ConcurrencyMode, composite: bool) {
    let mut rng = seeded(seed);
    let db = db(mode);
    let ix = BTreeIndex::new(T, 0);
    let mut model = Model::new();
    let mut txn = db.begin_update();
    let mut next_rid = 0u32;
    for step in 0..300 {
        let k = key(&mut rng, composite);
        // Grow for the first two thirds, then shrink.
        if rng.gen_bool(if step < 200 { 0.85 } else { 0.3 }) {
            // Row ids are unique, so an id names its entry in the model.
            let rid = RowId::new(next_rid / 7, (next_rid % 7) as u16);
            next_rid += 1;
            ix.insert(&mut txn, &k, rid).unwrap();
            ix.insert(&mut txn, &k, rid).unwrap(); // idempotent
            model.insert((k.clone(), rid), ());
        } else {
            // Delete an entry of that key if there is one (and find out
            // that there is none otherwise).
            let victim =
                model.range((k.clone(), RowId::new(0, 0))..).next().map(|(e, ())| e.clone());
            match victim.filter(|(vk, _)| *vk == k) {
                Some((vk, rid)) => {
                    assert!(ix.delete(&mut txn, &vk, rid).unwrap());
                    model.remove(&(vk, rid));
                }
                None => assert!(!ix.delete(&mut txn, &k, RowId::new(u32::MAX, 0)).unwrap()),
            }
        }
        let other = key(&mut rng, composite);
        check(ix, &mut txn, &model, (&k, &other), &mut rng, step % 25 == 0);
    }
    // The narrowest entry is ~320 bytes, so an internal node has at most
    // 12 children and a tree of root + leaves at most 14 pages.
    let pages = db.store().allocated_count(T, PageSpace::Index(0));
    assert!(pages > 20, "{pages} pages: the run must split internal nodes, not just leaves");
    // A committed tree reads the same from outside the transaction.
    txn.try_commit(None).unwrap();
    let mut r = db.begin_read_local();
    let (a, b) = (key(&mut rng, composite), key(&mut rng, composite));
    check(ix, &mut r, &model, (&a, &b), &mut rng, true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn btree_matches_model(seed in 0u64..u64::MAX) {
        run(seed, ConcurrencyMode::TwoPhase, true);
        run(seed ^ 1, ConcurrencyMode::MvccCow, false);
    }
}
