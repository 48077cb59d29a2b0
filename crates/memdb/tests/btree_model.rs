//! B+Tree model test: random insert/delete runs against a `BTreeMap`,
//! with `lookup_eq`, `lookup_many` and `range` — both directions, every
//! bound and limit combination — compared to the model after every step.
//! Keys are wide strings or string/int composites, so a leaf holds a
//! handful of entries and a few hundred inserts split leaves *and*
//! internal nodes; a few hot keys get many row ids each, so runs of
//! duplicates span leaf boundaries. A third run mixes 3-byte keys with
//! keys a third of a page wide: nodes must split where the bytes halve,
//! or one half overflows its page (a slice panic in a release build).

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

/// What keys a run draws.
#[derive(Clone, Copy, PartialEq)]
enum Keys {
    /// `(wide string, small int)`.
    Composite,
    /// The wide string alone.
    Wide,
    /// A 3-byte string or one a third of a page wide, three to one.
    Mixed,
}

/// A key from a small domain: ten strings of 300 to 750 bytes × five
/// ints, a tenth of the draws going to one hot key; or, for
/// [`Keys::Mixed`], forty strings whose width has nothing to do with
/// where they sort.
fn key(rng: &mut SmallRng, keys: Keys) -> Key {
    if keys == Keys::Mixed {
        let s = rng.gen_range(0..40);
        let padding = if s % 4 == 1 { 1290 } else { 0 };
        return vec![Value::from(format!("{s:03}{}", "k".repeat(padding)))];
    }
    let (s, n) =
        if rng.gen_bool(0.1) { (3, 3) } else { (rng.gen_range(0..10), rng.gen_range(0..5)) };
    let mut key = vec![Value::from(format!("{s:02}{}", "k".repeat(300 + 50 * s)))];
    if keys == Keys::Composite {
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
    if exhaustive {
        check_lookup_many(ix, txn, model, rng);
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

/// `lookup_many` against one `lookup_eq` answer per key from the model,
/// for key sets of every kind: all keys there are (dense: the walk only
/// follows `next`), a few of them (sparse: it must descend across gaps),
/// keys that are not there — between, below and above the ones that are —
/// and first-column prefixes, whose runs of matches span leaves.
fn check_lookup_many(ix: BTreeIndex, txn: &mut Txn<'_>, model: &Model, rng: &mut SmallRng) {
    let mut present: Vec<Key> = model.keys().map(|(k, _)| k.clone()).collect();
    present.dedup();
    let text = |k: &Key| k[0].as_str().unwrap().to_owned();
    let absent: Vec<Key> = present
        .iter()
        .flat_map(|k| {
            let (below, above) = (format!("{}!", text(k)), format!("{}~", text(k)));
            [below, above].map(|s| [vec![Value::from(s)], k[1..].to_vec()].concat())
        })
        .collect();
    let prefixes: Vec<Key> = present.iter().map(|k| k[..1].to_vec()).collect();
    let ends = [vec![Value::from("")], vec![Value::from("~")]];
    let sparse: Vec<Key> = present.iter().filter(|_| rng.gen_bool(0.15)).cloned().collect();
    let mixed = [&present[..], &absent[..], &ends[..]].concat();
    for (what, mut keys) in [
        ("dense", present),
        ("sparse", sparse),
        ("absent", absent),
        ("prefixes", prefixes),
        ("outside", ends.to_vec()),
        ("mixed", mixed),
    ] {
        keys.sort();
        keys.dedup();
        let probe: Vec<&[Value]> = keys.iter().map(Vec::as_slice).collect();
        let (rids, ends) = ix.lookup_many(txn, &probe).unwrap();
        assert_eq!(ends.len(), keys.len(), "{what}");
        let mut from = 0;
        for (key, &to) in probe.iter().zip(&ends) {
            let want = expected(model, Some((key, true)), Some((key, true)), false, None);
            assert_eq!(rids[from..to], want, "{what}: lookup_many {key:?}");
            from = to;
        }
        assert_eq!(from, rids.len(), "{what}");
    }
}

fn run(seed: u64, mode: ConcurrencyMode, keys: Keys) {
    let mut rng = seeded(seed);
    let db = db(mode);
    let ix = BTreeIndex::new(T, 0);
    let mut model = Model::new();
    let mut txn = db.begin_update();
    let mut next_rid = 0u32;
    for step in 0..300 {
        let k = key(&mut rng, keys);
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
        let other = key(&mut rng, keys);
        check(ix, &mut txn, &model, (&k, &other), &mut rng, step % 25 == 0);
    }
    // The narrowest entry is ~320 bytes, so an internal node has at most
    // 12 children and a tree of root + leaves at most 14 pages. (Mixed
    // keys: forty of them, at most, are a handful of leaves.)
    let pages = db.store().allocated_count(T, PageSpace::Index(0));
    assert!(
        pages > if keys == Keys::Mixed { 4 } else { 20 },
        "{pages} pages: the run must split internal nodes, not just leaves"
    );
    // A committed tree reads the same from outside the transaction.
    txn.try_commit(None).unwrap();
    let mut r = db.begin_read_local();
    let (a, b) = (key(&mut rng, keys), key(&mut rng, keys));
    check(ix, &mut r, &model, (&a, &b), &mut rng, true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn btree_matches_model(seed in 0u64..u64::MAX) {
        run(seed, ConcurrencyMode::TwoPhase, Keys::Composite);
        run(seed ^ 1, ConcurrencyMode::MvccCow, Keys::Wide);
        run(seed ^ 2, ConcurrencyMode::MvccCow, Keys::Mixed);
    }
}
