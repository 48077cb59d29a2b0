//! Reuse of tagged select results on a slave.
//!
//! A read tagged `T` sees every table at exactly the version `T` names
//! (§2.2), and a select reads only the tables [`Query::tables`] lists.
//! So its answer is a function of the select and of `T`'s entries for
//! those tables — its *key*. A slave that has answered a key once can
//! answer it again from the stored result. Nothing is ever invalidated:
//! a commit to a table the select reads moves that table's version, and
//! with it the key; a commit to any other table leaves the key, and the
//! answer, as they were.
//!
//! * **Admission.** A miss executes as before. Its result is stored only
//!   the second time its key is seen, which a fixed-size table of key
//!   fingerprints (the doorkeeper) tracks. A key seen once — one
//!   customer's point read, a select over a table every commit bumps —
//!   costs a hash and a probe, and no copy.
//! * **Hit.** The full key is compared before the stored result is
//!   returned; a fingerprint never answers a select.
//! * **Modeled cost.** An entry keeps its miss's [`StatementCost`], and a
//!   hit owes it again: the same CPU charge, and every page the miss read
//!   touched once more (faulted in if evicted since). Modeled time,
//!   residency and fault counts are what they would have been; only real
//!   CPU is saved.
//! * **Lineage.** A version number names one content only within a
//!   lineage. Fail-over's `discard_above` drops versions a new master may
//!   reissue with other content, and migration or a checkpoint restore
//!   replaces pages outside the stream; the applier starts a new lineage
//!   after each ([`PendingApplier::lineage`]). An entry carries the
//!   lineage read *before* its miss executed and is served only while that
//!   lineage is current — which also voids a miss stored after a
//!   concurrent change.
//! * **Capacity.** One entry per select (a newer key replaces the older),
//!   at most [`CAPACITY_BYTES`] per node; past it the oldest entries go
//!   first.
//!
//! Only [`TxnMode::ReadTagged`] transactions use the store, errors are
//! never stored, and the store's lock is held neither across executing a
//! statement nor together with the applier's slot locks
//! (`xtask/lock_order.toml`).

use crate::applier::PendingApplier;
use dmv_common::error::DmvResult;
use dmv_common::version::VersionVector;
use dmv_memdb::{StatementCost, Txn, TxnMode};
use dmv_sql::exec::{execute, ResultSet};
use dmv_sql::query::{Query, Select};
use dmv_sql::row::Row;
use dmv_sql::value::Value;
// Shimmed primitives: parking_lot/std in normal builds, model-checked
// under `--cfg dmv_check` (see crates/check).
use dmv_check::sync::Mutex;
use dmv_common::fx::{FxHashMap, FxHasher};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::Arc;

/// Bytes of stored results (and their keys and costs) one node keeps.
pub const CAPACITY_BYTES: usize = 512 << 10;

/// Doorkeeper slots: key fingerprints seen once, one per slot, a newer
/// sighting overwriting an older one.
const DOORKEEPER_SLOTS: usize = 4096;

/// A select's key: the select and the versions of the tables it reads.
pub struct Key<'q> {
    select: &'q Select,
    versions: Vec<u64>,
    /// Hash of the select alone: where its entry lives.
    select_hash: u64,
    /// Hash of the whole key: what the doorkeeper remembers.
    fingerprint: u64,
}

impl<'q> Key<'q> {
    /// The key of `q` read at `tag`, or `None` for a write.
    pub fn new(q: &'q Query, tag: &VersionVector) -> Option<Self> {
        let Query::Select(select) = q else { return None };
        // `Query::tables` of a select, without its allocation.
        let tables = std::iter::once(select.table).chain(select.joins.iter().map(|j| j.table));
        let versions: Vec<u64> = tables.map(|t| tag.get(t)).collect();
        let mut h = FxHasher::default();
        select.hash(&mut h);
        let select_hash = h.finish();
        versions.hash(&mut h);
        Some(Key { select, versions, select_hash, fingerprint: h.finish() })
    }
}

/// One stored answer.
pub struct Entry {
    select: Select,
    versions: Vec<u64>,
    lineage: u64,
    result: ResultSet,
    cost: StatementCost,
    bytes: usize,
}

impl Entry {
    /// The stored result.
    pub fn result(&self) -> &ResultSet {
        &self.result
    }
}

/// What [`ResultStore::lookup`] found.
pub enum Lookup {
    /// The key was answered before in the current lineage.
    Hit(Arc<Entry>),
    /// Execute; `admit` says this is the key's second sighting and its
    /// result should be stored.
    Miss {
        /// Store the result.
        admit: bool,
    },
}

struct Results {
    /// Entries by the hash of their select.
    entries: FxHashMap<u64, Arc<Entry>>,
    /// The keys of `entries`, oldest first.
    order: VecDeque<u64>,
    bytes: usize,
    /// The doorkeeper: fingerprints of keys seen once.
    seen: Vec<u64>,
}

/// A slave's stored select results (see the module doc).
pub struct ResultStore {
    results: Mutex<Results>,
}

impl Default for ResultStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> Self {
        let store = ResultStore {
            results: Mutex::new(Results {
                entries: FxHashMap::default(),
                order: VecDeque::new(),
                bytes: 0,
                seen: vec![0; DOORKEEPER_SLOTS],
            }),
        };
        dmv_check::race::label(&store.results, "results");
        store
    }

    /// Answers `q` in `txn`: a tagged select from the store when its key
    /// was answered before in the applier's current lineage, otherwise —
    /// and for every other statement or transaction mode — by executing
    /// it. Returns the result and whether the store answered.
    ///
    /// # Errors
    ///
    /// Those of [`execute`]; an error is never stored.
    pub fn answer(
        &self,
        txn: &mut Txn<'_>,
        q: &Query,
        applier: &PendingApplier,
    ) -> DmvResult<(ResultSet, bool)> {
        let key = match txn.mode() {
            TxnMode::ReadTagged(tag) => Key::new(q, tag),
            _ => None,
        };
        let Some(key) = key else { return Ok((execute(txn, q)?, false)) };
        // Read before the select executes: an entry stored under this
        // lineage holds rows read after it began.
        let lineage = applier.lineage();
        match self.lookup(&key, lineage) {
            Lookup::Hit(entry) => {
                txn.replay_cost(&entry.cost);
                Ok((entry.result.clone(), true))
            }
            Lookup::Miss { admit: false } => Ok((execute(txn, q)?, false)),
            Lookup::Miss { admit: true } => {
                txn.record_cost();
                let res = execute(txn, q);
                let cost = txn.take_cost();
                let res = res?;
                self.insert(&key, lineage, res.clone(), cost);
                Ok((res, false))
            }
        }
    }

    /// Looks `key` up for a read in `lineage`; on a miss, records the
    /// sighting in the doorkeeper.
    pub fn lookup(&self, key: &Key<'_>, lineage: u64) -> Lookup {
        let mut results = self.results.lock();
        if let Some(entry) = results.entries.get(&key.select_hash) {
            if entry.lineage == lineage
                && entry.versions == key.versions
                && entry.select == *key.select
            {
                return Lookup::Hit(Arc::clone(entry));
            }
        }
        let slot = &mut results.seen[(key.fingerprint % DOORKEEPER_SLOTS as u64) as usize];
        let admit = *slot == key.fingerprint;
        *slot = key.fingerprint;
        Lookup::Miss { admit }
    }

    /// Stores `result`, read at `key` in `lineage` for `cost`, replacing
    /// the select's older entry and evicting the oldest entries past
    /// [`CAPACITY_BYTES`].
    pub fn insert(&self, key: &Key<'_>, lineage: u64, result: ResultSet, cost: StatementCost) {
        // The select's own heap (keys, literals) is left out: it is small
        // beside the rows.
        let bytes = size_of::<Entry>()
            + key.versions.len() * size_of::<u64>()
            + result.rows.iter().map(row_bytes).sum::<usize>()
            + cost.pages.len() * size_of::<dmv_common::ids::PageId>();
        if bytes > CAPACITY_BYTES {
            return;
        }
        let entry = Arc::new(Entry {
            select: key.select.clone(),
            versions: key.versions.clone(),
            lineage,
            result,
            cost,
            bytes,
        });
        let mut results = self.results.lock();
        let r = &mut *results;
        match r.entries.insert(key.select_hash, entry) {
            Some(old) => r.bytes -= old.bytes,
            None => r.order.push_back(key.select_hash),
        }
        r.bytes += bytes;
        while r.bytes > CAPACITY_BYTES {
            let Some(oldest) = r.order.pop_front() else { break };
            if let Some(gone) = r.entries.remove(&oldest) {
                r.bytes -= gone.bytes;
            }
        }
    }
}

fn row_bytes(row: &Row) -> usize {
    size_of::<Row>()
        + row.iter().map(|v| size_of::<Value>() + v.as_str().map_or(0, str::len)).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::clock::{SimClock, TimeScale};
    use dmv_common::config::CpuProfile;
    use dmv_common::ids::TableId;
    use dmv_memdb::{MemDb, MemDbOptions};
    use dmv_pagestore::Residency;
    use dmv_sql::query::Join;
    use dmv_sql::schema::{ColType, Column, IndexDef, Schema, TableSchema};
    use std::time::Duration;

    fn vv(entries: &[u64]) -> VersionVector {
        VersionVector::from_entries(entries.to_vec())
    }

    fn rows(n: i64) -> ResultSet {
        ResultSet { rows: vec![vec![Value::Int(n)]], affected: 0 }
    }

    fn entries(store: &ResultStore) -> usize {
        store.results.lock().entries.len()
    }

    #[test]
    fn a_key_is_stored_on_its_second_sighting_and_served_on_its_third() {
        let store = ResultStore::new();
        let q = Query::Select(Select::scan(TableId(0)));
        let key = Key::new(&q, &vv(&[3, 9])).unwrap();
        assert!(matches!(store.lookup(&key, 0), Lookup::Miss { admit: false }));
        assert!(matches!(store.lookup(&key, 0), Lookup::Miss { admit: true }));
        store.insert(&key, 0, rows(7), StatementCost::default());
        let Lookup::Hit(entry) = store.lookup(&key, 0) else { panic!("stored key missed") };
        assert_eq!(entry.result(), &rows(7));
        // Table 1 is not read: its version is not part of the key.
        let same = Key::new(&q, &vv(&[3, 10])).unwrap();
        assert!(matches!(store.lookup(&same, 0), Lookup::Hit(_)));
        let moved = Key::new(&q, &vv(&[4, 9])).unwrap();
        assert!(matches!(store.lookup(&moved, 0), Lookup::Miss { admit: false }));
        assert!(matches!(store.lookup(&key, 1), Lookup::Miss { .. }), "another lineage");
    }

    #[test]
    fn a_newer_key_replaces_its_selects_entry_and_the_cap_evicts_the_oldest() {
        let store = ResultStore::new();
        let q = Query::Select(Select::scan(TableId(0)));
        for v in 1..=3 {
            let key = Key::new(&q, &vv(&[v, 0, 0, 0, 0])).unwrap();
            store.insert(&key, 0, rows(v as i64), StatementCost::default());
        }
        assert_eq!(entries(&store), 1, "one entry per select");
        // Four quarters and their overheads overflow the cap by two
        // entries: the small one and the first quarter, oldest first.
        let quarter =
            ResultSet { rows: vec![vec![Value::Str("x".repeat(CAPACITY_BYTES / 4))]], affected: 0 };
        let selects: Vec<Query> =
            (1..=4).map(|t| Query::Select(Select::scan(TableId(t)))).collect();
        let tag = vv(&[0; 5]);
        for q in &selects {
            store.insert(&Key::new(q, &tag).unwrap(), 0, quarter.clone(), <_>::default());
        }
        assert!(store.results.lock().bytes <= CAPACITY_BYTES);
        assert_eq!(entries(&store), 3);
        let small = Key::new(&q, &vv(&[3, 0, 0, 0, 0])).unwrap();
        assert!(matches!(store.lookup(&small, 0), Lookup::Miss { .. }));
        assert!(matches!(
            store.lookup(&Key::new(&selects[0], &tag).unwrap(), 0),
            Lookup::Miss { .. }
        ));
        assert!(matches!(store.lookup(&Key::new(&selects[3], &tag).unwrap(), 0), Lookup::Hit(_)));
    }

    /// A hit owes what its miss owed: the same modeled CPU, and a fault
    /// for every page the miss read that has been evicted since. So the
    /// modeled figures cannot tell a hit from a miss.
    #[test]
    fn a_hit_owes_its_misses_modeled_cpu_and_faults_its_evicted_pages_in() {
        let int = |name: &str| Column::new(name, ColType::Int);
        let (lines, items) = (TableId(0), TableId(1));
        let schema = Schema::new(vec![
            TableSchema::new(
                lines,
                "line",
                vec![int("l_id"), int("l_i_id")],
                vec![IndexDef::unique("pk", vec![0])],
            ),
            TableSchema::new(
                items,
                "item",
                vec![int("i_id"), int("i_qty")],
                vec![IndexDef::unique("pk", vec![0])],
            ),
        ]);
        // A probe is a millisecond, a row a nanosecond; every wait is
        // scaled below the clock's 1 µs floor, so nothing sleeps.
        let clock = SimClock::new(TimeScale::new(1e-9));
        let cpu = CpuProfile {
            per_index_probe: Duration::from_millis(1),
            per_row_scan: Duration::from_nanos(1),
            per_row_write: Duration::ZERO,
        };
        let residency = Residency::new(clock, Duration::from_millis(3));
        let db = MemDb::new(schema, MemDbOptions { cpu, clock, residency, ..Default::default() });
        let applier =
            Arc::new(PendingApplier::new(Arc::clone(db.store()), 2, Duration::from_secs(1)));
        db.set_gate(Arc::clone(&applier) as Arc<dyn dmv_memdb::ReadGate>);
        let mut load = db.begin_update();
        for i in 0..300i64 {
            let item = vec![i.into(), (i % 5).into()];
            execute(&mut load, &Query::Insert { table: items, rows: vec![item] }).unwrap();
            let line = vec![i.into(), (i * 7 % 300).into()];
            execute(&mut load, &Query::Insert { table: lines, rows: vec![line] }).unwrap();
        }
        load.commit(None);
        let q = Query::Select(
            Select::scan(lines)
                .join(Join { table: items, left_col: 1, right_col: 0, right_index: Some(0) })
                .order_by(3, true)
                .limit(10),
        );
        let store = ResultStore::new();
        let faults = || db.store().fault_count();
        // Evicts everything (or nothing), answers `q` at version 0 and
        // returns what the answer owed and faulted, and the result.
        let read = |evict: bool| {
            if evict {
                db.store().evict_all();
            }
            let f0 = faults();
            let mut txn = db.begin_read_tagged(VersionVector::new(2));
            let (rs, hit) = store.answer(&mut txn, &q, &applier).unwrap();
            let owed = txn.cpu_owed();
            txn.commit(None);
            (hit, owed, faults() - f0, rs)
        };
        let (hit, _, _, first) = read(true);
        assert!(!hit);
        let (hit, cpu_miss, faults_miss, stored) = read(true);
        assert!(!hit, "the second sighting executes and stores");
        assert!(cpu_miss >= Duration::from_millis(300), "a probe per item: {cpu_miss:?}");
        assert!(faults_miss > 2, "the miss read every page cold: {faults_miss}");
        let (hit, cpu_hit, faults_hit, served) = read(true);
        assert!(hit);
        assert_eq!(cpu_hit, cpu_miss, "a hit owes its miss's CPU");
        assert_eq!(faults_hit, faults_miss, "a hit faults in every evicted page its miss read");
        assert_eq!((&served, &stored), (&first, &first));
        let (hit, cpu_warm, faults_warm, _) = read(false);
        assert!(hit);
        assert_eq!((cpu_warm, faults_warm), (cpu_miss, 0), "resident pages fault nothing");
    }
}
