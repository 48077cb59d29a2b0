//! The on-disk engine: serializable transactions over a bounded buffer
//! pool with charged disk I/O.

use crate::wal::Wal;
use dmv_common::clock::SimClock;
use dmv_common::config::{ConcurrencyMode, CpuProfile, DiskProfile};
use dmv_common::error::DmvResult;
use dmv_common::ids::NodeId;
use dmv_common::throttle::Throttle;
use dmv_memdb::{MemDb, MemDbOptions};
use dmv_pagestore::store::Residency;
use dmv_sql::exec::{ExecRunner, RecordingRunner, ResultSet, StatementRunner};
use dmv_sql::query::{Query, Select};
use dmv_sql::row::Row;
use dmv_sql::schema::Schema;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Construction options for [`DiskDb`].
#[derive(Debug, Clone)]
pub struct DiskDbOptions {
    /// Node id for transaction ids.
    pub node: NodeId,
    /// Disk latency model.
    pub disk: DiskProfile,
    /// CPU cost model.
    pub cpu: CpuProfile,
    /// Clock charging modeled costs.
    pub clock: SimClock,
    /// Buffer pool capacity in pages; misses charge a random read.
    pub buffer_pages: usize,
}

impl Default for DiskDbOptions {
    fn default() -> Self {
        DiskDbOptions {
            node: NodeId(0),
            disk: DiskProfile::commodity_2007(),
            cpu: CpuProfile::zero(),
            clock: SimClock::default(),
            buffer_pages: 256,
        }
    }
}

/// Canonical digest over table contents: per table (in the given
/// order), row representations are sorted — physical row order never
/// matters — and folded with FNV-1a. Two databases holding the same
/// logical state produce the same digest regardless of engine, page
/// layout or insertion order; this is the primitive behind cross-tier
/// state audits (in-memory replicas vs. on-disk backends).
pub fn rows_digest<'a>(tables: impl IntoIterator<Item = (u16, &'a [Row])>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut fold = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for (table, rows) in tables {
        fold(&table.to_le_bytes());
        let mut reprs: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        reprs.sort_unstable();
        for r in reprs {
            fold(r.as_bytes());
            fold(&[0xff]);
        }
    }
    h
}

/// An InnoDB-like on-disk database: page storage with a bounded buffer
/// pool, strict two-phase locking (serializable), and a WAL forced at
/// commit.
///
/// Heap/index mechanics are shared with the in-memory engine; the
/// difference is the cost model. A buffer miss (non-resident page)
/// charges [`DiskProfile::read_latency`]; each committed write
/// transaction charges one [`DiskProfile::fsync_latency`]; capacity is
/// enforced by evicting pages after each transaction.
pub struct DiskDb {
    inner: MemDb,
    disk_arm: Throttle,
    wal: Wal,
    clock: SimClock,
    buffer_pages: usize,
    evict_epoch: AtomicU64,
    /// Fault-injection gate: while true, transactions block at entry —
    /// a wedged disk tier. Callers must unstall before shutdown or any
    /// drain, or the feed thread blocks forever.
    stalled: Mutex<bool>,
    stall_cv: Condvar,
}

impl DiskDb {
    /// Creates an empty on-disk database for `schema`.
    pub fn new(schema: Schema, opts: DiskDbOptions) -> Self {
        // One disk arm per node: buffer misses, WAL forces and log
        // replays all contend for it.
        let disk_arm = Throttle::new(opts.clock, 1);
        let wal_arm = disk_arm.clone();
        let residency = Residency::with_throttle(disk_arm.clone(), opts.disk.read_latency);
        let inner = MemDb::new(
            schema,
            MemDbOptions {
                node: opts.node,
                residency,
                cpu: opts.cpu,
                clock: opts.clock,
                // Backends replay serialized write-sets; 2PL suffices.
                concurrency: ConcurrencyMode::TwoPhase,
            },
        );
        DiskDb {
            inner,
            disk_arm,
            wal: Wal::new(wal_arm, opts.disk),
            clock: opts.clock,
            buffer_pages: opts.buffer_pages,
            evict_epoch: AtomicU64::new(0),
            stalled: Mutex::new(false),
            stall_cv: Condvar::new(),
        }
    }

    /// Stalls (`true`) or resumes (`false`) the engine: while stalled,
    /// every transaction blocks at entry, modeling an I/O-wedged backend.
    pub fn set_stalled(&self, stalled: bool) {
        *self.stalled.lock().expect("stall gate poisoned") = stalled;
        self.stall_cv.notify_all();
    }

    fn wait_unstalled(&self) {
        let mut g = self.stalled.lock().expect("stall gate poisoned");
        while *g {
            g = self.stall_cv.wait(g).expect("stall gate poisoned");
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    /// The WAL (for recovery tests and fail-over replay).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The node's disk throttle (shared by buffer pool and logs).
    pub fn disk_arm(&self) -> Throttle {
        self.disk_arm.clone()
    }

    /// The engine's clock.
    pub fn clock(&self) -> SimClock {
        self.clock
    }

    /// Buffer misses taken so far.
    pub fn buffer_misses(&self) -> u64 {
        self.inner.store().fault_count()
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.inner.store().resident_count()
    }

    /// Total pages in the database.
    pub fn total_pages(&self) -> usize {
        self.inner.store().len()
    }

    /// Executes one transaction driven by a statement closure under
    /// strict 2PL; commits with a WAL force if it wrote anything.
    /// Returns the write statements that were logged.
    ///
    /// # Errors
    ///
    /// On any statement error the transaction is rolled back and the
    /// error returned (retryable errors are worth retrying).
    pub fn run_with(
        &self,
        f: &mut dyn FnMut(&mut dyn StatementRunner) -> DmvResult<()>,
    ) -> DmvResult<Vec<Query>> {
        self.wait_unstalled();
        let mut txn = self.inner.begin_update();
        let writes = {
            let mut er = ExecRunner::new(&mut txn);
            let mut rec = RecordingRunner::new(&mut er);
            match f(&mut rec) {
                Ok(()) => rec.writes,
                Err(e) => {
                    drop(rec);
                    txn.abort();
                    return Err(e);
                }
            }
        };
        let wrote = txn.has_writes();
        let id = txn.id();
        if wrote {
            self.wal.append(id, writes.clone());
        }
        txn.commit(None);
        self.enforce_capacity();
        Ok(writes)
    }

    /// Batch form of [`DiskDb::run_with`]: executes the statements in
    /// order and returns their results.
    ///
    /// # Errors
    ///
    /// Same as [`DiskDb::run_with`].
    pub fn execute_txn(&self, queries: &[Query]) -> DmvResult<Vec<ResultSet>> {
        let mut results = Vec::with_capacity(queries.len());
        self.run_with(&mut |r| {
            for q in queries {
                results.push(r.run(q)?);
            }
            Ok(())
        })?;
        Ok(results)
    }

    /// Replays previously logged statements (recovery / spare refresh);
    /// identical to [`DiskDb::execute_txn`] per record.
    ///
    /// # Errors
    ///
    /// Propagates the first replay failure.
    pub fn replay<'a>(&self, batches: impl IntoIterator<Item = &'a [Query]>) -> DmvResult<usize> {
        let mut n = 0;
        for batch in batches {
            self.execute_txn(batch)?;
            n += 1;
        }
        Ok(n)
    }

    /// Bulk-loads rows without WAL forces or per-row charges — database
    /// population, which the paper excludes from measurement.
    ///
    /// # Errors
    ///
    /// Propagates insert errors (duplicate keys, schema violations).
    pub fn bulk_load(
        &self,
        table: dmv_common::ids::TableId,
        rows: &[dmv_sql::Row],
    ) -> DmvResult<()> {
        use dmv_sql::exec::ExecContext;
        for chunk in rows.chunks(512) {
            let mut txn = self.inner.begin_update();
            for row in chunk {
                if let Err(e) = txn.insert(table, row.clone()) {
                    txn.abort();
                    return Err(e);
                }
            }
            txn.commit(None);
        }
        Ok(())
    }

    /// State-audit API: a canonical digest of every table's current
    /// contents (see [`rows_digest`]). Runs as an ordinary read
    /// transaction, so it blocks while the engine is stalled.
    ///
    /// # Errors
    ///
    /// Propagates scan failures (deadlocks under contention).
    pub fn state_digest(&self) -> DmvResult<u64> {
        let queries: Vec<Query> =
            self.schema().tables().map(|t| Query::Select(Select::scan(t.id))).collect();
        let ids: Vec<u16> = self.schema().tables().map(|t| t.id.0).collect();
        let results = self.execute_txn(&queries)?;
        Ok(rows_digest(ids.iter().copied().zip(results.iter().map(|rs| rs.rows.as_slice()))))
    }

    /// Marks every page resident without charging I/O (a warm start, as
    /// after the paper's excluded cache warm-up period).
    pub fn prewarm(&self) {
        for id in self.inner.store().page_ids() {
            if let Some(c) = self.inner.store().get(id) {
                c.set_resident(true);
            }
        }
    }

    /// Marks every page non-resident (cold start).
    pub fn chill(&self) {
        self.inner.store().evict_all();
    }

    /// Evicts pages down to the buffer pool capacity using a hashed
    /// pseudo-random victim choice (a stand-in for CLOCK; under a
    /// steady working set larger than the pool it yields the same
    /// steady-state miss behaviour).
    fn enforce_capacity(&self) {
        let store = self.inner.store();
        let resident = store.resident_count();
        if resident <= self.buffer_pages {
            return;
        }
        let excess = resident - self.buffer_pages;
        let epoch = self.evict_epoch.fetch_add(1, Ordering::Relaxed); // relaxed-ok: eviction epoch stamp; only relative recency matters
        let mut candidates: Vec<_> = store
            .page_ids()
            .into_iter()
            .filter(|id| store.get(*id).is_some_and(|c| c.is_resident()))
            .collect();
        candidates.sort_by_key(|id| {
            let mut h = DefaultHasher::new();
            (id, epoch).hash(&mut h);
            h.finish()
        });
        for id in candidates.into_iter().take(excess) {
            if let Some(c) = store.get(id) {
                c.set_resident(false);
            }
        }
    }
}

impl std::fmt::Debug for DiskDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskDb")
            .field("pages", &self.total_pages())
            .field("resident", &self.resident_pages())
            .field("wal_records", &self.wal.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::ids::TableId;
    use dmv_sql::query::{Access, Expr, Select, SetExpr};
    use dmv_sql::schema::{ColType, Column, IndexDef, TableSchema};
    use dmv_sql::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![TableSchema::new(
            TableId(0),
            "kv",
            vec![Column::new("k", ColType::Int), Column::new("v", ColType::Str)],
            vec![IndexDef::unique("pk", vec![0])],
        )])
    }

    fn insert(k: i64, v: &str) -> Query {
        Query::Insert { table: TableId(0), rows: vec![vec![k.into(), v.into()]] }
    }

    #[test]
    fn txn_executes_and_logs() {
        let db = DiskDb::new(schema(), DiskDbOptions::default());
        db.execute_txn(&[insert(1, "a"), insert(2, "b")]).unwrap();
        assert_eq!(db.wal().len(), 1);
        let rs = db.execute_txn(&[Query::Select(Select::scan(TableId(0)))]).unwrap();
        assert_eq!(rs[0].rows.len(), 2);
        // read-only transactions do not force the log
        assert_eq!(db.wal().len(), 1);
    }

    #[test]
    fn failed_statement_rolls_back_whole_txn() {
        let db = DiskDb::new(schema(), DiskDbOptions::default());
        db.execute_txn(&[insert(1, "a")]).unwrap();
        let err = db.execute_txn(&[insert(2, "b"), insert(1, "dup")]).unwrap_err();
        assert!(matches!(err, dmv_common::DmvError::DuplicateKey(_)));
        let rs = db.execute_txn(&[Query::Select(Select::scan(TableId(0)))]).unwrap();
        assert_eq!(rs[0].rows.len(), 1, "partial transaction must not persist");
    }

    #[test]
    fn recovery_replays_wal_into_fresh_db() {
        let db = DiskDb::new(schema(), DiskDbOptions::default());
        db.execute_txn(&[insert(1, "a")]).unwrap();
        db.execute_txn(&[insert(2, "b")]).unwrap();
        db.execute_txn(&[Query::Update {
            table: TableId(0),
            access: Access::Auto,
            filter: Some(Expr::eq(0, 1)),
            set: vec![(1, SetExpr::Value("a2".into()))],
        }])
        .unwrap();

        let recovered = DiskDb::new(schema(), DiskDbOptions::default());
        let records = db.wal().read_from(0);
        let batches: Vec<&[Query]> = records.iter().map(|r| r.queries.as_slice()).collect();
        assert_eq!(recovered.replay(batches).unwrap(), 3);
        let rs = recovered
            .execute_txn(&[Query::Select(Select::by_pk(TableId(0), vec![1.into()]))])
            .unwrap();
        assert_eq!(rs[0].rows[0][1], Value::from("a2"));
    }

    #[test]
    fn buffer_pool_capacity_enforced() {
        // A compressed clock keeps the 2000 charged fsyncs cheap.
        let clock = SimClock::new(dmv_common::clock::TimeScale::new(1e-6));
        let opts = DiskDbOptions { buffer_pages: 4, clock, ..Default::default() };
        let db = DiskDb::new(schema(), opts);
        // Enough rows to allocate well over 4 pages.
        for i in 0..2000i64 {
            db.execute_txn(&[insert(i, "some-padding-value-to-grow-pages")]).unwrap();
        }
        assert!(db.total_pages() > 8, "want many pages, got {}", db.total_pages());
        assert!(db.resident_pages() <= 4, "resident {} > capacity", db.resident_pages());
        let before = db.buffer_misses();
        let _ = db.execute_txn(&[Query::Select(Select::scan(TableId(0)))]).unwrap();
        assert!(db.buffer_misses() > before, "scan over a tiny pool must miss");
    }

    #[test]
    fn state_digest_is_order_insensitive_and_content_sensitive() {
        let a = DiskDb::new(schema(), DiskDbOptions::default());
        let b = DiskDb::new(schema(), DiskDbOptions::default());
        a.execute_txn(&[insert(1, "x")]).unwrap();
        a.execute_txn(&[insert(2, "y")]).unwrap();
        b.execute_txn(&[insert(2, "y")]).unwrap();
        b.execute_txn(&[insert(1, "x")]).unwrap();
        assert_eq!(a.state_digest().unwrap(), b.state_digest().unwrap());
        b.execute_txn(&[insert(3, "z")]).unwrap();
        assert_ne!(a.state_digest().unwrap(), b.state_digest().unwrap());
    }

    #[test]
    fn stall_blocks_transactions_until_resumed() {
        let db = std::sync::Arc::new(DiskDb::new(schema(), DiskDbOptions::default()));
        db.set_stalled(true);
        let db2 = std::sync::Arc::clone(&db);
        let h = std::thread::spawn(move || db2.execute_txn(&[insert(1, "a")]).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!h.is_finished(), "transaction ran through a stalled engine");
        db.set_stalled(false);
        assert!(h.join().unwrap());
    }

    #[test]
    fn prewarm_and_chill() {
        let db = DiskDb::new(schema(), DiskDbOptions::default());
        db.execute_txn(&[insert(1, "a")]).unwrap();
        db.chill();
        assert_eq!(db.resident_pages(), 0);
        db.prewarm();
        assert_eq!(db.resident_pages(), db.total_pages());
    }
}
