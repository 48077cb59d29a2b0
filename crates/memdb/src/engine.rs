//! The `MemDb` engine: schema, page store, lock manager, and the
//! pluggable read gate that connects slave replicas to the replication
//! layer's lazy version materialization.

use crate::lock::LockManager;
use crate::mvcc::MvccManager;
use crate::txn::{Txn, TxnMode};
use dmv_common::clock::SimClock;
use dmv_common::config::{ConcurrencyMode, CpuProfile};
use dmv_common::error::DmvResult;
use dmv_common::ids::{NodeId, PageId, TableId, TxnId};
use dmv_common::throttle::Throttle;
use dmv_common::version::VersionVector;
use dmv_pagestore::store::{PageCell, PageStore, Residency};
use dmv_pagestore::Image;
use dmv_sql::Schema;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Hook invoked before a tagged read-only transaction reads a page.
///
/// On slave replicas this is implemented by the replication layer: it
/// applies the page's pending update-log records up to the transaction's
/// version tag ("the appropriate version for each individual data item is
/// created dynamically and lazily at that slave replica"), and fails with
/// [`dmv_common::DmvError::VersionConflict`] if the page has already been
/// upgraded past the tag.
pub trait ReadGate: Send + Sync {
    /// Makes `cell` consistent for reading at `tag`.
    ///
    /// # Errors
    ///
    /// Returns a retryable error if the required version cannot be
    /// materialized (already surpassed, or the node is reconfiguring).
    fn prepare_read(&self, id: PageId, cell: &PageCell, tag: &VersionVector) -> DmvResult<()>;

    /// Materializes the image `cell` had at table-version `want`, for a
    /// tagged read that found the page already upgraded past its tag.
    /// Replication gates back this with a bounded per-page history of
    /// reverse steps (the multiversion read path); the default keeps no
    /// history, so such reads abort as [`Self::prepare_read`] reported.
    fn read_version_at(&self, _id: PageId, _cell: &PageCell, _want: u64) -> Option<Image> {
        None
    }
}

/// Gate used by stand-alone databases: pages are always current.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopGate;

impl ReadGate for NoopGate {
    fn prepare_read(&self, _id: PageId, _cell: &PageCell, _tag: &VersionVector) -> DmvResult<()> {
        Ok(())
    }
}

/// CPU service slots of a node: the paper's testbed machines are dual
/// Athlons. Concurrent query CPU charges queue beyond this.
const CPU_PERMITS: usize = 2;

/// Construction options for [`MemDb`].
#[derive(Clone, Debug)]
pub struct MemDbOptions {
    /// Node id embedded in transaction ids.
    pub node: NodeId,
    /// Page-fault model (mmap page-in cost).
    pub residency: Residency,
    /// Per-operation CPU cost model.
    pub cpu: CpuProfile,
    /// Clock used to charge modeled costs.
    pub clock: SimClock,
    /// How update transactions find conflicts: the paper's per-page 2PL
    /// locks, or first-committer-wins validation at install (see
    /// [`crate::mvcc`]). Both write private page copies.
    pub concurrency: ConcurrencyMode,
}

impl Default for MemDbOptions {
    fn default() -> Self {
        MemDbOptions {
            node: NodeId(0),
            residency: Residency::free(),
            cpu: CpuProfile::zero(),
            clock: SimClock::default(),
            concurrency: ConcurrencyMode::TwoPhase,
        }
    }
}

/// The in-memory page-based database engine.
///
/// One `MemDb` instance is one replica's database: all heap and index
/// pages of every table, a per-page 2PL lock manager (used by update
/// transactions on masters), and a [`ReadGate`] wiring tagged reads to
/// the replication layer.
pub struct MemDb {
    schema: Schema,
    store: Arc<PageStore>,
    locks: LockManager,
    mvcc: MvccManager,
    concurrency: ConcurrencyMode,
    gate: RwLock<Arc<dyn ReadGate>>,
    cpu: CpuProfile,
    cpu_throttle: Throttle,
    clock: SimClock,
    node: NodeId,
    next_txn: AtomicU64,
    insert_hints: Mutex<HashMap<TableId, u32>>,
}

impl MemDb {
    /// Creates an empty database for `schema`.
    pub fn new(schema: Schema, opts: MemDbOptions) -> Self {
        MemDb {
            schema,
            store: Arc::new(PageStore::new(opts.residency)),
            locks: LockManager::default(),
            mvcc: MvccManager::new(),
            concurrency: opts.concurrency,
            gate: RwLock::new(Arc::new(NoopGate)),
            cpu: opts.cpu,
            cpu_throttle: Throttle::new(opts.clock, CPU_PERMITS),
            clock: opts.clock,
            node: opts.node,
            next_txn: AtomicU64::new(1),
            insert_hints: Mutex::new(HashMap::new()),
        }
    }

    /// The database schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying page store (used by replication, checkpointing and
    /// migration).
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// The page lock manager.
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The copy-on-write MVCC state (commit sequencer, per-page stamps).
    pub fn mvcc(&self) -> &MvccManager {
        &self.mvcc
    }

    /// The concurrency-control protocol update transactions run under.
    pub fn concurrency(&self) -> ConcurrencyMode {
        self.concurrency
    }

    /// The engine's clock.
    pub fn clock(&self) -> SimClock {
        self.clock
    }

    /// Installs the read gate (called by the replication layer when the
    /// replica becomes a slave).
    pub fn set_gate(&self, gate: Arc<dyn ReadGate>) {
        *self.gate.write() = gate;
    }

    pub(crate) fn gate(&self) -> Arc<dyn ReadGate> {
        self.gate.read().clone()
    }

    fn next_txn_id(&self) -> TxnId {
        TxnId::new(self.node, self.next_txn.fetch_add(1, Ordering::Relaxed)) // relaxed-ok: ID allocator; uniqueness comes from the RMW, nothing is published
    }

    /// Begins an update transaction under [`MemDb::concurrency`]
    /// (master side).
    pub fn begin_update(&self) -> Txn<'_> {
        Txn::new(self, self.next_txn_id(), TxnMode::Update)
    }

    /// Begins a read-only transaction reading the state tagged by the
    /// scheduler (slave side).
    pub fn begin_read_tagged(&self, tag: VersionVector) -> Txn<'_> {
        Txn::new(self, self.next_txn_id(), TxnMode::ReadTagged(tag))
    }

    /// Begins an untagged, latched read-only transaction (stand-alone
    /// single-node use; no snapshot across pages in either concurrency
    /// mode — see [`TxnMode::ReadLocal`]).
    pub fn begin_read_local(&self) -> Txn<'_> {
        Txn::new(self, self.next_txn_id(), TxnMode::ReadLocal)
    }

    pub(crate) fn insert_hint(&self, table: TableId) -> u32 {
        *self.insert_hints.lock().get(&table).unwrap_or(&0)
    }

    pub(crate) fn set_insert_hint(&self, table: TableId, page_no: u32) {
        self.insert_hints.lock().insert(table, page_no);
    }

    /// CPU cost of scanning `n` rows.
    pub(crate) fn cost_scan(&self, n: usize) -> Duration {
        self.cpu.per_row_scan * n as u32
    }

    /// CPU cost of one index probe.
    pub(crate) fn cost_probe(&self) -> Duration {
        self.cpu.per_index_probe
    }

    /// CPU cost of writing `n` rows.
    pub(crate) fn cost_write(&self, n: usize) -> Duration {
        self.cpu.per_row_write * n as u32
    }

    /// Pays accrued CPU cost through the node's CPU throttle.
    pub(crate) fn charge_duration(&self, d: Duration) {
        if !d.is_zero() {
            self.cpu_throttle.charge(d);
        }
    }
}

impl std::fmt::Debug for MemDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDb")
            .field("node", &self.node)
            .field("tables", &self.schema.len())
            .field("pages", &self.store.len())
            .finish()
    }
}
