//! Per-page two-phase-locking lock manager.
//!
//! The master database "decides the order of execution of write
//! transactions ... based on its internal two-phase-locking per-page
//! concurrency control" (paper §2.1). Shared/exclusive page locks are
//! held until commit; conflicts wait with a timeout, and a timed-out
//! waiter aborts with [`DmvError::Deadlock`] — the simple deadlock
//! resolution the retry-based TPC-W client tolerates well.
//!
//! Locks are all that `ConcurrencyMode::TwoPhase` adds to the one write
//! path: in both modes a writer buffers copy-on-write page copies and
//! installs them through [`crate::mvcc`], and under 2PL the locks it
//! took before touching each page make that install's validation pass.
//! Under `ConcurrencyMode::MvccCow` update transactions take no lock
//! here, so a hot page costs a retryable `VersionConflict` at commit
//! rather than a lock-timeout wait. Both abort paths are retryable,
//! which is what lets the differential rig drive the same workloads
//! through either protocol.

use dmv_common::clock::wall_deadline;
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{PageId, TxnId};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::time::Duration;

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock; compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock; incompatible with everything.
    Exclusive,
}

#[derive(Debug, Default)]
struct LockEntry {
    /// Holders and their modes. Invariant: at most one exclusive holder,
    /// and an exclusive holder is the only holder.
    holders: Vec<(TxnId, LockMode)>,
}

impl LockEntry {
    fn can_grant(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => {
                self.holders.iter().all(|(t, m)| *t == txn || *m == LockMode::Shared)
            }
            LockMode::Exclusive => self.holders.iter().all(|(t, _)| *t == txn),
        }
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        if let Some(h) = self.holders.iter_mut().find(|(t, _)| *t == txn) {
            // Upgrade (or redundant re-grant).
            if mode == LockMode::Exclusive {
                h.1 = LockMode::Exclusive;
            }
        } else {
            self.holders.push((txn, mode));
        }
    }
}

/// Table of page locks with blocking acquisition.
#[derive(Debug)]
pub struct LockManager {
    entries: Mutex<HashMap<PageId, LockEntry>>,
    released: Condvar,
    timeout: Duration,
}

impl LockManager {
    /// Creates a lock manager whose waits time out (and abort the waiter)
    /// after `timeout` of wall time.
    pub fn new(timeout: Duration) -> Self {
        LockManager { entries: Mutex::new(HashMap::new()), released: Condvar::new(), timeout }
    }

    /// Acquires (or upgrades to) `mode` on `page` for `txn`, blocking
    /// until compatible.
    ///
    /// # Errors
    ///
    /// Returns [`DmvError::Deadlock`] if the wait exceeds the configured
    /// timeout; the caller is expected to abort the transaction.
    pub fn acquire(&self, txn: TxnId, page: PageId, mode: LockMode) -> DmvResult<()> {
        let deadline = wall_deadline(self.timeout);
        let mut entries = self.entries.lock();
        loop {
            let entry = entries.entry(page).or_default();
            if entry.can_grant(txn, mode) {
                entry.grant(txn, mode);
                return Ok(());
            }
            if self.released.wait_until(&mut entries, deadline).timed_out() {
                return Err(DmvError::Deadlock(txn));
            }
        }
    }

    /// Releases `txn`'s lock on `page` alone (no-op if not held) and
    /// wakes waiters. Mid-transaction single-page release breaks strict
    /// 2PL, so it is reserved for pages the transaction provably never
    /// modified and whose content cannot steer it again — today only a
    /// freshly allocated page lost to rival inserters
    /// ([`crate::Txn::forget_fresh_page`]).
    pub fn release(&self, txn: TxnId, page: PageId) {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get_mut(&page) {
            e.holders.retain(|(t, _)| *t != txn);
            if e.holders.is_empty() {
                entries.remove(&page);
            }
        }
        drop(entries);
        self.released.notify_all();
    }

    /// Releases every lock held by `txn` and wakes waiters.
    pub fn release_all(&self, txn: TxnId) {
        let mut entries = self.entries.lock();
        entries.retain(|_, e| {
            e.holders.retain(|(t, _)| *t != txn);
            !e.holders.is_empty()
        });
        drop(entries);
        self.released.notify_all();
    }

    /// The mode `txn` currently holds on `page`, if any.
    pub fn held(&self, txn: TxnId, page: PageId) -> Option<LockMode> {
        self.entries
            .lock()
            .get(&page)
            .and_then(|e| e.holders.iter().find(|(t, _)| *t == txn).map(|(_, m)| *m))
    }

    /// Number of pages with at least one holder (diagnostics).
    pub fn locked_pages(&self) -> usize {
        self.entries.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::ids::{NodeId, TableId};
    use std::sync::Arc;

    fn page(n: u32) -> PageId {
        PageId::heap(TableId(0), n)
    }

    fn txn(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    fn mgr() -> LockManager {
        LockManager::new(Duration::from_millis(50))
    }

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        m.acquire(txn(2), page(0), LockMode::Shared).unwrap();
        assert_eq!(m.held(txn(1), page(0)), Some(LockMode::Shared));
        assert_eq!(m.held(txn(2), page(0)), Some(LockMode::Shared));
    }

    #[test]
    fn exclusive_blocks_and_times_out() {
        let m = mgr();
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        let err = m.acquire(txn(2), page(0), LockMode::Shared).unwrap_err();
        assert_eq!(err, DmvError::Deadlock(txn(2)));
    }

    #[test]
    fn release_unblocks_waiter() {
        let m = Arc::new(LockManager::new(Duration::from_secs(5)));
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.acquire(txn(2), page(0), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(20));
        m.release_all(txn(1));
        h.join().unwrap().unwrap();
        assert_eq!(m.held(txn(2), page(0)), Some(LockMode::Exclusive));
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = mgr();
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        assert_eq!(m.held(txn(1), page(0)), Some(LockMode::Exclusive));
        // downgrade requests are no-ops
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        assert_eq!(m.held(txn(1), page(0)), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let m = mgr();
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        m.acquire(txn(2), page(0), LockMode::Shared).unwrap();
        assert!(m.acquire(txn(1), page(0), LockMode::Exclusive).is_err());
    }

    #[test]
    fn single_page_release_keeps_other_locks_and_unblocks_waiter() {
        let m = Arc::new(LockManager::new(Duration::from_secs(5)));
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        m.acquire(txn(1), page(1), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.acquire(txn(2), page(0), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(20));
        m.release(txn(1), page(0));
        h.join().unwrap().unwrap();
        assert_eq!(m.held(txn(2), page(0)), Some(LockMode::Exclusive));
        assert_eq!(m.held(txn(1), page(0)), None);
        assert_eq!(m.held(txn(1), page(1)), Some(LockMode::Exclusive), "other locks survive");
        // Releasing an unheld page is a no-op.
        m.release(txn(1), page(7));
    }

    #[test]
    fn release_all_clears_everything() {
        let m = mgr();
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        m.acquire(txn(1), page(1), LockMode::Shared).unwrap();
        assert_eq!(m.locked_pages(), 2);
        m.release_all(txn(1));
        assert_eq!(m.locked_pages(), 0);
        assert_eq!(m.held(txn(1), page(0)), None);
    }

    #[test]
    fn independent_pages_do_not_conflict() {
        let m = mgr();
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        m.acquire(txn(2), page(1), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn contention_many_threads_serialize() {
        let m = Arc::new(LockManager::new(Duration::from_secs(10)));
        let counter = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let m = Arc::clone(&m);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    m.acquire(txn(i), page(0), LockMode::Exclusive).unwrap();
                    {
                        let mut c = counter.lock();
                        *c += 1;
                    }
                    m.release_all(txn(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 160);
    }
}
