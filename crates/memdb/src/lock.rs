//! Per-page two-phase-locking lock manager: the master "decides the order
//! of execution of write transactions ... based on its internal
//! two-phase-locking per-page concurrency control" (paper §2.1).
//!
//! Locks are held until the transaction ends, and a wait ends only when
//! the lock is granted or a cycle is found, never in a time-out. Requests
//! are granted in arrival order: one that conflicts with a holder, or with
//! a request queued before it, queues behind them. A holder's upgrade goes
//! first and waits only for the other holders. A release wakes exactly the
//! waiters it grants. Before a request waits, the manager follows the
//! wait-for edges from whom it would wait on; if they lead back to the
//! requester, it gets the retryable [`DmvError::Deadlock`] at once and
//! enqueues nothing (InnoDB's rule). A [`crate::Txn`] releases the pages
//! it lists as held; under `MvccCow` it takes no locks.

use dmv_check::sync::{Condvar, Mutex};
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::fx::FxHashMap;
use dmv_common::ids::{PageId, TxnId};
use std::collections::hash_map::Entry::Occupied;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock; compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock; incompatible with everything.
    Exclusive,
}

/// A waiting request, and the condvar only its grant signals.
#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    wake: Arc<Condvar>,
}

#[derive(Debug, Default)]
struct Entry {
    /// Any number of S holders, or one X holder.
    holders: Vec<(TxnId, LockMode)>,
    /// Waiting requests in grant order: an upgrade first, then arrivals.
    queue: VecDeque<Waiter>,
}

impl Entry {
    /// Whom a request of `txn` for `mode`, with `ahead` waiters queued
    /// before it, waits on: the holders and those waiters it conflicts with.
    fn blockers(&self, txn: TxnId, mode: LockMode, ahead: usize) -> Vec<TxnId> {
        let queued = self.queue.iter().take(ahead).map(|w| (w.txn, w.mode));
        let conflicts = |m: LockMode| m == LockMode::Exclusive || mode == LockMode::Exclusive;
        let all = self.holders.iter().copied().chain(queued);
        all.filter(|&(t, m)| t != txn && conflicts(m)).map(|(t, _)| t).collect()
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match self.holders.iter_mut().find(|(t, _)| *t == txn) {
            Some(held) => held.1 = mode,
            None => self.holders.push((txn, mode)),
        }
    }
}

#[derive(Debug, Default)]
struct Table {
    pages: FxHashMap<PageId, Entry>,
    /// The page each waiting transaction waits on.
    waiting: FxHashMap<TxnId, PageId>,
    /// Test hook: wait without looking for a cycle.
    skip_cycle_check: bool,
}

impl Table {
    /// Whom waiting transaction `t` waits on; `None` if it is not waiting.
    fn waits_for(&self, t: TxnId) -> Option<Vec<TxnId>> {
        let e = self.pages.get(self.waiting.get(&t)?)?;
        let at = e.queue.iter().position(|w| w.txn == t)?;
        Some(e.blockers(t, e.queue[at].mode, at))
    }

    /// Whether the wait-for edges from `from` lead back to `txn`.
    fn leads_back(&self, txn: TxnId, from: Vec<TxnId>, seen: &mut HashSet<TxnId>) -> bool {
        from.into_iter().any(|t| {
            t == txn
                || (seen.insert(t)
                    && self.waits_for(t).is_some_and(|b| self.leads_back(txn, b, seen)))
        })
    }

    /// Drops `txn` from `page`'s holders, grants the waiters at the head
    /// of its queue that now fit, waking each one, and forgets the page
    /// once it is free.
    fn release(&mut self, txn: TxnId, page: PageId) {
        let Occupied(mut slot) = self.pages.entry(page) else { return };
        let e = slot.get_mut();
        e.holders.retain(|(t, _)| *t != txn);
        while let Some(w) = e.queue.pop_front() {
            if !e.blockers(w.txn, w.mode, 0).is_empty() {
                e.queue.push_front(w);
                break;
            }
            e.grant(w.txn, w.mode);
            self.waiting.remove(&w.txn);
            w.wake.notify_one();
        }
        if e.holders.is_empty() && e.queue.is_empty() {
            slot.remove();
        }
    }
}

/// Table of page locks with blocking acquisition.
#[derive(Debug)]
pub struct LockManager {
    lock_table: Mutex<Table>,
}

impl Default for LockManager {
    fn default() -> Self {
        let mgr = LockManager { lock_table: Mutex::new(Table::default()) };
        dmv_check::race::label(&mgr.lock_table, "lock_table");
        mgr
    }
}

impl LockManager {
    /// Acquires (or upgrades to) `mode` on `page` for `txn`, blocking
    /// until it is granted. A mode `txn` already holds, or S while it
    /// holds X, is granted at once.
    ///
    /// # Errors
    ///
    /// [`DmvError::Deadlock`], without waiting, if the wait would close a
    /// cycle of waiting transactions; the caller aborts the transaction.
    pub fn acquire(&self, txn: TxnId, page: PageId, mode: LockMode) -> DmvResult<()> {
        let mut table = self.lock_table.lock();
        let e = table.pages.entry(page).or_default();
        let held = e.holders.iter().find(|(t, _)| *t == txn).map(|&(_, m)| m);
        if held == Some(LockMode::Exclusive) || held == Some(mode) {
            return Ok(());
        }
        // An upgrade queues first, any other request last.
        let at = if held.is_some() { 0 } else { e.queue.len() };
        let blockers = e.blockers(txn, mode, at);
        if blockers.is_empty() {
            e.grant(txn, mode);
            return Ok(());
        }
        if !table.skip_cycle_check && table.leads_back(txn, blockers, &mut HashSet::new()) {
            return Err(DmvError::Deadlock(txn));
        }
        let wake = Arc::new(Condvar::new());
        let waiter = Waiter { txn, mode, wake: Arc::clone(&wake) };
        table.pages.entry(page).or_default().queue.insert(at, waiter);
        table.waiting.insert(txn, page);
        while table.waiting.contains_key(&txn) {
            wake.wait(&mut table);
        }
        Ok(())
    }

    /// Releases `txn`'s locks on `pages` and grants what waits on them.
    pub fn release_all(&self, txn: TxnId, pages: impl IntoIterator<Item = PageId>) {
        let mut table = self.lock_table.lock();
        for page in pages {
            table.release(txn, page);
        }
    }

    /// Test hook: when set, a request waits without looking for a cycle,
    /// so a deadlock hangs its transactions (the model checker's bug twin).
    pub fn set_skip_cycle_check_for_test(&self, skip: bool) {
        self.lock_table.lock().skip_cycle_check = skip;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::ids::{NodeId, TableId};
    use std::time::Duration;

    fn page(n: u32) -> PageId {
        PageId::heap(TableId(0), n)
    }

    fn txn(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    /// The mode `txn` holds on `page`, if any.
    fn held(m: &LockManager, txn: TxnId, page: PageId) -> Option<LockMode> {
        let table = m.lock_table.lock();
        table.pages.get(&page)?.holders.iter().find(|(t, _)| *t == txn).map(|&(_, m)| m)
    }

    /// Pages with at least one holder or waiter.
    fn locked_pages(m: &LockManager) -> usize {
        m.lock_table.lock().pages.len()
    }

    /// Waits until `n` transactions wait in `m`.
    fn await_waiters(m: &LockManager, n: usize) {
        while m.lock_table.lock().waiting.len() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn shared_locks_coexist() {
        let m = LockManager::default();
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        m.acquire(txn(2), page(0), LockMode::Shared).unwrap();
        assert_eq!(held(&m, txn(1), page(0)), Some(LockMode::Shared));
        assert_eq!(held(&m, txn(2), page(0)), Some(LockMode::Shared));
    }

    /// Two transactions that each hold X on one page and ask for the
    /// other's: the second to ask closes the cycle and gets `Deadlock`
    /// at once, and the first is granted when the victim releases.
    #[test]
    fn exclusive_in_opposite_orders_is_a_deadlock_found_at_once() {
        let m = Arc::new(LockManager::default());
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        m.acquire(txn(2), page(1), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let first = std::thread::spawn(move || m2.acquire(txn(1), page(1), LockMode::Exclusive));
        await_waiters(&m, 1);
        let err = m.acquire(txn(2), page(0), LockMode::Shared).unwrap_err();
        assert_eq!(err, DmvError::Deadlock(txn(2)));
        m.release_all(txn(2), [page(1)]);
        first.join().unwrap().unwrap();
        assert_eq!(held(&m, txn(1), page(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn release_unblocks_waiter() {
        let m = Arc::new(LockManager::default());
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.acquire(txn(2), page(0), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(20));
        m.release_all(txn(1), [page(0)]);
        h.join().unwrap().unwrap();
        assert_eq!(held(&m, txn(2), page(0)), Some(LockMode::Exclusive));
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = LockManager::default();
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        assert_eq!(held(&m, txn(1), page(0)), Some(LockMode::Exclusive));
        // downgrade requests are no-ops
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        assert_eq!(held(&m, txn(1), page(0)), Some(LockMode::Exclusive));
    }

    /// Two S holders that both upgrade: the first waits for the second,
    /// whose upgrade closes the cycle and gets `Deadlock` at once; its
    /// release grants the first.
    #[test]
    fn upgrades_of_two_readers_are_a_deadlock_found_at_once() {
        let m = Arc::new(LockManager::default());
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        m.acquire(txn(2), page(0), LockMode::Shared).unwrap();
        let m2 = Arc::clone(&m);
        let first = std::thread::spawn(move || m2.acquire(txn(1), page(0), LockMode::Exclusive));
        await_waiters(&m, 1);
        let err = m.acquire(txn(2), page(0), LockMode::Exclusive).unwrap_err();
        assert_eq!(err, DmvError::Deadlock(txn(2)));
        m.release_all(txn(2), [page(0)]);
        first.join().unwrap().unwrap();
        assert_eq!(held(&m, txn(1), page(0)), Some(LockMode::Exclusive));
    }

    /// An S request that arrives while an X request waits behind S
    /// holders queues behind the X: it is granted only after the X is
    /// granted and released.
    #[test]
    fn shared_does_not_pass_a_queued_exclusive() {
        let m = Arc::new(LockManager::default());
        m.acquire(txn(1), page(0), LockMode::Shared).unwrap();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let spawn = |t: u64, mode| {
            let (m, order) = (Arc::clone(&m), Arc::clone(&order));
            std::thread::spawn(move || {
                m.acquire(txn(t), page(0), mode).unwrap();
                order.lock().push(t);
                m.release_all(txn(t), [page(0)]);
            })
        };
        let writer = spawn(2, LockMode::Exclusive);
        await_waiters(&m, 1);
        let reader = spawn(3, LockMode::Shared);
        await_waiters(&m, 2);
        m.release_all(txn(1), [page(0)]);
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(*order.lock(), [2, 3]);
        assert_eq!(locked_pages(&m), 0);
    }

    #[test]
    fn single_page_release_keeps_other_locks_and_unblocks_waiter() {
        let m = Arc::new(LockManager::default());
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        m.acquire(txn(1), page(1), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.acquire(txn(2), page(0), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(20));
        m.release_all(txn(1), [page(0)]);
        h.join().unwrap().unwrap();
        assert_eq!(held(&m, txn(2), page(0)), Some(LockMode::Exclusive));
        assert_eq!(held(&m, txn(1), page(0)), None);
        assert_eq!(held(&m, txn(1), page(1)), Some(LockMode::Exclusive), "other locks survive");
        // Releasing an unheld page is a no-op.
        m.release_all(txn(1), [page(7)]);
    }

    #[test]
    fn release_all_clears_everything() {
        let m = LockManager::default();
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        m.acquire(txn(1), page(1), LockMode::Shared).unwrap();
        assert_eq!(locked_pages(&m), 2);
        m.release_all(txn(1), [page(0), page(1)]);
        assert_eq!(locked_pages(&m), 0);
        assert_eq!(held(&m, txn(1), page(0)), None);
    }

    #[test]
    fn independent_pages_do_not_conflict() {
        let m = LockManager::default();
        m.acquire(txn(1), page(0), LockMode::Exclusive).unwrap();
        m.acquire(txn(2), page(1), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn contention_many_threads_serialize() {
        let m = Arc::new(LockManager::default());
        let counter = Arc::new(parking_lot::Mutex::new(0u32));
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
                    m.release_all(txn(i), [page(0)]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 160);
        assert_eq!(locked_pages(&m), 0);
    }
}
