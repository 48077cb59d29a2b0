//! Cumulative-acknowledgement tracking for the master's commit path.
//!
//! Per-txn ack bookkeeping (`HashMap<TxnId, HashSet<NodeId>>` churned
//! on every commit and every ack) is replaced by one monotone
//! [`AtomicU64`] **watermark per peer**: a slave's `CumAck { seq }`
//! means "every write-set with commit sequence ≤ `seq` is received and
//! enqueued", so recording an ack is a single `fetch_max` and a
//! commit's ack-wait is the predicate "all live targets' watermarks ≥
//! my seq" — no allocation, no per-txn state, and a lost or overtaken
//! ack is subsumed by any later one.
//!
//! Waiters park on a single condvar using the same missed-notify-proof
//! protocol as the applier's `wait_received` (waiter registers in
//! `waiters` with SeqCst *before* its final predicate check; a recorder
//! that advances a watermark then observes `waiters > 0` and notifies
//! under `wait_lock`, which the waiter holds from re-check to park).
//!
//! Built on the `dmv_check::sync` shims so the whole path is explored
//! by the model checker under `--cfg dmv_check`
//! (`crates/check/tests/hotpath.rs`).

use dmv_check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use dmv_check::sync::{Condvar, Mutex, RwLock};
use dmv_common::clock::{wall_now, WallInstant};
use dmv_common::ids::NodeId;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Per-peer cumulative ack watermarks with a single waiter condvar.
pub struct AckTracker {
    /// Highest cumulatively acknowledged commit seq per peer. The map
    /// itself changes only on membership events (subscribe/unsubscribe);
    /// the hot path takes the read lock and bumps an atomic.
    peers: RwLock<HashMap<NodeId, Arc<AtomicU64>>>,
    /// Commit threads blocked in [`AckTracker::wait`]. Recording only
    /// takes `wait_lock` when this is non-zero.
    waiters: AtomicUsize,
    wait_lock: Mutex<()>,
    cv: Condvar,
}

impl AckTracker {
    /// An empty tracker (no peers, no waiters).
    pub fn new() -> Self {
        let t = AckTracker {
            peers: RwLock::new(HashMap::new()),
            waiters: AtomicUsize::new(0),
            wait_lock: Mutex::new(()),
            cv: Condvar::new(),
        };
        dmv_check::race::label(&t.peers, "peers");
        dmv_check::race::label(&t.wait_lock, "wait_lock");
        dmv_check::race::label(&t.cv, "ack.cv");
        t
    }

    /// Records a cumulative ack from `peer`: the watermark advances by
    /// atomic maximum, and only an ack that did advance it wakes blocked
    /// committers to re-evaluate their predicate — a reordered or
    /// duplicate ack changes no predicate and is a no-op.
    pub fn record(&self, peer: NodeId, seq: u64) {
        let cell = {
            let peers = self.peers.read();
            match peers.get(&peer) {
                Some(c) => Arc::clone(c),
                None => {
                    drop(peers);
                    Arc::clone(self.peers.write().entry(peer).or_default())
                }
            }
        };
        if cell.fetch_max(seq, Ordering::SeqCst) < seq {
            self.notify();
        }
    }

    /// The peer's current watermark (0 if never seen).
    pub fn watermark(&self, peer: NodeId) -> u64 {
        self.peers.read().get(&peer).map_or(0, |c| c.load(Ordering::SeqCst))
    }

    /// Whether the peer currently has a watermark entry (removed peers
    /// are gone immediately — commit predicates can test membership).
    pub fn has_peer(&self, peer: NodeId) -> bool {
        self.peers.read().contains_key(&peer)
    }

    /// Initializes (or resets) a joining peer's watermark to `floor`:
    /// everything at or below the master's commit seq at subscribe time
    /// reaches the joiner through data migration, not through acks, so
    /// committers must not wait on the joiner for those seqs.
    pub fn set_floor(&self, peer: NodeId, floor: u64) {
        let cell = Arc::clone(self.peers.write().entry(peer).or_default());
        cell.store(floor, Ordering::SeqCst);
        self.notify();
    }

    /// Drops a departed peer's state and wakes waiters so commits stop
    /// waiting on it immediately (the ack-leak fix: previously a dead
    /// target's missing acks stalled every in-flight commit until its
    /// full ack timeout).
    pub fn remove(&self, peer: NodeId) {
        self.peers.write().remove(&peer);
        self.notify();
    }

    /// Wakes blocked committers to re-evaluate their predicates (used
    /// directly on membership changes that bypass record/remove, e.g.
    /// wholesale target-list replacement).
    pub fn notify(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _g = self.wait_lock.lock();
            self.cv.notify_all();
        }
    }

    /// Blocks until `pred()` holds or `deadline` passes; returns whether
    /// the predicate held. The wait re-arms at most every `slice` so
    /// conditions with no notifier of their own (a target silently
    /// dying) are noticed promptly rather than after the full timeout.
    pub fn wait(
        &self,
        deadline: WallInstant,
        slice: Duration,
        mut pred: impl FnMut() -> bool,
    ) -> bool {
        if pred() {
            return true;
        }
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut g = self.wait_lock.lock();
        let ok = loop {
            if pred() {
                break true;
            }
            let now = wall_now();
            if now >= deadline {
                break false;
            }
            let until = deadline.min(now + slice);
            let _ = self.cv.wait_until(&mut g, until);
        };
        drop(g);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        ok
    }
}

impl Default for AckTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AckTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let peers = self.peers.read();
        let mut marks: Vec<(NodeId, u64)> =
            peers.iter().map(|(n, c)| (*n, c.load(Ordering::SeqCst))).collect();
        marks.sort_by_key(|(n, _)| *n);
        f.debug_struct("AckTracker").field("watermarks", &marks).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::clock::wall_deadline;

    #[test]
    fn record_is_monotone() {
        let t = AckTracker::new();
        t.record(NodeId(1), 5);
        t.record(NodeId(1), 3); // late, reordered ack
        assert_eq!(t.watermark(NodeId(1)), 5);
        t.record(NodeId(1), 9);
        assert_eq!(t.watermark(NodeId(1)), 9);
    }

    #[test]
    fn unknown_peer_is_zero() {
        let t = AckTracker::new();
        assert_eq!(t.watermark(NodeId(7)), 0);
    }

    #[test]
    fn floor_resets_even_downward() {
        let t = AckTracker::new();
        t.record(NodeId(1), 50);
        t.set_floor(NodeId(1), 10); // fresh incarnation of the peer
        assert_eq!(t.watermark(NodeId(1)), 10);
    }

    #[test]
    fn wait_returns_once_predicate_holds() {
        let t = Arc::new(AckTracker::new());
        let t2 = Arc::clone(&t);
        let h = dmv_check::thread::spawn(move || {
            t2.wait(wall_deadline(Duration::from_secs(5)), Duration::from_millis(10), || {
                t2.watermark(NodeId(1)) >= 3
            })
        });
        std::thread::sleep(Duration::from_millis(20));
        t.record(NodeId(1), 3);
        assert!(h.join().unwrap()); // unwrap-ok: test thread join
    }

    #[test]
    fn duplicate_and_overtaken_acks_wake_nobody() {
        let t = Arc::new(AckTracker::new());
        t.record(NodeId(1), 5);
        let (evaluated, evaluations) = std::sync::mpsc::channel();
        let t2 = Arc::clone(&t);
        let h = dmv_check::thread::spawn(move || {
            // A slice as long as the deadline: only a notify re-evaluates.
            t2.wait(wall_deadline(Duration::from_secs(30)), Duration::from_secs(30), || {
                let mark = t2.watermark(NodeId(1));
                evaluated.send(mark).unwrap(); // unwrap-ok: test channel, receiver outlives the waiter
                mark >= 6
            })
        });
        // The entry check and the registered re-check; the waiter then
        // parks, holding `wait_lock` until it does.
        assert_eq!(evaluations.recv().unwrap(), 5); // unwrap-ok: test channel
        assert_eq!(evaluations.recv().unwrap(), 5); // unwrap-ok: test channel
        t.record(NodeId(1), 5); // duplicate
        t.record(NodeId(1), 3); // overtaken
        assert!(
            evaluations.recv_timeout(Duration::from_millis(50)).is_err(),
            "an ack that advanced nothing woke the committer"
        );
        t.record(NodeId(1), 6);
        assert_eq!(evaluations.recv().unwrap(), 6); // unwrap-ok: test channel
        assert!(h.join().unwrap()); // unwrap-ok: test thread join
    }

    #[test]
    fn wait_times_out_without_acks() {
        let t = AckTracker::new();
        let ok =
            t.wait(wall_deadline(Duration::from_millis(40)), Duration::from_millis(10), || {
                t.watermark(NodeId(1)) >= 1
            });
        assert!(!ok);
    }

    #[test]
    fn remove_wakes_waiters() {
        let t = Arc::new(AckTracker::new());
        let t2 = Arc::clone(&t);
        let h = dmv_check::thread::spawn(move || {
            // Predicate: no peer entry left to wait on.
            t2.wait(wall_deadline(Duration::from_secs(5)), Duration::from_secs(5), || {
                t2.peers.read().is_empty()
            })
        });
        std::thread::sleep(Duration::from_millis(20));
        t.set_floor(NodeId(1), 0);
        t.remove(NodeId(1));
        assert!(h.join().unwrap()); // unwrap-ok: test thread join
    }
}
