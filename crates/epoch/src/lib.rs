//! # dmv-epoch — epoch-based reclamation for the DMV cluster
//!
//! The multiversion tier accumulates state with every commit: per-page
//! pending-diff queues on the slaves, retained `Arc<WriteSet>`
//! allocations on the master, superseded page versions everywhere. The
//! paper's §4.2 `discard_above` only reclaims on *fail-over*; for
//! days-of-uptime operation something must reclaim continuously — and
//! it must never reclaim a version a reader may still ask for.
//!
//! This crate provides the coordination point, in the style of
//! Larson-era oldest-active-transaction GC:
//!
//! * **Reader pins.** Before a tagged read starts, the scheduler pins
//!   its snapshot version vector ([`EpochManager::pin`]); the returned
//!   [`EpochGuard`] unpins on drop (RAII), so a pin can never leak past
//!   the read that took it.
//! * **The ceiling.** The cluster folds its schedulers' merged commit
//!   vectors in through [`EpochManager::advance_latest`]. A commit
//!   reaches a scheduler only after every live target acknowledged it,
//!   so `latest` is also what every reachable slave has received.
//! * **The watermark.** [`EpochManager::watermark`] is the
//!   component-wise *meet* (minimum) of the latest committed vector and
//!   every pinned reader tag. The published value is additionally
//!   forced monotone: once a version is declared reclaimable it stays
//!   reclaimable, so consumers can act on a stale watermark without
//!   re-checking (acting on `low` is always a subset of acting on the
//!   current watermark).
//!
//! The lattice argument for safety: every pinned tag dominates the
//! watermark (it participates in the meet), so state below the
//! watermark is invisible to every active reader. Reclaimers may
//! therefore eagerly apply pending diffs up to the watermark, reap
//! emptied queues and drop superseded versions — a reader pinned at tag
//! `T ≥ watermark` still materializes `T` exactly, and anything racing
//! *below* a pin is a bug this crate's model tests (and the DST
//! GC-safety oracle) exist to catch.
//!
//! Replication progress is not an input. Reclaiming only ever applies
//! what a node already holds, so a slave that missed frames (a
//! partition, an ack time-out) loses nothing to a watermark that has
//! passed it, and would gain nothing from one held back for it: nothing
//! but reintegration repairs a slave that missed frames (ROADMAP item
//! 8).
//!
//! Built on the `dmv_check` shims, so the whole manager runs under the
//! loom-style model checker (`--cfg dmv_check`) and the vector-clock
//! race detector (`--cfg dmv_race`) unchanged.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use dmv_check::sync::atomic::{AtomicBool, Ordering};
use dmv_check::sync::Mutex;
use dmv_common::version::{AtomicVersionVector, VersionVector};
use std::collections::HashMap;
use std::sync::Arc;

/// Active reader pins: monotonically-assigned ids mapping to the tag
/// each reader snapshotted at.
struct PinTable {
    next_id: u64,
    tags: HashMap<u64, VersionVector>,
}

/// The global epoch manager. One per cluster; shared by the schedulers
/// (pins) and the GC sweep (latest + watermark).
pub struct EpochManager {
    n_tables: usize,
    pins: Mutex<PinTable>,
    /// Running merge of committed vectors — the watermark's ceiling.
    latest: AtomicVersionVector,
    /// The published watermark; only ever advances (see module docs).
    low: Mutex<VersionVector>,
    /// Fault-injection hook: when set, [`watermark`](Self::watermark)
    /// ignores pins and returns `latest` — the exact bug
    /// (reclaiming under an active reader) the DST GC-safety oracle
    /// must catch. Never set outside deliberate-mutation tests.
    ignore_pins: AtomicBool,
}

impl EpochManager {
    /// A fresh manager for a database of `n_tables` tables, with zero
    /// pins and an all-zero watermark.
    pub fn new(n_tables: usize) -> Arc<EpochManager> {
        let mgr = Arc::new(EpochManager {
            n_tables,
            pins: Mutex::new(PinTable { next_id: 0, tags: HashMap::new() }),
            latest: AtomicVersionVector::new(n_tables),
            low: Mutex::new(VersionVector::new(n_tables)),
            ignore_pins: AtomicBool::new(false),
        });
        dmv_check::race::label(&mgr.pins, "pins");
        dmv_check::race::label(&mgr.low, "low");
        mgr
    }

    /// Number of tables the manager's vectors cover.
    pub fn n_tables(&self) -> usize {
        self.n_tables
    }

    /// Pins `tag` for the lifetime of the returned guard. While the
    /// guard lives, [`watermark`](Self::watermark) never exceeds `tag`
    /// in any component.
    ///
    /// # Panics
    ///
    /// Panics if `tag` does not cover exactly `n_tables` tables.
    pub fn pin(self: &Arc<Self>, tag: &VersionVector) -> EpochGuard {
        assert_eq!(tag.len(), self.n_tables, "pin tag length mismatch");
        let mut pins = self.pins.lock();
        let id = pins.next_id;
        pins.next_id += 1;
        pins.tags.insert(id, tag.clone());
        drop(pins);
        EpochGuard { mgr: Arc::clone(self), id }
    }

    fn unpin(&self, id: u64) {
        self.pins.lock().tags.remove(&id);
    }

    /// Number of currently pinned readers.
    pub fn pinned_count(&self) -> usize {
        self.pins.lock().tags.len()
    }

    /// Component-wise minimum over all pinned tags, or `None` with no
    /// pins. The harness-side GC-safety oracle recomputes this
    /// independently from its own guard bookkeeping.
    pub fn min_pinned(&self) -> Option<VersionVector> {
        let pins = self.pins.lock();
        let mut it = pins.tags.values();
        let mut min = it.next()?.clone();
        for tag in it {
            meet(&mut min, tag);
        }
        Some(min)
    }

    /// Merges a committed version vector into `latest` (the watermark's
    /// ceiling). The GC sweep feeds it the schedulers' merged vectors.
    pub fn advance_latest(&self, v: &VersionVector) {
        self.latest.merge(v);
    }

    /// Linearizable snapshot of the latest committed vector.
    pub fn latest(&self) -> VersionVector {
        self.latest.snapshot()
    }

    /// Computes and publishes the reclamation watermark:
    /// `meet(latest, pinned tags…)`, then merged into the monotone
    /// published value so it never regresses even if a pin lands
    /// between the meet and the publish.
    pub fn watermark(&self) -> VersionVector {
        let mut wm = self.latest.snapshot();
        if !self.ignore_pins.load(Ordering::SeqCst) {
            let pins = self.pins.lock();
            for tag in pins.tags.values() {
                meet(&mut wm, tag);
            }
        }
        let mut low = self.low.lock();
        low.merge(&wm);
        low.clone()
    }

    /// The last published watermark, without recomputing.
    pub fn published(&self) -> VersionVector {
        self.low.lock().clone()
    }

    /// Deliberate-mutation hook: make [`watermark`](Self::watermark)
    /// ignore pins (see the field docs). Test-only by
    /// convention; the DST corpus asserts the GC-safety oracle catches
    /// the resulting premature reclaim.
    pub fn set_ignore_pins_for_test(&self, on: bool) {
        self.ignore_pins.store(on, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for EpochManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochManager")
            .field("n_tables", &self.n_tables)
            .field("pinned", &self.pinned_count())
            .field("published", &self.published())
            .finish()
    }
}

/// RAII pin: the tag passed to [`EpochManager::pin`] stays protected
/// until the guard drops.
#[must_use = "dropping the guard immediately unpins the epoch"]
pub struct EpochGuard {
    mgr: Arc<EpochManager>,
    id: u64,
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        self.mgr.unpin(self.id);
    }
}

impl std::fmt::Debug for EpochGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochGuard").field("id", &self.id).finish()
    }
}

/// Component-wise minimum, in place — the lattice meet dual to
/// `VersionVector::merge`.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
fn meet(acc: &mut VersionVector, other: &VersionVector) {
    assert_eq!(acc.len(), other.len(), "version vector length mismatch");
    for (t, v) in other.iter() {
        if v < acc.get(t) {
            acc.set(t, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::ids::TableId;

    fn vv(e: &[u64]) -> VersionVector {
        VersionVector::from_entries(e.to_vec())
    }

    #[test]
    fn watermark_without_pins_is_latest() {
        let m = EpochManager::new(2);
        assert_eq!(m.watermark(), vv(&[0, 0]));
        m.advance_latest(&vv(&[3, 1]));
        assert_eq!(m.watermark(), vv(&[3, 1]));
    }

    #[test]
    fn pin_holds_the_watermark_back_until_dropped() {
        let m = EpochManager::new(2);
        m.advance_latest(&vv(&[2, 2]));
        let g = m.pin(&vv(&[1, 2]));
        assert_eq!(m.pinned_count(), 1);
        assert_eq!(m.watermark(), vv(&[1, 2]));
        m.advance_latest(&vv(&[5, 5]));
        assert_eq!(m.watermark(), vv(&[1, 2]), "pinned tag caps the watermark");
        drop(g);
        assert_eq!(m.pinned_count(), 0);
        assert_eq!(m.watermark(), vv(&[5, 5]));
    }

    #[test]
    fn min_pinned_is_the_meet_of_all_pins() {
        let m = EpochManager::new(2);
        assert_eq!(m.min_pinned(), None);
        let g1 = m.pin(&vv(&[4, 1]));
        let g2 = m.pin(&vv(&[2, 3]));
        assert_eq!(m.min_pinned(), Some(vv(&[2, 1])));
        drop(g1);
        assert_eq!(m.min_pinned(), Some(vv(&[2, 3])));
        drop(g2);
    }

    #[test]
    fn published_watermark_is_monotone() {
        let m = EpochManager::new(1);
        m.advance_latest(&vv(&[7]));
        assert_eq!(m.watermark(), vv(&[7]));
        // A pin arriving after the publish cannot drag it back down.
        let g = m.pin(&vv(&[3]));
        assert_eq!(m.watermark(), vv(&[7]), "published watermark never regresses");
        assert_eq!(m.published(), vv(&[7]));
        drop(g);
    }

    #[test]
    fn guard_drop_order_does_not_matter() {
        let m = EpochManager::new(1);
        m.advance_latest(&vv(&[10]));
        let g1 = m.pin(&vv(&[2]));
        let g2 = m.pin(&vv(&[5]));
        drop(g1);
        assert_eq!(m.watermark(), vv(&[5]));
        drop(g2);
        assert_eq!(m.watermark(), vv(&[10]));
    }

    #[test]
    fn ignore_pins_mutation_reclaims_under_a_pin() {
        // The deliberate bug the DST GC-safety oracle must catch: with
        // the hook set, the watermark runs straight past a pinned tag.
        let m = EpochManager::new(1);
        m.advance_latest(&vv(&[8]));
        let _g = m.pin(&vv(&[1]));
        assert_eq!(m.watermark(), vv(&[1]));
        m.set_ignore_pins_for_test(true);
        let wm = m.watermark();
        let pinned = m.min_pinned().expect("one pin");
        assert!(
            !pinned.dominates(&wm),
            "mutation must push the watermark past the pin (wm {wm}, pin {pinned})"
        );
    }

    #[test]
    fn meet_is_componentwise_min() {
        let mut a = vv(&[3, 1, 5]);
        meet(&mut a, &vv(&[2, 4, 5]));
        assert_eq!(a, vv(&[2, 1, 5]));
    }

    #[test]
    #[should_panic]
    fn pin_length_mismatch_panics() {
        let m = EpochManager::new(2);
        let _ = m.pin(&VersionVector::new(3));
    }

    #[test]
    fn concurrent_pins_and_advances_keep_the_lattice_invariant() {
        // Full-speed stress twin of the exhaustive model test in
        // crates/check/tests/epoch.rs: the watermark never exceeds any
        // tag pinned for the duration of the observation.
        let m = EpochManager::new(1);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            dmv_check::thread::spawn(move || {
                let mut v = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    v += 1;
                    m.advance_latest(&VersionVector::from_entries(vec![v]));
                    m.watermark();
                }
            })
        };
        for _ in 0..2_000 {
            let tag = m.latest();
            let g = m.pin(&tag);
            // A sweep between `latest()` and `pin()` may already have
            // published past `tag`: that pin came too late to protect
            // anything (the reader would abort and retry). The guarantee
            // under test starts at a pin the watermark has not passed.
            if !tag.dominates(&m.watermark()) {
                continue;
            }
            let wm = m.watermark();
            assert!(tag.dominates(&wm), "watermark {wm} overtook pinned tag {tag}");
            drop(g);
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().expect("join writer");
    }

    #[test]
    fn table_id_access_matches_entry_order() {
        let m = EpochManager::new(3);
        m.advance_latest(&vv(&[1, 2, 3]));
        assert_eq!(m.latest().get(TableId(2)), 3);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn arb_vv(n: usize) -> impl Strategy<Value = VersionVector> {
        proptest::collection::vec(0u64..50, n).prop_map(VersionVector::from_entries)
    }

    proptest! {
        /// The watermark is dominated by `latest` and by every pin, and
        /// never regresses, whatever order advances and pins arrive in.
        #[test]
        fn watermark_is_a_monotone_lower_bound_of_latest_and_pins(
            steps in proptest::collection::vec((arb_vv(3), arb_vv(3)), 1..8),
        ) {
            let m = EpochManager::new(3);
            let mut guards = Vec::new();
            let mut prev = m.watermark();
            for (latest, tag) in steps {
                m.advance_latest(&latest);
                // Only a pin the watermark has not passed protects
                // anything (a later one aborts and retries its read).
                if tag.dominates(&prev) {
                    guards.push((m.pin(&tag), tag));
                }
                let wm = m.watermark();
                prop_assert!(m.latest().dominates(&wm), "latest {} below watermark {wm}", m.latest());
                for (_, tag) in &guards {
                    prop_assert!(tag.dominates(&wm), "pin {tag} below watermark {wm}");
                }
                prop_assert!(wm.dominates(&prev), "{wm} regressed from {prev}");
                prev = wm;
            }
        }

        /// Publishing is monotone under any interleaving of advances.
        #[test]
        fn published_never_regresses(vs in proptest::collection::vec(arb_vv(2), 1..8)) {
            let m = EpochManager::new(2);
            let mut prev = m.watermark();
            for v in vs {
                m.advance_latest(&v);
                let next = m.watermark();
                prop_assert!(next.dominates(&prev), "{next} regressed from {prev}");
                prev = next;
            }
        }
    }
}
