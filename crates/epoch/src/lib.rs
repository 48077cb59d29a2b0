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
//! * **Peer floors.** Each live slave's replication progress — the
//!   cumulative-ack watermark translated back to a version vector —
//!   is registered via [`EpochManager::set_peer_floor`]. A slave that
//!   has not yet acknowledged a write-set still needs its pre-images.
//! * **The watermark.** [`EpochManager::watermark`] is the
//!   component-wise *meet* (minimum) of the latest committed vector,
//!   every pinned reader tag, and every live peer floor. The published
//!   value is additionally forced monotone: once a version is declared
//!   reclaimable it stays reclaimable, so consumers can act on a stale
//!   watermark without re-checking (acting on `low` is always a subset
//!   of acting on the current watermark).
//!
//! The lattice argument for safety: every pinned tag dominates the
//! watermark (it participates in the meet), so state below the
//! watermark is invisible to every active reader; every peer floor
//! dominates it, so no slave is asked to discard diffs it has not yet
//! durably received. Reclaimers may therefore eagerly apply pending
//! diffs up to the watermark, reap emptied queues and drop superseded
//! versions — a reader pinned at tag `T ≥ watermark` still materializes
//! `T` exactly, and anything racing *below* a pin is a bug this
//! crate's model tests (and the DST GC-safety oracle) exist to catch.
//!
//! Built on the `dmv_check` shims, so the whole manager runs under the
//! loom-style model checker (`--cfg dmv_check`) and the vector-clock
//! race detector (`--cfg dmv_race`) unchanged.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use dmv_check::sync::atomic::{AtomicBool, Ordering};
use dmv_check::sync::{Mutex, RwLock};
use dmv_common::ids::NodeId;
use dmv_common::version::{AtomicVersionVector, VersionVector};
use std::collections::HashMap;
use std::sync::Arc;

/// Active reader pins: monotonically-assigned ids mapping to the tag
/// each reader snapshotted at.
struct PinTable {
    next_id: u64,
    tags: HashMap<u64, VersionVector>,
}

/// The global epoch manager. One per cluster; shared by the scheduler
/// (pins + latest), the masters (peer floors from cumulative acks) and
/// the GC sweep (watermark).
pub struct EpochManager {
    n_tables: usize,
    pins: Mutex<PinTable>,
    /// Floor registrations keyed `(observer, peer)`: what `observer`
    /// (a master, about its own replication stream) vouches `peer` has
    /// durably acknowledged. Keying by observer keeps each master's
    /// registration independent — a master only knows its own stream,
    /// so it marks tables it does not replicate as `u64::MAX` (no
    /// constraint) and the meet combines streams across observers.
    floors: RwLock<HashMap<(NodeId, NodeId), VersionVector>>,
    /// Running merge of committed vectors — the watermark's ceiling.
    latest: AtomicVersionVector,
    /// The published watermark; only ever advances (see module docs).
    low: Mutex<VersionVector>,
    /// Fault-injection hook: when set, [`watermark`](Self::watermark)
    /// ignores pins and floors and returns `latest` — the exact bug
    /// (reclaiming under an active reader) the DST GC-safety oracle
    /// must catch. Never set outside deliberate-mutation tests.
    ignore_pins: AtomicBool,
}

impl EpochManager {
    /// A fresh manager for a database of `n_tables` tables, with zero
    /// pins, no peers and an all-zero watermark.
    pub fn new(n_tables: usize) -> Arc<EpochManager> {
        let mgr = Arc::new(EpochManager {
            n_tables,
            pins: Mutex::new(PinTable { next_id: 0, tags: HashMap::new() }),
            floors: RwLock::new(HashMap::new()),
            latest: AtomicVersionVector::new(n_tables),
            low: Mutex::new(VersionVector::new(n_tables)),
            ignore_pins: AtomicBool::new(false),
        });
        dmv_check::race::label(&mgr.pins, "pins");
        dmv_check::race::label(&mgr.floors, "floors");
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

    /// Registers (or advances) the floor `observer` vouches for about
    /// `peer`'s stream: the largest versions `peer` has cumulatively
    /// acknowledged *of the tables `observer` replicates to it*.
    /// Components `observer` does not replicate must be `u64::MAX` —
    /// they place no constraint on the watermark; another observer's
    /// registration (or the latest ceiling) bounds them. Floors only
    /// advance; a regressing call is ignored component-wise.
    ///
    /// # Panics
    ///
    /// Panics if `floor` does not cover exactly `n_tables` tables.
    pub fn set_peer_floor(&self, observer: NodeId, peer: NodeId, floor: VersionVector) {
        assert_eq!(floor.len(), self.n_tables, "peer floor length mismatch");
        let mut floors = self.floors.write();
        match floors.get_mut(&(observer, peer)) {
            Some(f) => f.merge(&floor),
            None => {
                floors.insert((observer, peer), floor);
            }
        }
    }

    /// Drops every floor registration involving `node`, in either role:
    /// a dead slave must stop holding the watermark back (its queues
    /// are discarded wholesale at reintegration instead), and a dead
    /// master's vouchings go with it (its successor re-registers from
    /// its own stream).
    pub fn remove_peer(&self, node: NodeId) {
        self.floors.write().retain(|(o, p), _| *o != node && *p != node);
    }

    /// Snapshot of every floor registration, sorted by key — for
    /// diagnostics and oracle failure messages.
    pub fn floor_entries(&self) -> Vec<((NodeId, NodeId), VersionVector)> {
        let floors = self.floors.read();
        let mut v: Vec<_> = floors.iter().map(|(k, f)| (*k, f.clone())).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Distinct peers with at least one floor registration.
    pub fn peer_count(&self) -> usize {
        let floors = self.floors.read();
        let mut peers: Vec<NodeId> = floors.keys().map(|(_, p)| *p).collect();
        peers.sort_unstable();
        peers.dedup();
        peers.len()
    }

    /// Merges a committed version vector into `latest` (the watermark's
    /// ceiling). Called on every commit the scheduler observes.
    pub fn advance_latest(&self, v: &VersionVector) {
        self.latest.merge(v);
    }

    /// Linearizable snapshot of the latest committed vector.
    pub fn latest(&self) -> VersionVector {
        self.latest.snapshot()
    }

    /// Computes and publishes the reclamation watermark:
    /// `meet(latest, pinned tags…, peer floors…)`, then merged into the
    /// monotone published value so it never regresses even if a pin
    /// lands between the meet and the publish.
    pub fn watermark(&self) -> VersionVector {
        let mut wm = self.latest.snapshot();
        if !self.ignore_pins.load(Ordering::SeqCst) {
            let pins = self.pins.lock();
            for tag in pins.tags.values() {
                meet(&mut wm, tag);
            }
            drop(pins);
            let floors = self.floors.read();
            for floor in floors.values() {
                meet(&mut wm, floor);
            }
            drop(floors);
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
    /// ignore pins and floors (see the field docs). Test-only by
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
            .field("peers", &self.peer_count())
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
    fn watermark_without_pins_or_peers_is_latest() {
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
    fn slowest_peer_floor_caps_the_watermark() {
        let m = EpochManager::new(2);
        let master = NodeId(0);
        m.advance_latest(&vv(&[9, 9]));
        m.set_peer_floor(master, NodeId(1), vv(&[9, 9]));
        m.set_peer_floor(master, NodeId(2), vv(&[4, 7]));
        assert_eq!(m.watermark(), vv(&[4, 7]));
        // Floors only advance.
        m.set_peer_floor(master, NodeId(2), vv(&[3, 8]));
        assert_eq!(m.watermark(), vv(&[4, 8]));
        m.remove_peer(NodeId(2));
        assert_eq!(m.watermark(), vv(&[9, 9]));
    }

    #[test]
    fn observers_vouch_only_for_their_own_stream() {
        // Two single-table conflict classes: master 0 owns table 0,
        // master 1 owns table 1. Each registers MAX for the table it
        // does not replicate; the meet combines the two streams, and
        // neither master's registration about the *other* master caps
        // the table that master itself owns.
        let m = EpochManager::new(2);
        m.advance_latest(&vv(&[5, 2]));
        m.set_peer_floor(NodeId(0), NodeId(10), vv(&[5, u64::MAX]));
        m.set_peer_floor(NodeId(1), NodeId(10), vv(&[u64::MAX, 2]));
        m.set_peer_floor(NodeId(0), NodeId(1), vv(&[4, u64::MAX]));
        m.set_peer_floor(NodeId(1), NodeId(0), vv(&[u64::MAX, 2]));
        assert_eq!(m.peer_count(), 3);
        assert_eq!(m.watermark(), vv(&[4, 2]), "only real stream floors constrain");
        // The dead master's vouchings go with it.
        m.remove_peer(NodeId(1));
        assert_eq!(m.peer_count(), 1);
        assert_eq!(m.watermark(), vv(&[5, 2]));
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
        /// The watermark is a lower bound of everything that feeds it.
        #[test]
        fn watermark_is_dominated_by_every_input(
            latest in arb_vv(3),
            pins in proptest::collection::vec(arb_vv(3), 0..4),
            floors in proptest::collection::vec(arb_vv(3), 0..4),
        ) {
            let m = EpochManager::new(3);
            m.advance_latest(&latest);
            let guards: Vec<_> = pins.iter().map(|t| m.pin(t)).collect();
            for (i, f) in floors.iter().enumerate() {
                m.set_peer_floor(
                    dmv_common::ids::NodeId(99),
                    dmv_common::ids::NodeId(i as u32),
                    f.clone(),
                );
            }
            let wm = m.watermark();
            prop_assert!(latest.dominates(&wm));
            for t in &pins {
                prop_assert!(t.dominates(&wm), "pin {t} below watermark {wm}");
            }
            for f in &floors {
                prop_assert!(f.dominates(&wm), "floor {f} below watermark {wm}");
            }
            drop(guards);
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
