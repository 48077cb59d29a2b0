//! Cluster membership (paper §4.1–4.4): the master of each conflict
//! class, the active slaves and the spare backups — one [`Topology`]
//! behind one lock, shared by the cluster and every scheduler.
//!
//! A node's role is the list it is on. Membership changes in the
//! paper's four ways, and this module holds the only code that makes
//! them: master fail-over, slave failure, spare activation and joining
//! as a slave. `DmvCluster` runs each once per event; schedulers only
//! read the topology, to route.
//!
//! Lock order: the topology lock is outermost. The changes below call
//! into replicas (applier discard, promotion, replication targets)
//! while holding it for write, and no replica or applier path takes it.

use crate::replica::ReplicaNode;
use dmv_check::sync::{RwLock, RwLockReadGuard};
use dmv_common::error::{DmvError, DmvResult};
use dmv_common::ids::{NodeId, TableId};
use dmv_common::version::VersionVector;
use std::sync::Arc;

/// Who is master, slave or spare.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// One master per conflict class.
    pub masters: Vec<Arc<ReplicaNode>>,
    /// Table sets of the conflict classes (`classes[i]` → `masters[i]`).
    /// With a single entry covering every table, all updates serialize
    /// through one master.
    pub classes: Vec<Vec<TableId>>,
    /// Active slaves serving tagged reads.
    pub slaves: Vec<Arc<ReplicaNode>>,
    /// Warm/cold spare backups (receive the stream, serve no reads).
    pub spares: Vec<Arc<ReplicaNode>>,
}

impl Topology {
    /// Every replica (masters, slaves, spares).
    pub fn all(&self) -> Vec<Arc<ReplicaNode>> {
        self.masters.iter().chain(&self.slaves).chain(&self.spares).cloned().collect()
    }
}

/// The cluster's one topology and the only code that changes it.
pub struct Membership {
    topo: RwLock<Topology>,
}

impl Membership {
    /// Wraps the initial topology.
    pub fn new(topo: Topology) -> Arc<Self> {
        let m = Arc::new(Membership { topo: RwLock::new(topo) });
        dmv_check::race::label(&m.topo, "membership");
        m
    }

    /// Shared read access, for routing and for copying out node lists.
    pub fn read(&self) -> RwLockReadGuard<'_, Topology> {
        self.topo.read()
    }

    /// Master fail-over (§4.2): every survivor discards the records above
    /// `latest` (the last version acknowledged to a client, which the
    /// failed master may have propagated only in part); a slave is
    /// promoted at `latest`, takes the failed master's class and streams
    /// to every other live replica; the other masters drop the failed one
    /// from their targets. Returns the new master.
    ///
    /// A commit completes when its ack wait times out, so a live slave
    /// that was cut off from the master can lack versions ≤ `latest`.
    /// The first live slave whose received vector dominates `latest` is
    /// promoted; only if none does is it the first live slave.
    ///
    /// # Errors
    ///
    /// `NoSuchNode` if `failed` is no master; `NoReplicaAvailable` if no
    /// live slave is left to promote.
    pub fn fail_over_master(
        &self,
        failed: NodeId,
        latest: &VersionVector,
    ) -> DmvResult<Arc<ReplicaNode>> {
        let mut topo = self.topo.write();
        let class = topo
            .masters
            .iter()
            .position(|m| m.id() == failed)
            .ok_or(DmvError::NoSuchNode(failed))?;
        // Tell every surviving replica to discard records the failed
        // master never confirmed.
        for r in topo.all().iter().filter(|r| r.is_alive()) {
            r.discard_above(latest);
        }
        let live = || topo.slaves.iter().filter(|s| s.is_alive());
        let new_master = live()
            .find(|s| s.applier().received().dominates(latest))
            .or_else(|| live().next())
            .cloned()
            .ok_or(DmvError::NoReplicaAvailable)?;
        new_master.promote_to_master(latest);
        topo.slaves.retain(|s| s.id() != new_master.id());
        topo.masters[class] = Arc::clone(&new_master);
        // The dead master must not linger anywhere: every master drops
        // it from its replication targets and ack state.
        for m in &topo.masters {
            m.unsubscribe(failed);
        }
        // New replication targets: every other live replica.
        let targets: Vec<NodeId> = topo
            .all()
            .iter()
            .filter(|r| r.is_alive() && r.id() != new_master.id())
            .map(|r| r.id())
            .collect();
        new_master.set_targets(targets);
        Ok(new_master)
    }

    /// Slave (or spare) failure (§4.3): off its list and off every
    /// master's replication targets.
    pub fn remove_failed(&self, failed: NodeId) {
        let mut topo = self.topo.write();
        topo.slaves.retain(|s| s.id() != failed);
        topo.spares.retain(|s| s.id() != failed);
        for m in &topo.masters {
            m.unsubscribe(failed);
        }
    }

    /// Spare activation: the first live spare moves onto the slave list
    /// and serves reads in a failed node's place.
    pub fn spare_takes_over(&self) {
        let mut topo = self.topo.write();
        if let Some(pos) = topo.spares.iter().position(|s| s.is_alive()) {
            let spare = topo.spares.remove(pos);
            topo.slaves.push(spare);
        }
    }

    /// Adds a (re)integrated node as a slave (§4.4: "new replicas are
    /// always integrated as slave nodes ... regardless of their rank
    /// prior to failure"), replacing any entry a dead incarnation of the
    /// same id left behind.
    pub fn join_as_slave(&self, node: Arc<ReplicaNode>) {
        let mut topo = self.topo.write();
        topo.slaves.retain(|s| s.id() != node.id());
        topo.spares.retain(|s| s.id() != node.id());
        topo.slaves.push(node);
    }
}
