//! One workload driver for the three systems under test.

use crate::interactions::Interaction;
use crate::populate::Population;
use dmv_common::clock::sleep_wall;
use dmv_common::error::DmvResult;
use dmv_common::rng::Backoff;
use dmv_core::Session;
use dmv_ondisk::{DiskDb, InnoDbTier};
use parking_lot::Mutex;
use std::sync::{Arc, LazyLock};
use std::time::Duration;

/// A system that can execute TPC-W interactions.
#[derive(Clone)]
pub enum Backend {
    /// The DMV in-memory middleware tier (the paper's system).
    Dmv(Session),
    /// A stand-alone on-disk database (the Figure 3 baseline).
    Disk(Arc<DiskDb>),
    /// The replicated on-disk tier (the Figure 5 fail-over baseline).
    Tier(Arc<InnoDbTier>),
}

impl Backend {
    /// Executes one planned interaction, retrying retryable aborts up to
    /// `retries` times.
    ///
    /// # Errors
    ///
    /// The last error if retries are exhausted or a non-retryable error
    /// occurs.
    pub fn run(&self, interaction: &mut Interaction, retries: usize) -> DmvResult<()> {
        match self {
            Backend::Dmv(session) => {
                if interaction.kind.is_update() {
                    let tables = interaction.kind.tables();
                    session.update_with_retry(&tables, &mut interaction.exec, retries)
                } else {
                    session.read_with_retry(&mut interaction.exec, retries)
                }
            }
            Backend::Disk(db) => retry(retries, || db.run_with(&mut interaction.exec).map(drop)),
            Backend::Tier(tier) => retry(retries, || {
                if interaction.kind.is_update() {
                    tier.update_with(&mut interaction.exec)
                } else {
                    tier.read_with(&mut interaction.exec)
                }
            }),
        }
    }
}

/// Bounds of the on-disk baselines' retry backoff (wall time).
const RETRY_BASE: Duration = Duration::from_micros(500);
const RETRY_CAP: Duration = Duration::from_millis(8);
/// Seed of their jitter stream.
const RETRY_SEED: u64 = 0xD15C;

/// The on-disk baselines' jitter: one seeded stream shared by every
/// client, as the DMV cluster shares its own among its sessions, so
/// two retriers that collided draw different delays.
static RETRY_BACKOFF: LazyLock<Mutex<Backoff>> =
    LazyLock::new(|| Mutex::new(Backoff::new(RETRY_BASE, RETRY_CAP, RETRY_SEED)));

/// Runs `attempt` until it succeeds, fails for good, or has been
/// retried `retries` times, backing off before each retry (breaks
/// deadlock-retry livelock storms).
fn retry(retries: usize, mut attempt: impl FnMut() -> DmvResult<()>) -> DmvResult<()> {
    let mut last = None;
    for n in 0..=retries {
        if n > 0 {
            let delay = RETRY_BACKOFF.lock().delay(n);
            sleep_wall(delay);
        }
        match attempt() {
            Ok(()) => return Ok(()),
            Err(e) if e.is_retryable() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Backend::Dmv(_) => "Dmv",
            Backend::Disk(_) => "Disk",
            Backend::Tier(_) => "Tier",
        };
        f.debug_tuple("Backend").field(&name).finish()
    }
}

/// Loads a generated population into a DMV cluster (before
/// `finish_load`).
///
/// # Errors
///
/// Propagates load errors.
pub fn load_cluster(cluster: &dmv_core::DmvCluster, pop: &Population) -> DmvResult<()> {
    for (table, rows) in &pop.tables {
        cluster.load_rows(*table, rows.clone())?;
    }
    Ok(())
}

/// Loads a generated population into a stand-alone on-disk database.
///
/// # Errors
///
/// Propagates load errors.
pub fn load_diskdb(db: &DiskDb, pop: &Population) -> DmvResult<()> {
    for (table, rows) in &pop.tables {
        db.bulk_load(*table, rows)?;
    }
    Ok(())
}

/// Loads a generated population into every replica of an on-disk tier.
///
/// # Errors
///
/// Propagates load errors.
pub fn load_tier(tier: &InnoDbTier, pop: &Population) -> DmvResult<()> {
    for (table, rows) in &pop.tables {
        tier.bulk_load(*table, rows)?;
    }
    Ok(())
}
