//! Consistency oracles: the exact bank model with per-version
//! snapshots, and small helpers shared by the harness.
//!
//! The bank model mirrors what the cluster *should* contain after every
//! client-visible commit. Because the driver serializes operations, the
//! scheduler's version components are the model's snapshot keys:
//!
//! * **gapless commits** — each committed update bumps the written
//!   table's version by exactly one. A gap means an unacknowledged
//!   commit survived fail-over (the promoted master must discard
//!   partially-propagated write-sets), a repeat means a lost one.
//! * **exact prefix reads** — a read tagged `v` observes exactly the
//!   snapshot keyed `v`: no torn pages, no future data, no lost writes.
//! * **convergence** — after heal + drain, every live slave at the
//!   latest tag and every on-disk backend equals the model's final
//!   state.

use dmv_common::error::DmvError;
use dmv_common::version::VersionVector;
use dmv_sql::row::Row;
use dmv_sql::Value;
use std::collections::BTreeMap;

/// Account/counter state keyed by id.
pub type Table = BTreeMap<i64, i64>;

/// The serialized-execution bank model.
#[derive(Debug)]
pub struct BankModel {
    /// Snapshots of the accounts table, one per committed version of
    /// it, starting with version 0 (the initial load).
    acct_snaps: Vec<(u64, Table)>,
    /// Snapshots of the counters table.
    ctr_snaps: Vec<(u64, Table)>,
}

impl BankModel {
    /// The initial state: `n_accounts` accounts at balance 100,
    /// `n_counters` counters at 0, both at version 0.
    pub fn new(n_accounts: i64, n_counters: i64) -> Self {
        BankModel {
            acct_snaps: vec![(0, (0..n_accounts).map(|i| (i, 100)).collect())],
            ctr_snaps: vec![(0, (0..n_counters).map(|i| (i, 0)).collect())],
        }
    }

    /// Applies a committed accounts-table update observed at version
    /// `v`, recording the new snapshot.
    ///
    /// # Errors
    ///
    /// The gapless-commit violation, if `v` is not exactly one past the
    /// last committed accounts version.
    pub fn commit_accounts(&mut self, v: u64, f: impl FnOnce(&mut Table)) -> Result<(), String> {
        Self::commit(&mut self.acct_snaps, "accounts", v, f)
    }

    /// Applies a committed counters-table update observed at version `v`.
    ///
    /// # Errors
    ///
    /// The gapless-commit violation, as for
    /// [`BankModel::commit_accounts`].
    pub fn commit_counters(&mut self, v: u64, f: impl FnOnce(&mut Table)) -> Result<(), String> {
        Self::commit(&mut self.ctr_snaps, "counters", v, f)
    }

    fn commit(
        snaps: &mut Vec<(u64, Table)>,
        what: &str,
        v: u64,
        f: impl FnOnce(&mut Table),
    ) -> Result<(), String> {
        let (last_v, last) = snaps.last().expect("baseline snapshot always present");
        if v != last_v + 1 {
            return Err(format!(
                "gapless-commit violation: {what} committed at version {v} after {last_v}"
            ));
        }
        let mut next = last.clone();
        f(&mut next);
        snaps.push((v, next));
        Ok(())
    }

    /// The accounts snapshot at exactly version `v`.
    pub fn accounts_at(&self, v: u64) -> Option<&Table> {
        self.acct_snaps.iter().find(|(sv, _)| *sv == v).map(|(_, t)| t)
    }

    /// The counters snapshot at exactly version `v`.
    pub fn counters_at(&self, v: u64) -> Option<&Table> {
        self.ctr_snaps.iter().find(|(sv, _)| *sv == v).map(|(_, t)| t)
    }

    /// The accounts version `back` commits behind the newest.
    pub fn accounts_version_back(&self, back: u64) -> u64 {
        let idx = self.acct_snaps.len().saturating_sub(1 + back as usize);
        self.acct_snaps[idx].0
    }

    /// The counters version `back` commits behind the newest.
    pub fn counters_version_back(&self, back: u64) -> u64 {
        let idx = self.ctr_snaps.len().saturating_sub(1 + back as usize);
        self.ctr_snaps[idx].0
    }

    /// The final (latest) accounts state.
    pub fn final_accounts(&self) -> &Table {
        &self.acct_snaps.last().expect("baseline snapshot always present").1
    }

    /// The final (latest) counters state.
    pub fn final_counters(&self) -> &Table {
        &self.ctr_snaps.last().expect("baseline snapshot always present").1
    }

    /// Latest committed accounts version.
    pub fn accounts_version(&self) -> u64 {
        self.acct_snaps.last().expect("baseline snapshot always present").0
    }

    /// Latest committed counters version.
    pub fn counters_version(&self) -> u64 {
        self.ctr_snaps.last().expect("baseline snapshot always present").0
    }
}

/// Converts `(id, value)` scan rows into a comparable map.
pub fn rows_to_map(rows: &[Row]) -> Result<Table, String> {
    let mut out = Table::new();
    for r in rows {
        let id = int_at(r, 0)?;
        let val = int_at(r, 1)?;
        if out.insert(id, val).is_some() {
            return Err(format!("duplicate id {id} in scan"));
        }
    }
    Ok(out)
}

fn int_at(r: &Row, i: usize) -> Result<i64, String> {
    match r.get(i) {
        Some(Value::Int(v)) => Ok(*v),
        other => Err(format!("expected int at column {i}, got {other:?}")),
    }
}

/// Renders a version vector as `[a,b,...]` (stable trace format).
pub fn fmt_vv(v: &VersionVector) -> String {
    let parts: Vec<String> = v.iter().map(|(_, x)| x.to_string()).collect();
    format!("[{}]", parts.join(","))
}

/// A short, payload-free, deterministic label for an error (trace
/// lines must be byte-identical across runs).
pub fn err_label(e: &DmvError) -> &'static str {
    match e {
        DmvError::VersionConflict { .. } => "VersionConflict",
        DmvError::Deadlock(_) => "Deadlock",
        DmvError::NodeFailed(_) => "NodeFailed",
        DmvError::NoSuchNode(_) => "NoSuchNode",
        DmvError::NoReplicaAvailable => "NoReplicaAvailable",
        DmvError::Schema(_) => "Schema",
        DmvError::Query(_) => "Query",
        DmvError::NotFound(_) => "NotFound",
        DmvError::DuplicateKey(_) => "DuplicateKey",
        DmvError::Storage(_) => "Storage",
        _ => "Other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_versions_and_detects_gaps() {
        let mut m = BankModel::new(3, 1);
        m.commit_accounts(1, |t| *t.get_mut(&0).unwrap() += 5).unwrap();
        m.commit_accounts(2, |t| *t.get_mut(&1).unwrap() -= 5).unwrap();
        assert_eq!(m.accounts_at(1).unwrap()[&0], 105);
        assert_eq!(m.accounts_at(2).unwrap()[&1], 95);
        assert_eq!(m.accounts_version(), 2);
        assert_eq!(m.accounts_version_back(1), 1);
        assert!(m.commit_accounts(4, |_| ()).unwrap_err().contains("gapless"));
        assert!(m.commit_counters(2, |_| ()).unwrap_err().contains("gapless"));
    }
}
