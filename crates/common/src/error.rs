//! Workspace-wide error type.

use crate::ids::{NodeId, PageId, TxnId};
use std::fmt;

/// Result alias used across the workspace.
pub type DmvResult<T> = Result<T, DmvError>;

/// Errors produced by the DMV middleware and its substrates.
///
/// `VersionConflict` and `Deadlock` are *retryable*: the client emulator
/// and the TPC-W driver retry such transactions, and the paper reports the
/// version-conflict abort rate (< 2.5 %) as an evaluation metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmvError {
    /// A read-only transaction touched a page whose last applied version
    /// exceeds the transaction's version tag (paper §2.2). Retryable.
    VersionConflict {
        /// Page where the inconsistency was detected.
        page: PageId,
        /// Version the transaction was tagged to read.
        wanted: u64,
        /// Version the page had already been upgraded to.
        found: u64,
    },
    /// Transaction aborted to break a lock deadlock or after a lock wait
    /// timeout. Retryable.
    Deadlock(TxnId),
    /// Transaction was aborted by reconfiguration (node failure while the
    /// transaction was in flight). Retryable.
    NodeFailed(NodeId),
    /// The target node is not part of the current topology.
    NoSuchNode(NodeId),
    /// No replica is currently able to serve the request.
    NoReplicaAvailable,
    /// Schema-level error (unknown table/column, arity mismatch, ...).
    Schema(String),
    /// Query execution error (type mismatch, missing index, ...).
    Query(String),
    /// A row or key was not found where one was required.
    NotFound(String),
    /// Unique-key violation on insert.
    DuplicateKey(String),
    /// Page-level storage error (page full beyond repair, bad slot, ...).
    Storage(String),
    /// Transaction used after commit/abort, or protocol misuse.
    InvalidTxnState(String),
    /// Network-level failure (endpoint closed, timeout).
    Network(String),
    /// Wire-format decode failure (truncated frame, bad checksum,
    /// unknown tag or protocol version). Never retryable: the peer sent
    /// bytes this build cannot interpret.
    Codec(String),
    /// Internal invariant violation; indicates a bug.
    Internal(String),
}

impl DmvError {
    /// True if the client should retry the whole transaction.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DmvError::VersionConflict { .. } | DmvError::Deadlock(_) | DmvError::NodeFailed(_)
        )
    }
}

impl fmt::Display for DmvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmvError::VersionConflict { page, wanted, found } => {
                write!(f, "version conflict on {page}: wanted <= {wanted}, page at {found}")
            }
            DmvError::Deadlock(t) => write!(f, "transaction {t} aborted to break deadlock"),
            DmvError::NodeFailed(n) => write!(f, "node {n} failed during the transaction"),
            DmvError::NoSuchNode(n) => write!(f, "node {n} is not in the current topology"),
            DmvError::NoReplicaAvailable => write!(f, "no replica available for the request"),
            DmvError::Schema(s) => write!(f, "schema error: {s}"),
            DmvError::Query(s) => write!(f, "query error: {s}"),
            DmvError::NotFound(s) => write!(f, "not found: {s}"),
            DmvError::DuplicateKey(s) => write!(f, "duplicate key: {s}"),
            DmvError::Storage(s) => write!(f, "storage error: {s}"),
            DmvError::InvalidTxnState(s) => write!(f, "invalid transaction state: {s}"),
            DmvError::Network(s) => write!(f, "network error: {s}"),
            DmvError::Codec(s) => write!(f, "codec error: {s}"),
            DmvError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl std::error::Error for DmvError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TableId;

    /// The retryable/fatal taxonomy, variant by variant. The `match` has
    /// no `_` arm on purpose: adding a `DmvError` variant fails to
    /// compile here until it is classified; add its sample to `all` too.
    #[test]
    fn every_variant_is_classified_retryable_or_fatal() {
        let s = || "x".to_string();
        let all = [
            DmvError::VersionConflict { page: PageId::heap(TableId(0), 1), wanted: 3, found: 5 },
            DmvError::Deadlock(TxnId::new(NodeId(0), 1)),
            DmvError::NodeFailed(NodeId(2)),
            DmvError::NoSuchNode(NodeId(3)),
            DmvError::NoReplicaAvailable,
            DmvError::Schema(s()),
            DmvError::Query(s()),
            DmvError::NotFound(s()),
            DmvError::DuplicateKey(s()),
            DmvError::Storage(s()),
            DmvError::InvalidTxnState(s()),
            DmvError::Network(s()),
            DmvError::Codec(s()),
            DmvError::Internal(s()),
        ];
        for e in &all {
            let retryable = match e {
                DmvError::VersionConflict { .. }
                | DmvError::Deadlock(_)
                | DmvError::NodeFailed(_) => true,
                DmvError::NoSuchNode(_)
                | DmvError::NoReplicaAvailable
                | DmvError::Schema(_)
                | DmvError::Query(_)
                | DmvError::NotFound(_)
                | DmvError::DuplicateKey(_)
                | DmvError::Storage(_)
                | DmvError::InvalidTxnState(_)
                | DmvError::Network(_)
                | DmvError::Codec(_)
                | DmvError::Internal(_) => false,
            };
            assert_eq!(e.is_retryable(), retryable, "{e:?} is misclassified");
        }
    }

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errs: Vec<DmvError> = vec![
            DmvError::NoReplicaAvailable,
            DmvError::Schema("no such table".into()),
            DmvError::Network("endpoint closed".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_trait_object() {
        fn take(_: Box<dyn std::error::Error + Send + Sync>) {}
        take(Box::new(DmvError::NoReplicaAvailable));
    }
}
