//! History recorder: a [`TraceTap`] collecting the trace events of
//! each operation.
//!
//! Scheduler events (commit/abort/route) and reconfiguration events
//! (promotion, discard) fire synchronously on the driver thread, so
//! between two schedule events the recorder holds exactly the events of
//! the last operation — [`History::drain_ops`] attributes them.

use dmv_core::{TraceEvent, TraceTap};
use parking_lot::Mutex;

/// The recorder installed via [`dmv_core::DmvCluster::set_trace_tap`].
#[derive(Debug, Default)]
pub struct History {
    ops: Mutex<Vec<TraceEvent>>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes every event recorded since the last drain.
    pub fn drain_ops(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.ops.lock())
    }
}

impl TraceTap for History {
    fn record(&self, ev: TraceEvent) {
        self.ops.lock().push(ev);
    }
}
