//! The [`OrderingBackend`] adapter plugging [`RaftCluster`] into the
//! pipeline's trait seam.

use fabriccrdt_fabric::config::{OrderingPolicy, PipelineConfig};
use fabriccrdt_fabric::conflict::BlockFeedback;
use fabriccrdt_fabric::metrics::{ConflictPolicyMetrics, OrderingMetrics};
use fabriccrdt_fabric::orderer::TimeoutRequest;
use fabriccrdt_fabric::simulation::{OrderingBackend, OrderingOutcome};
use fabriccrdt_ledger::transaction::Transaction;
use fabriccrdt_sim::time::SimTime;

use crate::cluster::RaftCluster;

/// Runs the Raft cluster behind the pipeline's [`OrderingBackend`]
/// seam. Submissions enter the cluster immediately (the pipeline
/// already charged the client→orderer hop); the cluster's internal
/// timers (heartbeats, elections, batch timeouts, retries) surface as
/// wakeup requests, so the pipeline's event queue stays the single
/// clock.
pub struct RaftOrderingBackend {
    cluster: RaftCluster,
}

impl RaftOrderingBackend {
    /// Builds the backend for a pipeline configuration (see
    /// [`RaftCluster::new`] for the validation rules).
    pub fn new(config: &PipelineConfig) -> Self {
        RaftOrderingBackend {
            cluster: RaftCluster::new(config),
        }
    }

    /// Read access to the underlying cluster (leadership history,
    /// per-replica committed prefixes).
    pub fn cluster(&self) -> &RaftCluster {
        &self.cluster
    }

    fn outcome_at(&mut self, now: SimTime) -> OrderingOutcome {
        OrderingOutcome {
            blocks: self.cluster.advance(now),
            timeout: None,
            wakeup: self.cluster.next_event_time(),
        }
    }
}

impl OrderingBackend for RaftOrderingBackend {
    fn submit(&mut self, tx: Transaction, now: SimTime) -> OrderingOutcome {
        self.cluster.enqueue(now, tx);
        self.outcome_at(now)
    }

    fn timeout_fired(&mut self, _timeout: TimeoutRequest, now: SimTime) -> OrderingOutcome {
        // Batch timeouts are armed inside the cluster (per leader);
        // the pipeline-level hook only ever fires for timeouts this
        // backend requested — and it requests none.
        self.outcome_at(now)
    }

    fn wakeup(&mut self, now: SimTime) -> OrderingOutcome {
        self.outcome_at(now)
    }

    fn take_early_aborted(&mut self) -> Vec<Transaction> {
        self.cluster.take_early_aborted()
    }

    fn take_ordering_metrics(&mut self) -> Option<OrderingMetrics> {
        Some(self.cluster.take_metrics())
    }

    fn observe_finalized(&mut self, feedback: &BlockFeedback) {
        self.cluster.observe_finalized(feedback);
    }

    fn take_policy_metrics(&mut self) -> Option<ConflictPolicyMetrics> {
        match self.cluster.policy() {
            OrderingPolicy::Fifo => None,
            _ => Some(self.cluster.take_policy_metrics()),
        }
    }
}
