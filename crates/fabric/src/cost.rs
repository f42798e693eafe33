//! The work-to-simulated-time cost model.
//!
//! Validation and commit *compute* time is charged from deterministic
//! work counters produced by actually running the real algorithms (MVCC
//! checks, JSON-CRDT merges), so experiments are byte-for-byte
//! reproducible across machines (DESIGN.md §1, "Time model").
//!
//! The CRDT merge terms deserve a note. Merging transaction *i* of a
//! block into a key's JSON CRDT costs a linear term (per work unit:
//! operations generated + nodes visited) plus a term proportional to
//! `units × ops_already_in_document`. The second term models the
//! apply-cost growth of operation-log JSON-CRDT implementations (the
//! paper's prototype builds on the rdoc Go library, which re-traverses
//! the operation history): the more transactions a block merges into one
//! document, the more expensive each further merge becomes. This is the
//! mechanism behind Figure 3's result that FabricCRDT favours *small*
//! blocks — with 25-tx blocks the quadratic term is negligible, with
//! 1000-tx blocks it dominates.

use fabriccrdt_ledger::mvcc::CommitStats;
use fabriccrdt_sim::time::SimTime;

use crate::chaincode::ExecWork;

/// Work performed while validating and committing one block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationWork {
    /// Endorsement signatures verified.
    pub sigs_verified: u64,
    /// MVCC read-set version comparisons.
    pub reads_checked: u64,
    /// Write-set entries applied to the world state.
    pub writes_applied: u64,
    /// CRDT merge work units (operations + nodes visited).
    pub merge_units: u64,
    /// Σ over merged values of `units × ops_already_in_document` — the
    /// superlinear merge term (see module docs).
    pub merge_quad: u64,
    /// Transactions committed successfully.
    pub successes: u64,
}

/// An MVCC pass's counters: no signatures, no merges.
impl From<CommitStats> for ValidationWork {
    fn from(stats: CommitStats) -> Self {
        ValidationWork {
            reads_checked: stats.reads_checked,
            writes_applied: stats.writes_applied,
            successes: stats.successes,
            ..ValidationWork::default()
        }
    }
}

/// Per endorsement-signature verification, µs.
pub const PER_SIG_VERIFY_US: f64 = 440.0;
/// Per MVCC read-version comparison, µs.
pub const PER_READ_CHECK_US: f64 = 200.0;
/// Per write-set entry committed to the state database, µs.
pub const PER_WRITE_COMMIT_US: f64 = 780.0;
/// Per CRDT merge work unit (linear term), µs.
pub const PER_MERGE_UNIT_US: f64 = 55.0;
/// Chaincode execution: fixed cost per invocation, µs.
pub const EXEC_BASE_US: f64 = 800.0;
/// Chaincode execution: per `get_state`, µs.
pub const EXEC_PER_READ_US: f64 = 150.0;
/// Chaincode execution: per `put_state`/`put_crdt`, µs.
pub const EXEC_PER_WRITE_US: f64 = 100.0;
/// Chaincode execution: per KiB moved through the shim, µs.
pub const EXEC_PER_KIB_US: f64 = 50.0;

/// Converts work counters into simulated compute time. The two terms a
/// run may vary are fields (`bench ablation` sets both); every other
/// term is a constant of this module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-block cost (header hashing, I/O, bookkeeping), µs.
    pub block_overhead_us: f64,
    /// Per `unit × prior-op` product (superlinear term), µs.
    pub per_merge_quad_us: f64,
}

impl CostModel {
    /// The calibrated model (see [`crate::latency`] for the calibration
    /// targets).
    pub fn calibrated() -> Self {
        CostModel {
            block_overhead_us: 12_000.0,
            per_merge_quad_us: 1.3,
        }
    }

    /// Simulated time to validate and commit one block.
    pub fn block_cost(&self, work: &ValidationWork) -> SimTime {
        let us = self.block_overhead_us
            + PER_SIG_VERIFY_US * work.sigs_verified as f64
            + PER_READ_CHECK_US * work.reads_checked as f64
            + PER_WRITE_COMMIT_US * work.writes_applied as f64
            + PER_MERGE_UNIT_US * work.merge_units as f64
            + self.per_merge_quad_us * work.merge_quad as f64;
        SimTime::from_secs_f64(us / 1e6)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

/// Simulated time for one chaincode execution during endorsement.
pub fn exec_cost(work: &ExecWork) -> SimTime {
    let kib = (work.bytes_read + work.bytes_written) as f64 / 1024.0;
    let us = EXEC_BASE_US
        + EXEC_PER_READ_US * work.reads as f64
        + EXEC_PER_WRITE_US * work.writes as f64
        + EXEC_PER_KIB_US * kib;
    SimTime::from_secs_f64(us / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every term's weight, pinned: a changed constant, a dropped or
    /// doubled term or a rounding change moves the microsecond.
    #[test]
    fn block_cost_sums_terms() {
        let work = ValidationWork {
            sigs_verified: 75,
            reads_checked: 40,
            writes_applied: 25,
            merge_units: 225,
            merge_quad: 3_601,
            successes: 25,
        };
        // 12 000 + 33 000 + 8 000 + 19 500 + 12 375 + 4 681.3 µs
        assert_eq!(
            CostModel::calibrated().block_cost(&work),
            SimTime::from_micros(89_556)
        );
        let ablated = CostModel {
            block_overhead_us: 500.0,
            per_merge_quad_us: 0.0,
        };
        assert_eq!(ablated.block_cost(&work), SimTime::from_micros(73_375));
    }

    #[test]
    fn exec_cost_is_pinned() {
        let work = ExecWork {
            reads: 3,
            writes: 2,
            bytes_read: 1_500,
            bytes_written: 700,
        };
        // 800 + 450 + 200 + 50 × 2 200 / 1 024 = 1 557.42 µs
        assert_eq!(exec_cost(&work), SimTime::from_micros(1_557));
    }

    #[test]
    fn exec_cost_scales_with_shim_traffic() {
        let light = ExecWork {
            reads: 1,
            writes: 1,
            bytes_read: 100,
            bytes_written: 100,
        };
        let heavy = ExecWork {
            reads: 5,
            writes: 5,
            bytes_read: 10_000,
            bytes_written: 10_000,
        };
        assert!(exec_cost(&heavy) > exec_cost(&light));
        assert!(exec_cost(&light) >= SimTime::from_micros(800));
    }

    #[test]
    fn merge_quad_term_dominates_large_blocks() {
        // The calibration must make large-block merging markedly more
        // expensive per transaction than small-block merging.
        let model = CostModel::calibrated();
        let per_tx = |block_size: u64| {
            // ~9 units and ~4 ops per 2-key IoT JSON (see jsoncrdt).
            let units = 9 * block_size;
            let quad: u64 = (0..block_size).map(|i| 9 * (i * 4)).sum();
            let work = ValidationWork {
                sigs_verified: 3 * block_size,
                writes_applied: block_size,
                merge_units: units,
                merge_quad: quad,
                ..Default::default()
            };
            model.block_cost(&work).as_secs_f64() / block_size as f64
        };
        let small = per_tx(25);
        let large = per_tx(1000);
        assert!(large > small * 3.0, "small={small} large={large}");
    }
}
