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

/// Converts work counters into simulated compute time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-block cost (header hashing, I/O, bookkeeping), µs.
    pub block_overhead_us: f64,
    /// Per endorsement-signature verification, µs.
    pub per_sig_verify_us: f64,
    /// Per MVCC read-version comparison, µs.
    pub per_read_check_us: f64,
    /// Per write-set entry committed to the state database, µs.
    pub per_write_commit_us: f64,
    /// Per CRDT merge work unit (linear term), µs.
    pub per_merge_unit_us: f64,
    /// Per `unit × prior-op` product (superlinear term), µs.
    pub per_merge_quad_us: f64,
    /// Chaincode execution: fixed cost per invocation, µs.
    pub exec_base_us: f64,
    /// Chaincode execution: per `get_state`, µs.
    pub exec_per_read_us: f64,
    /// Chaincode execution: per `put_state`/`put_crdt`, µs.
    pub exec_per_write_us: f64,
    /// Chaincode execution: per KiB moved through the shim, µs.
    pub exec_per_kib_us: f64,
}

impl CostModel {
    /// The calibrated model (see [`crate::latency`] for the calibration
    /// targets).
    pub fn calibrated() -> Self {
        CostModel {
            block_overhead_us: 12_000.0,
            per_sig_verify_us: 440.0,
            per_read_check_us: 200.0,
            per_write_commit_us: 780.0,
            per_merge_unit_us: 55.0,
            per_merge_quad_us: 1.3,
            exec_base_us: 800.0,
            exec_per_read_us: 150.0,
            exec_per_write_us: 100.0,
            exec_per_kib_us: 50.0,
        }
    }

    /// A zero-cost model for logic-only tests.
    pub fn zero() -> Self {
        CostModel {
            block_overhead_us: 0.0,
            per_sig_verify_us: 0.0,
            per_read_check_us: 0.0,
            per_write_commit_us: 0.0,
            per_merge_unit_us: 0.0,
            per_merge_quad_us: 0.0,
            exec_base_us: 0.0,
            exec_per_read_us: 0.0,
            exec_per_write_us: 0.0,
            exec_per_kib_us: 0.0,
        }
    }

    /// Simulated time to validate and commit one block.
    pub fn block_cost(&self, work: &ValidationWork) -> SimTime {
        let us = self.block_overhead_us
            + self.per_sig_verify_us * work.sigs_verified as f64
            + self.per_read_check_us * work.reads_checked as f64
            + self.per_write_commit_us * work.writes_applied as f64
            + self.per_merge_unit_us * work.merge_units as f64
            + self.per_merge_quad_us * work.merge_quad as f64;
        SimTime::from_secs_f64(us / 1e6)
    }

    /// Simulated time for one chaincode execution during endorsement.
    pub fn exec_cost(&self, work: &ExecWork) -> SimTime {
        let kib = (work.bytes_read + work.bytes_written) as f64 / 1024.0;
        let us = self.exec_base_us
            + self.exec_per_read_us * work.reads as f64
            + self.exec_per_write_us * work.writes as f64
            + self.exec_per_kib_us * kib;
        SimTime::from_secs_f64(us / 1e6)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_cost_sums_terms() {
        let model = CostModel {
            block_overhead_us: 1000.0,
            per_sig_verify_us: 10.0,
            per_read_check_us: 5.0,
            per_write_commit_us: 20.0,
            per_merge_unit_us: 2.0,
            per_merge_quad_us: 0.5,
            exec_base_us: 0.0,
            exec_per_read_us: 0.0,
            exec_per_write_us: 0.0,
            exec_per_kib_us: 0.0,
        };
        let work = ValidationWork {
            sigs_verified: 3,
            reads_checked: 2,
            writes_applied: 1,
            merge_units: 10,
            merge_quad: 4,
            successes: 1,
        };
        // 1000 + 30 + 10 + 20 + 20 + 2 = 1082 µs
        assert_eq!(model.block_cost(&work), SimTime::from_micros(1082));
    }

    #[test]
    fn exec_cost_scales_with_shim_traffic() {
        let model = CostModel::calibrated();
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
        assert!(model.exec_cost(&heavy) > model.exec_cost(&light));
        assert!(model.exec_cost(&light) >= SimTime::from_micros(800));
    }

    #[test]
    fn zero_model_charges_nothing() {
        let model = CostModel::zero();
        let work = ValidationWork {
            sigs_verified: 100,
            reads_checked: 100,
            writes_applied: 100,
            merge_units: 100,
            merge_quad: 100,
            successes: 100,
        };
        assert_eq!(model.block_cost(&work), SimTime::ZERO);
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
