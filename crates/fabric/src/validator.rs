//! Pluggable block validation.
//!
//! Vanilla Fabric and FabricCRDT share the entire pipeline except the
//! final validation-and-commit stage (paper Figure 2). That stage is a
//! trait here; [`FabricValidator`] implements Fabric's MVCC path, and the
//! `fabriccrdt` core crate implements the merging path of Algorithm 1.

use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::mvcc;
use fabriccrdt_ledger::transaction::Transaction;
use fabriccrdt_ledger::worldstate::WorldState;

use crate::cost::ValidationWork;
use crate::metrics::DecodeCacheMetrics;

/// A name only: what [`BlockValidator::finalize_chain`] returns. No
/// fields, because nothing in the workspace calls that method; kept
/// because `perf/` forwards the value (DESIGN.md §4.10).
#[derive(Debug, Clone, Default)]
pub struct ChainOutcome;

/// Validates a block's transactions against the world state and commits
/// the surviving write sets, filling `block.validation_codes`.
///
/// `pre_decided` carries per-transaction codes decided by earlier stages
/// (duplicate ids, endorsement-policy failures); those transactions must
/// be recorded as-is and must not touch the state.
///
/// `Send + 'static` because replicated deployments box what holds a
/// validator: a gossip lane holds its replicas' validators and is boxed
/// as a `dyn DeliveryLayer`, which a multi-channel deployment runs on a
/// thread of its own. Generic callers, `perf/`'s included, rely on the
/// bounds coming with the trait.
pub trait BlockValidator: Send + 'static {
    /// Runs validation and commit, returning the work performed
    /// (excluding signature verification, which the peer accounts for).
    fn validate_and_commit(
        &self,
        block: &mut Block,
        state: &mut WorldState,
        pre_decided: &[Option<ValidationCode>],
    ) -> ValidationWork;

    /// Per-transaction warm-up hook, invoked by the endorsement check
    /// for every non-duplicate transaction, *before* the
    /// [`validate_and_commit`](BlockValidator::validate_and_commit)
    /// stage runs.
    ///
    /// No type in the workspace overrides it: FabricCRDT's validator
    /// parses each CRDT write inline, where it merges. Declared only
    /// because `perf/`'s `TracedValidator` overrides it (DESIGN.md
    /// §4.10). It must not touch the world state or the block, so the
    /// no-op default is always value-equivalent.
    fn prepare(&self, _tx: &Transaction) {}

    /// Nothing calls this: every peer finalizes a block with
    /// [`validate_and_commit`](BlockValidator::validate_and_commit).
    /// Declared, with this exact signature, only because `perf/`'s
    /// `TracedValidator` overrides it (DESIGN.md §4.10); no type in the
    /// workspace does.
    fn finalize_chain(
        &self,
        _block_number: u64,
        _transactions: &[Transaction],
        _chain: &[usize],
        _state: &WorldState,
    ) -> ChainOutcome {
        ChainOutcome
    }

    /// Whether every read-set version of `tx` still matches `state`
    /// (vanilla Fabric's read predicate). No production caller in the
    /// workspace: declared only because `perf/`'s `TracedValidator`
    /// overrides it (DESIGN.md §4.10).
    fn speculative_read_check(&self, tx: &Transaction, state: &WorldState) -> bool {
        tx.rwset
            .reads
            .iter()
            .all(|(key, entry)| state.version(key) == entry.version)
    }

    /// Always `None`: there is no payload cache. Declared only because
    /// `perf/`'s `TracedValidator` overrides it (DESIGN.md §4.10).
    fn decode_cache_stats(&self) -> Option<DecodeCacheMetrics> {
        None
    }

    /// Short name for reports ("fabric", "fabriccrdt").
    fn name(&self) -> &str;
}

/// Vanilla Fabric: sequential MVCC validation (§3), conflicting
/// transactions are rejected.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricValidator;

impl FabricValidator {
    /// Creates the validator.
    pub fn new() -> Self {
        FabricValidator
    }
}

impl BlockValidator for FabricValidator {
    fn validate_and_commit(
        &self,
        block: &mut Block,
        state: &mut WorldState,
        pre_decided: &[Option<ValidationCode>],
    ) -> ValidationWork {
        mvcc::validate_and_commit(block, state, pre_decided, false).into()
    }

    fn name(&self) -> &str {
        "fabric"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_crypto::Identity;
    use fabriccrdt_ledger::rwset::ReadWriteSet;
    use fabriccrdt_ledger::transaction::{Transaction, TxId};
    use fabriccrdt_ledger::version::Height;

    fn conflicting_tx(n: u64) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        rwset.reads.record("hot", Some(Height::new(1, 0)));
        rwset.writes.put("hot", vec![n as u8]);
        Transaction {
            id: TxId::derive(&client, n, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        }
    }

    #[test]
    fn fabric_validator_rejects_conflicts() {
        let mut state = WorldState::new();
        state.put("hot".into(), b"0".to_vec(), Height::new(1, 0));
        let mut block = Block::assemble(2, [0; 32], (0..4).map(conflicting_tx).collect());
        let work = FabricValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        assert_eq!(work.successes, 1);
        assert_eq!(work.merge_units, 0);
        assert_eq!(block.successful_count(), 1);
    }

    #[test]
    fn fabric_validator_name() {
        assert_eq!(FabricValidator::new().name(), "fabric");
    }

    #[test]
    fn fabric_validator_reports_no_decode_cache() {
        assert!(FabricValidator::new().decode_cache_stats().is_none());
    }

    #[test]
    fn speculative_read_check_mirrors_mvcc_predicate() {
        let mut state = WorldState::new();
        state.put("hot".into(), b"0".to_vec(), Height::new(1, 0));
        let v = FabricValidator::new();
        // Fresh read: matches the snapshot.
        assert!(v.speculative_read_check(&conflicting_tx(1), &state));
        // The key moved on: the speculative verdict flips, exactly as
        // the authoritative check at finalize would.
        state.put("hot".into(), b"1".to_vec(), Height::new(2, 0));
        assert!(!v.speculative_read_check(&conflicting_tx(1), &state));
        // Write-only transactions never conflict.
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        rwset.writes.put("hot", vec![9]);
        let write_only = Transaction {
            id: TxId::derive(&client, 9, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        };
        assert!(v.speculative_read_check(&write_only, &state));
    }
}
