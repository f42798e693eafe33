//! Conflict-aware ordering support: the decayed per-key write/conflict
//! tracker behind [`crate::config::OrderingPolicy::Adaptive`].
//!
//! "Performance Optimization of High-Conflict Transactions within the
//! Hyperledger Fabric Blockchain" (arXiv 2407.19732) observes that
//! under hot-key skew the orderer should *know* which keys are hot and
//! spend reordering effort only where it pays. This module implements
//! the measurement half of that idea:
//!
//! - [`ConflictTracker`] keeps one exponentially decayed moving average
//!   per key for *writes* (how often the key is written by committed
//!   transactions) and *conflicts* (how often a transaction touching
//!   the key failed MVCC validation or was early-aborted at the
//!   orderer). Finalize results flow back from the committing peer as
//!   [`BlockFeedback`] via `OrderingBackend::observe_finalized`.
//! - [`ConflictTracker::batch_conflict_density`] scores a pending batch
//!   as the fraction of its transactions touching a hot key — the
//!   signal the adaptive orderer compares against its density threshold
//!   to decide whether the Tarjan/Kahn reordering pass is worth its
//!   cost for this batch.
//!
//! Everything here is deterministic plain data: the tracker draws no
//! randomness, iterates keys in `BTreeMap` order, and can be cloned
//! wholesale — the Raft cluster keeps a master copy that survives
//! leader crashes and installs a clone into every freshly elected
//! leader's orderer (failover-safe hot-key state).

use std::collections::BTreeMap;

use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::transaction::Transaction;

/// Scores below this are pruned after decay: a key nobody has touched
/// for a few dozen blocks costs nothing.
const PRUNE_BELOW: f64 = 1e-3;

/// Decayed per-key activity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KeyHeat {
    /// Decayed writes-per-block EWMA.
    pub writes: f64,
    /// Decayed conflicts-per-block EWMA (MVCC failures at finalize plus
    /// early aborts at the orderer).
    pub conflicts: f64,
}

/// Per-block finalize results, reduced to what the conflict tracker
/// needs: which keys were written by committed transactions and which
/// keys were touched by transactions that failed MVCC validation.
///
/// Built by the simulation driver from the committed tip block (one
/// entry per key *occurrence*, so a block with three failures on `hot`
/// bumps `hot` three times).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockFeedback {
    /// Keys written by successfully committed transactions.
    pub writes: Vec<String>,
    /// Keys read or written by transactions that failed MVCC
    /// validation.
    pub conflicts: Vec<String>,
}

impl BlockFeedback {
    /// Reduces a committed block (transactions zipped with their
    /// validation codes) to tracker feedback.
    pub fn from_block(block: &Block) -> Self {
        let mut feedback = BlockFeedback::default();
        for (tx, code) in block.transactions.iter().zip(&block.validation_codes) {
            if code.is_success() {
                for (key, _) in tx.rwset.writes.iter() {
                    feedback.writes.push(key.to_owned());
                }
            } else if matches!(code, fabriccrdt_ledger::block::ValidationCode::MvccConflict) {
                for (key, _) in tx.rwset.reads.iter() {
                    feedback.conflicts.push(key.to_owned());
                }
                for (key, _) in tx.rwset.writes.iter() {
                    if tx.rwset.reads.get(key).is_none() {
                        feedback.conflicts.push(key.to_owned());
                    }
                }
            }
        }
        feedback
    }
}

/// Per-round EWMA decay of the tracker's key scores: about a five-block
/// memory.
pub const DECAY: f64 = 0.8;

/// A key is *hot* once its decayed conflict score reaches half a
/// conflict per block. Uniform-but-contended traffic, a few collisions
/// per key per block, must keep the gate open, not just single-key
/// hotspots.
pub const HOT_KEY_THRESHOLD: f64 = 0.5;

/// The adaptive orderer reorders a batch once this fraction of its
/// transactions touches a hot key; below it the batch is cut FIFO and
/// the Tarjan/Kahn pass is skipped entirely.
pub const DENSITY_THRESHOLD: f64 = 0.1;

/// Decayed per-key write/conflict EWMA at the ordering service.
///
/// One observation round per finalized block: every tracked score is
/// multiplied by [`DECAY`], then the round's occurrences are added with
/// weight `1 - DECAY` each (a standard EWMA, so a key conflicting `c`
/// times per block converges to a conflict score of `c · (1 − DECAY)
/// / (1 − DECAY) = c`... scores are in units of occurrences-per-block).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConflictTracker {
    keys: BTreeMap<String, KeyHeat>,
    blocks_observed: u64,
}

impl ConflictTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ConflictTracker::default()
    }

    /// Observation rounds absorbed so far.
    pub fn blocks_observed(&self) -> u64 {
        self.blocks_observed
    }

    /// Number of keys currently tracked (pruned of cold entries).
    pub fn tracked_keys(&self) -> usize {
        self.keys.len()
    }

    /// The decayed scores for `key` (zeros when untracked).
    pub fn heat(&self, key: &str) -> KeyHeat {
        self.keys.get(key).copied().unwrap_or_default()
    }

    /// Absorbs one finalized block's feedback: one decay round plus the
    /// fresh write/conflict occurrences.
    pub fn observe(&mut self, feedback: &BlockFeedback) {
        self.decay_round();
        let fresh = 1.0 - DECAY;
        for key in &feedback.writes {
            self.keys.entry(key.clone()).or_default().writes += fresh;
        }
        for key in &feedback.conflicts {
            self.keys.entry(key.clone()).or_default().conflicts += fresh;
        }
        self.blocks_observed += 1;
    }

    /// Absorbs the orderer's own early aborts (conflicts discovered at
    /// block cut, before validation). Counting them keeps hot keys hot
    /// while reordering is engaged — otherwise conflicts converted to
    /// early aborts would decay the very signal that triggered
    /// reordering, and the adaptive policy would oscillate.
    ///
    /// Not a decay round: the aborts belong to the batch whose
    /// finalize feedback will perform the round.
    pub fn observe_aborts(&mut self, aborted: &[Transaction]) {
        let fresh = 1.0 - DECAY;
        for tx in aborted {
            for (key, _) in tx.rwset.reads.iter() {
                self.keys.entry(key.to_owned()).or_default().conflicts += fresh;
            }
        }
    }

    fn decay_round(&mut self) {
        for heat in self.keys.values_mut() {
            heat.writes *= DECAY;
            heat.conflicts *= DECAY;
        }
        self.keys
            .retain(|_, h| h.writes >= PRUNE_BELOW || h.conflicts >= PRUNE_BELOW);
    }

    /// Fraction of `batch` whose transactions touch at least one key
    /// with a conflict score of [`HOT_KEY_THRESHOLD`] or more. 0.0 for
    /// an empty batch or a cold tracker — the adaptive orderer then
    /// skips the reordering pass entirely.
    pub fn batch_conflict_density(&self, batch: &[Transaction]) -> f64 {
        if batch.is_empty() || self.keys.is_empty() {
            return 0.0;
        }
        let hot = batch
            .iter()
            .filter(|tx| {
                tx.rwset
                    .reads
                    .iter()
                    .map(|(key, _)| key)
                    .chain(tx.rwset.writes.iter().map(|(key, _)| key))
                    .any(|key| self.heat(key).conflicts >= HOT_KEY_THRESHOLD)
            })
            .count();
        hot as f64 / batch.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_crypto::Identity;
    use fabriccrdt_ledger::block::ValidationCode;
    use fabriccrdt_ledger::rwset::ReadWriteSet;
    use fabriccrdt_ledger::transaction::TxId;
    use fabriccrdt_ledger::version::Height;

    fn tx(n: u64, reads: &[&str], writes: &[&str]) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        for key in reads {
            rwset.reads.record(*key, Some(Height::new(1, 0)));
        }
        for key in writes {
            rwset.writes.put(*key, vec![n as u8]);
        }
        Transaction {
            id: TxId::derive(&client, n, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        }
    }

    #[test]
    fn conflicts_accumulate_and_decay() {
        let mut tracker = ConflictTracker::new();
        let feedback = BlockFeedback {
            writes: vec!["w".into()],
            conflicts: vec!["hot".into(), "hot".into()],
        };
        tracker.observe(&feedback);
        let after_one = tracker.heat("hot").conflicts;
        assert!((after_one - 0.4).abs() < 1e-9); // 2 × (1 − 0.8)
        assert!((tracker.heat("w").writes - 0.2).abs() < 1e-9);
        // A quiet round scales the scores by the decay.
        tracker.observe(&BlockFeedback::default());
        assert!((tracker.heat("hot").conflicts - 0.32).abs() < 1e-9);
        assert_eq!(tracker.blocks_observed(), 2);
    }

    #[test]
    fn cold_keys_are_pruned() {
        let mut tracker = ConflictTracker::new();
        tracker.observe(&BlockFeedback {
            writes: Vec::new(),
            conflicts: vec!["k".into()],
        });
        assert_eq!(tracker.tracked_keys(), 1);
        // 0.2 × 0.8^24 is below the pruning floor.
        for _ in 0..24 {
            tracker.observe(&BlockFeedback::default());
        }
        assert_eq!(tracker.tracked_keys(), 0, "decayed-out keys must not leak");
        assert_eq!(tracker.heat("k"), KeyHeat::default());
    }

    #[test]
    fn density_is_fraction_of_hot_transactions() {
        let mut tracker = ConflictTracker::new();
        for _ in 0..8 {
            tracker.observe(&BlockFeedback {
                writes: Vec::new(),
                conflicts: vec!["hot".into(), "hot".into()],
            });
        }
        assert!(tracker.heat("hot").conflicts > 1.0);
        let batch = vec![
            tx(0, &["hot"], &["hot"]),
            tx(1, &["cold"], &["cold"]),
            tx(2, &[], &["hot"]),
            tx(3, &["other"], &["other"]),
        ];
        let density = tracker.batch_conflict_density(&batch);
        assert!((density - 0.5).abs() < 1e-9, "2 of 4 touch the hot key");
        // A cold tracker reports zero density without iterating.
        assert_eq!(ConflictTracker::new().batch_conflict_density(&batch), 0.0);
        assert_eq!(tracker.batch_conflict_density(&[]), 0.0);
    }

    #[test]
    fn feedback_from_block_splits_writes_and_conflicts() {
        use fabriccrdt_ledger::block::Block;
        let mut block =
            Block::assemble(1, [0; 32], vec![tx(0, &[], &["a"]), tx(1, &["b"], &["c"])]);
        block.validation_codes = vec![ValidationCode::Valid, ValidationCode::MvccConflict];
        let feedback = BlockFeedback::from_block(&block);
        assert_eq!(feedback.writes, vec!["a".to_owned()]);
        assert_eq!(feedback.conflicts, vec!["b".to_owned(), "c".to_owned()]);
    }

    #[test]
    fn observe_aborts_heats_read_keys() {
        let mut tracker = ConflictTracker::new();
        tracker.observe_aborts(&[tx(0, &["hot"], &["hot"])]);
        assert!((tracker.heat("hot").conflicts - 0.2).abs() < 1e-9);
    }
}
