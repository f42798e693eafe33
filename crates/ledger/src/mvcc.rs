//! Multi-version concurrency control validation (§3 of the paper).
//!
//! A committing peer walks the block's transactions *sequentially*,
//! comparing each read-set entry's version against the current world
//! state. A transaction is valid iff every read version matches; valid
//! transactions' write sets commit immediately, so later transactions in
//! the same block see the bumped versions — exactly the behaviour that
//! invalidates T2 and T3 in the paper's worked example.
//!
//! The same routine also serves the FabricCRDT pathway: with
//! `crdt_aware = true`, *CRDT transactions* — those whose write set
//! carries any CRDT-flagged pair — skip MVCC read validation entirely
//! (paper §4.3: "CRDT transactions only go through the endorsement
//! validation check"; Algorithm 1 line 15 runs MVCC "on non-CRDT
//! transactions"). Committed CRDT transactions are recorded as
//! [`ValidationCode::ValidMerged`]. This transaction-level skip is what
//! makes the §6 double-spend caveat real: even a non-CRDT read inside a
//! CRDT transaction goes unvalidated.

use crate::block::{Block, ValidationCode};
use crate::version::Height;
use crate::worldstate::WorldState;

/// Work counters from a commit pass, consumed by the simulator's cost
/// model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Read-set version comparisons performed.
    pub reads_checked: u64,
    /// Write-set entries applied to the world state.
    pub writes_applied: u64,
    /// Transactions committed successfully.
    pub successes: u64,
}

/// Validates a block's transactions and commits the valid ones,
/// filling `block.validation_codes`.
///
/// `pre_decided` carries codes already decided by earlier pipeline stages
/// (endorsement-policy failures, duplicate ids); pass an empty slice when
/// nothing is pre-decided. Pre-decided transactions are recorded as-is
/// and never touch the world state.
///
/// With `crdt_aware = false` this is vanilla Fabric's validator; with
/// `crdt_aware = true` it is the MVCC stage of FabricCRDT's Algorithm 1
/// (CRDT-flagged pairs skip the read check).
///
/// # Panics
///
/// Panics if `pre_decided` is non-empty and its length differs from the
/// number of transactions in the block.
pub fn validate_and_commit(
    block: &mut Block,
    state: &mut WorldState,
    pre_decided: &[Option<ValidationCode>],
    crdt_aware: bool,
) -> CommitStats {
    assert!(
        pre_decided.is_empty() || pre_decided.len() == block.transactions.len(),
        "pre_decided length must match transaction count"
    );
    let mut stats = CommitStats::default();
    let mut codes = Vec::with_capacity(block.transactions.len());

    for (tx_num, tx) in block.transactions.iter().enumerate() {
        if let Some(Some(code)) = pre_decided.get(tx_num) {
            codes.push(*code);
            continue;
        }

        // CRDT transactions bypass MVCC read validation wholesale
        // (§4.3 / Algorithm 1 line 15: MVCC runs on *non-CRDT*
        // transactions only). The committer still walks the read set and
        // fetches each key's current version from the state database —
        // the lookup cost is paid either way (this is what makes
        // FabricCRDT "affected by both the number of reads and writes",
        // §7.4) — it just never fails a CRDT transaction on a mismatch.
        let is_crdt_tx = crdt_aware && tx.rwset.writes.has_crdt_writes();

        // Sequential read-set validation against the *current* state,
        // which already includes writes of earlier valid transactions in
        // this block.
        let mut valid = true;
        for (key, entry) in tx.rwset.reads.iter() {
            stats.reads_checked += 1;
            let current = state.version(key);
            if !is_crdt_tx && current != entry.version {
                valid = false;
                break;
            }
        }

        if !valid {
            codes.push(ValidationCode::MvccConflict);
            continue;
        }

        stats.writes_applied += tx.rwset.writes.len() as u64;
        apply_writes(block, tx_num, state);
        stats.successes += 1;
        codes.push(if is_crdt_tx {
            ValidationCode::ValidMerged
        } else {
            ValidationCode::Valid
        });
    }

    block.validation_codes = codes;
    stats
}

/// Commits transaction `tx_num`'s write set to `state` at its height,
/// each write the value `block` gives it ([`Block::value_of`]).
pub fn apply_writes(block: &Block, tx_num: usize, state: &mut WorldState) {
    let height = Height::new(block.header.number, tx_num as u64);
    for (key, entry) in block.transactions[tx_num].rwset.writes.iter() {
        if entry.is_delete {
            state.delete(key);
        } else {
            state.put(
                key.clone(),
                block.value_of(tx_num, key, entry).to_vec(),
                height,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::ReadWriteSet;
    use crate::transaction::{Transaction, TxId};
    use fabriccrdt_crypto::Identity;

    fn tx(n: u64, rwset: ReadWriteSet) -> Transaction {
        let client = Identity::new("client", "org1");
        Transaction {
            id: TxId::derive(&client, n, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        }
    }

    /// The worked example of §3: world state {K1,K2,K3}, five transactions.
    /// Expected: T1 valid, T2/T3 MVCC-invalid, T4/T5 valid.
    #[test]
    fn mvcc_paper_example() {
        let mut state = WorldState::new();
        let vn1 = Height::new(1, 0);
        let vn2 = Height::new(1, 1);
        let vn3 = Height::new(1, 2);
        state.put("K1".into(), b"VL1".to_vec(), vn1);
        state.put("K2".into(), b"VL2".to_vec(), vn2);
        state.put("K3".into(), b"VL3".to_vec(), vn3);

        // T1: reads K2@VN2, writes K2.
        let mut t1 = ReadWriteSet::new();
        t1.reads.record("K2", Some(vn2));
        t1.writes.put("K2", b"VL1'".to_vec());
        // T2: reads K1@VN1 and K2@VN2, writes K3.
        let mut t2 = ReadWriteSet::new();
        t2.reads.record("K1", Some(vn1));
        t2.reads.record("K2", Some(vn2));
        t2.writes.put("K3", b"VL3'".to_vec());
        // T3: reads K2@VN2, writes K3.
        let mut t3 = ReadWriteSet::new();
        t3.reads.record("K2", Some(vn2));
        t3.writes.put("K3", b"VL1'".to_vec());
        // T4: reads K3@VN3, writes K2.
        let mut t4 = ReadWriteSet::new();
        t4.reads.record("K3", Some(vn3));
        t4.writes.put("K2", b"VL1''".to_vec());
        // T5: empty read set, writes K3.
        let mut t5 = ReadWriteSet::new();
        t5.writes.put("K3", b"VL2'".to_vec());

        let txs = vec![tx(1, t1), tx(2, t2), tx(3, t3), tx(4, t4), tx(5, t5)];
        let mut block = Block::assemble(2, [0; 32], txs);
        let stats = validate_and_commit(&mut block, &mut state, &[], false);

        assert_eq!(
            block.validation_codes,
            vec![
                ValidationCode::Valid,
                ValidationCode::MvccConflict,
                ValidationCode::MvccConflict,
                ValidationCode::Valid,
                ValidationCode::Valid,
            ]
        );
        assert_eq!(stats.successes, 3);
        // T4's write of K2 supersedes T1's within the same block.
        assert_eq!(state.value("K2"), Some(&b"VL1''"[..]));
        assert_eq!(state.version("K2"), Some(Height::new(2, 3)));
        // T5 wrote K3 last.
        assert_eq!(state.version("K3"), Some(Height::new(2, 4)));
        // K1 untouched.
        assert_eq!(state.version("K1"), Some(vn1));
    }

    #[test]
    fn read_of_missing_key_validates_against_absence() {
        let mut state = WorldState::new();
        let mut rw = ReadWriteSet::new();
        rw.reads.record("ghost", None);
        rw.writes.put("ghost", b"v".to_vec());
        let mut block = Block::assemble(0, [0; 32], vec![tx(1, rw)]);
        validate_and_commit(&mut block, &mut state, &[], false);
        assert_eq!(block.validation_codes, vec![ValidationCode::Valid]);

        // Same read-set in the next block now conflicts: the key exists.
        let mut rw2 = ReadWriteSet::new();
        rw2.reads.record("ghost", None);
        rw2.writes.put("ghost", b"w".to_vec());
        let mut block2 = Block::assemble(1, [0; 32], vec![tx(2, rw2)]);
        validate_and_commit(&mut block2, &mut state, &[], false);
        assert_eq!(block2.validation_codes, vec![ValidationCode::MvccConflict]);
    }

    #[test]
    fn intra_block_conflict_first_wins() {
        let mut state = WorldState::new();
        state.put("hot".into(), b"0".to_vec(), Height::new(1, 0));
        let make = |n: u64| {
            let mut rw = ReadWriteSet::new();
            rw.reads.record("hot", Some(Height::new(1, 0)));
            rw.writes.put("hot", vec![n as u8]);
            tx(n, rw)
        };
        let mut block = Block::assemble(2, [0; 32], (0..5).map(make).collect());
        let stats = validate_and_commit(&mut block, &mut state, &[], false);
        assert_eq!(stats.successes, 1);
        assert_eq!(block.validation_codes[0], ValidationCode::Valid);
        assert!(block.validation_codes[1..]
            .iter()
            .all(|c| *c == ValidationCode::MvccConflict));
    }

    #[test]
    fn write_only_transactions_never_conflict() {
        let mut state = WorldState::new();
        state.put("k".into(), b"0".to_vec(), Height::new(1, 0));
        let make = |n: u64| {
            let mut rw = ReadWriteSet::new();
            rw.writes.put("k", vec![n as u8]);
            tx(n, rw)
        };
        let mut block = Block::assemble(2, [0; 32], (0..4).map(make).collect());
        let stats = validate_and_commit(&mut block, &mut state, &[], false);
        assert_eq!(stats.successes, 4);
        // Last writer's value sticks.
        assert_eq!(state.value("k"), Some(&[3u8][..]));
    }

    #[test]
    fn pre_decided_rejections_are_recorded_and_skip_commit() {
        let mut state = WorldState::new();
        let mut rw = ReadWriteSet::new();
        rw.writes.put("k", b"v".to_vec());
        let mut block = Block::assemble(0, [0; 32], vec![tx(1, rw)]);
        let pre = vec![Some(ValidationCode::EndorsementPolicyFailure)];
        let stats = validate_and_commit(&mut block, &mut state, &pre, false);
        assert_eq!(
            block.validation_codes,
            vec![ValidationCode::EndorsementPolicyFailure]
        );
        assert_eq!(stats.successes, 0);
        assert!(state.value("k").is_none());
    }

    #[test]
    fn crdt_aware_skips_read_check_for_crdt_pairs() {
        let mut state = WorldState::new();
        state.put("doc".into(), b"{}".to_vec(), Height::new(1, 0));
        // Both transactions read doc at a stale version but write it as CRDT.
        let make = |n: u64| {
            let mut rw = ReadWriteSet::new();
            rw.reads.record("doc", Some(Height::new(0, 0))); // stale!
            rw.writes.put_crdt("doc", vec![n as u8]);
            tx(n, rw)
        };
        let mut block = Block::assemble(2, [0; 32], (0..3).map(make).collect());
        let stats = validate_and_commit(&mut block, &mut state, &[], true);
        assert_eq!(stats.successes, 3);
        assert!(block
            .validation_codes
            .iter()
            .all(|c| *c == ValidationCode::ValidMerged));
        // Without CRDT awareness the same block all-fails.
        let mut state2 = WorldState::new();
        state2.put("doc".into(), b"{}".to_vec(), Height::new(1, 0));
        let mut block2 = Block::assemble(2, [0; 32], (0..3).map(make).collect());
        let stats2 = validate_and_commit(&mut block2, &mut state2, &[], false);
        assert_eq!(stats2.successes, 0);
    }

    #[test]
    fn crdt_transactions_skip_even_non_crdt_reads() {
        // §4.3: CRDT transactions only go through endorsement
        // validation — a stale *plain* read inside a CRDT transaction
        // is not checked. (This is exactly the §6 double-spend caveat.)
        let mut state = WorldState::new();
        state.put("doc".into(), b"{}".to_vec(), Height::new(1, 0));
        state.put("plain".into(), b"x".to_vec(), Height::new(1, 1));
        let mut rw = ReadWriteSet::new();
        rw.reads.record("doc", Some(Height::new(0, 0)));
        rw.reads.record("plain", Some(Height::new(0, 0))); // stale, not CRDT
        rw.writes.put_crdt("doc", b"d".to_vec());
        rw.writes.put("plain", b"y".to_vec());
        let mut block = Block::assemble(2, [0; 32], vec![tx(1, rw)]);
        let stats = validate_and_commit(&mut block, &mut state, &[], true);
        assert_eq!(block.validation_codes, vec![ValidationCode::ValidMerged]);
        assert_eq!(stats.successes, 1);
        // The version lookups still happen (cost), the comparison does not.
        assert_eq!(stats.reads_checked, 2);

        // The same transaction on vanilla Fabric conflicts.
        let mut state2 = WorldState::new();
        state2.put("doc".into(), b"{}".to_vec(), Height::new(1, 0));
        state2.put("plain".into(), b"x".to_vec(), Height::new(1, 1));
        let mut rw2 = ReadWriteSet::new();
        rw2.reads.record("plain", Some(Height::new(0, 0)));
        rw2.writes.put_crdt("doc", b"d".to_vec());
        let mut block2 = Block::assemble(2, [0; 32], vec![tx(2, rw2)]);
        validate_and_commit(&mut block2, &mut state2, &[], false);
        assert_eq!(block2.validation_codes, vec![ValidationCode::MvccConflict]);
    }

    #[test]
    fn delete_writes_remove_keys() {
        let mut state = WorldState::new();
        state.put("k".into(), b"v".to_vec(), Height::new(1, 0));
        let mut rw = ReadWriteSet::new();
        rw.writes.delete("k");
        let mut block = Block::assemble(2, [0; 32], vec![tx(1, rw)]);
        validate_and_commit(&mut block, &mut state, &[], false);
        assert!(state.value("k").is_none());
    }

    #[test]
    fn stats_count_work() {
        let mut state = WorldState::new();
        state.put("a".into(), b"1".to_vec(), Height::new(1, 0));
        state.put("b".into(), b"2".to_vec(), Height::new(1, 1));
        let mut rw = ReadWriteSet::new();
        rw.reads.record("a", Some(Height::new(1, 0)));
        rw.reads.record("b", Some(Height::new(1, 1)));
        rw.writes.put("a", b"3".to_vec());
        let mut block = Block::assemble(2, [0; 32], vec![tx(1, rw)]);
        let stats = validate_and_commit(&mut block, &mut state, &[], false);
        assert_eq!(stats.reads_checked, 2);
        assert_eq!(stats.writes_applied, 1);
        assert_eq!(stats.successes, 1);
    }
}
