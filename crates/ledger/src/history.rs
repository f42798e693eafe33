//! The key history database.
//!
//! Fabric peers maintain a history index alongside the state database so
//! chaincodes can call `GetHistoryForKey` — every value a key has held,
//! with the committing transaction's height. Like Fabric's, this index
//! is derived purely from committed blocks (valid transactions' write
//! sets), so replaying a chain rebuilds it exactly.

use std::collections::BTreeMap;

use crate::block::Block;
use crate::version::Height;

/// One historical modification of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Height of the committing transaction.
    pub height: Height,
    /// The written value; `None` records a delete.
    pub value: Option<Vec<u8>>,
}

/// Append-only per-key modification history, built from committed
/// blocks.
///
/// # Examples
///
/// ```
/// use fabriccrdt_ledger::history::HistoryDb;
///
/// let db = HistoryDb::new();
/// assert!(db.history("never-written").is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryDb {
    entries: BTreeMap<String, Vec<HistoryEntry>>,
}

impl HistoryDb {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes a committed block: every *successful* transaction's
    /// write set is appended in block order. (Invalid transactions are
    /// in the chain but never touched the state, so they are not in the
    /// history — exactly Fabric's behaviour.)
    ///
    /// # Panics
    ///
    /// Panics if the block's validation codes have not been filled.
    pub fn record_block(&mut self, block: &Block) {
        assert_eq!(
            block.validation_codes.len(),
            block.transactions.len(),
            "record_block requires a validated block"
        );
        for (tx_num, (tx, code)) in block
            .transactions
            .iter()
            .zip(&block.validation_codes)
            .enumerate()
        {
            if !code.is_success() {
                continue;
            }
            let height = Height::new(block.header.number, tx_num as u64);
            for (key, entry) in tx.rwset.writes.iter() {
                let value = (!entry.is_delete).then(|| entry.value.clone());
                self.entries
                    .entry(key.clone())
                    .or_default()
                    .push(HistoryEntry { height, value });
            }
        }
    }

    /// The full modification history of `key`, oldest first
    /// (Fabric's `GetHistoryForKey`).
    pub fn history(&self, key: &str) -> &[HistoryEntry] {
        self.entries.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of keys with any history.
    pub fn keys(&self) -> usize {
        self.entries.len()
    }

    /// Iterates `(key, entries)` in key order (for snapshot encoding).
    pub fn iter(&self) -> impl Iterator<Item = (&String, &[HistoryEntry])> {
        self.entries.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Drops every entry committed at block `block_num` or below
    /// (snapshot GC: those modifications are covered by a snapshot all
    /// replicas acknowledged). Keys left without entries are removed.
    /// Returns how many entries were dropped.
    pub fn prune_up_to(&mut self, block_num: u64) -> usize {
        let mut dropped = 0;
        self.entries.retain(|_, entries| {
            let before = entries.len();
            entries.retain(|e| e.height.block_num > block_num);
            dropped += before - entries.len();
            !entries.is_empty()
        });
        dropped
    }

    /// Restores a key's history verbatim (snapshot decoding). Entries
    /// must already be in commit order; empty vectors are ignored so
    /// round-trips stay canonical.
    pub(crate) fn insert_entries(&mut self, key: String, entries: Vec<HistoryEntry>) {
        if !entries.is_empty() {
            self.entries.insert(key, entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::ValidationCode;
    use crate::rwset::ReadWriteSet;
    use crate::transaction::{Transaction, TxId};
    use fabriccrdt_crypto::Identity;

    fn tx(n: u64, key: &str, value: &[u8], delete: bool) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        if delete {
            rwset.writes.delete(key);
        } else {
            rwset.writes.put(key, value.to_vec());
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
    fn records_successful_writes_in_order() {
        let mut db = HistoryDb::new();
        let mut block = Block::assemble(
            1,
            [0; 32],
            vec![tx(1, "k", b"v1", false), tx(2, "k", b"v2", false)],
        );
        block.validation_codes = vec![ValidationCode::Valid, ValidationCode::Valid];
        db.record_block(&block);
        let history = db.history("k");
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].value.as_deref(), Some(&b"v1"[..]));
        assert_eq!(history[0].height, Height::new(1, 0));
        assert_eq!(history[1].value.as_deref(), Some(&b"v2"[..]));
        assert_eq!(history[1].height, Height::new(1, 1));
    }

    #[test]
    fn failed_transactions_leave_no_history() {
        let mut db = HistoryDb::new();
        let mut block = Block::assemble(
            1,
            [0; 32],
            vec![tx(1, "k", b"good", false), tx(2, "k", b"evil", false)],
        );
        block.validation_codes = vec![ValidationCode::Valid, ValidationCode::MvccConflict];
        db.record_block(&block);
        assert_eq!(db.history("k").len(), 1);
    }

    #[test]
    fn deletes_recorded_as_none() {
        let mut db = HistoryDb::new();
        let mut block = Block::assemble(
            1,
            [0; 32],
            vec![tx(1, "k", b"v", false), tx(2, "k", b"", true)],
        );
        block.validation_codes = vec![ValidationCode::Valid, ValidationCode::Valid];
        db.record_block(&block);
        let history = db.history("k");
        assert_eq!(history[1].value, None);
    }

    #[test]
    fn replay_rebuilds_identical_history() {
        let blocks: Vec<Block> = (1..4u64)
            .map(|n| {
                let mut b = Block::assemble(n, [0; 32], vec![tx(n * 2, "k", &[n as u8], false)]);
                b.validation_codes = vec![ValidationCode::Valid];
                b
            })
            .collect();
        let mut a = HistoryDb::new();
        let mut b = HistoryDb::new();
        for block in &blocks {
            a.record_block(block);
        }
        for block in &blocks {
            b.record_block(block);
        }
        assert_eq!(a, b);
        assert_eq!(a.history("k").len(), 3);
    }

    #[test]
    #[should_panic(expected = "validated block")]
    fn unvalidated_block_panics() {
        let block = Block::assemble(1, [0; 32], vec![tx(1, "k", b"v", false)]);
        HistoryDb::new().record_block(&block);
    }

    #[test]
    fn prune_drops_only_covered_blocks() {
        let mut db = HistoryDb::new();
        for n in 1..=4u64 {
            let key = if n % 2 == 0 { "even" } else { "odd" };
            let mut block = Block::assemble(n, [0; 32], vec![tx(n, key, &[n as u8], false)]);
            block.validation_codes = vec![ValidationCode::Valid];
            db.record_block(&block);
        }
        assert_eq!(db.prune_up_to(2), 2);
        assert_eq!(db.keys(), 2);
        assert_eq!(db.history("odd").len(), 1);
        assert_eq!(db.history("odd")[0].height, Height::new(3, 0));
        assert_eq!(db.history("even")[0].height, Height::new(4, 0));
        // Pruning everything removes emptied keys.
        assert_eq!(db.prune_up_to(10), 2);
        assert_eq!(db.keys(), 0);
        assert_eq!(db.prune_up_to(10), 0);
    }
}
