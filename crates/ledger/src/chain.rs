//! The append-only blockchain.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use fabriccrdt_crypto::Digest;

use crate::block::{Block, SealedBlock};
use crate::version::Height;

/// Error returned when appending a block that does not extend the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The block number is not `last + 1`.
    WrongNumber {
        /// Expected block number.
        expected: u64,
        /// Number carried by the rejected block.
        got: u64,
    },
    /// The previous-hash field does not match the tip.
    BrokenHashChain,
    /// The data hash does not cover the block's transactions.
    BadDataHash,
    /// The record hash does not cover the block's commit record: its
    /// validation codes and converged values.
    BadRecordHash,
    /// A replayed block is missing per-transaction validation codes.
    MissingValidationCodes,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::WrongNumber { expected, got } => {
                write!(f, "expected block number {expected}, got {got}")
            }
            ChainError::BrokenHashChain => write!(f, "previous-hash does not match chain tip"),
            ChainError::BadDataHash => write!(f, "data hash does not cover transactions"),
            ChainError::BadRecordHash => write!(f, "record hash does not cover the commit record"),
            ChainError::MissingValidationCodes => {
                write!(f, "replayed block carries no validation codes")
            }
        }
    }
}

impl Error for ChainError {}

/// An append-only chain of blocks with hash-chain integrity.
///
/// A chain normally starts at genesis (block 0). A chain restored from
/// a snapshot instead *resumes* at a base point ([`Blockchain::resume`]):
/// blocks below `base_number` are not held in memory, but the hash they
/// chained to is, so appends and integrity checks stay anchored.
///
/// Each block sits behind an [`Arc`], so a store can keep a committed
/// block without copying it ([`Blockchain::shared`]).
///
/// # Examples
///
/// ```
/// use fabriccrdt_ledger::{Block, Blockchain};
///
/// let mut chain = Blockchain::new();
/// let block = Block::assemble(0, Blockchain::GENESIS_PREVIOUS_HASH, vec![]);
/// chain.append(block)?;
/// assert_eq!(chain.height(), 1);
/// # Ok::<(), fabriccrdt_ledger::chain::ChainError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Blockchain {
    blocks: Vec<Arc<Block>>,
    /// Number of the first block this chain will hold; blocks below it
    /// were compacted away (0 for a from-genesis chain).
    base_number: u64,
    /// Hash of block `base_number - 1`, i.e. the hash block
    /// `base_number` must chain to ([`Blockchain::GENESIS_PREVIOUS_HASH`]
    /// when `base_number` is 0).
    base_hash: Digest,
}

impl Blockchain {
    /// The previous-hash value of the genesis block.
    pub const GENESIS_PREVIOUS_HASH: Digest = [0; 32];

    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty chain resuming at `base_number`, whose first appended
    /// block must chain to `base_hash` — the tip hash at the snapshot
    /// point a restored peer continues from.
    pub fn resume(base_number: u64, base_hash: Digest) -> Self {
        Blockchain {
            blocks: Vec::new(),
            base_number,
            base_hash,
        }
    }

    /// Number of blocks committed to the chain, including compacted
    /// ones no longer held in memory.
    pub fn height(&self) -> u64 {
        self.base_number + self.blocks.len() as u64
    }

    /// Whether the chain holds no blocks in memory.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of the first block held in memory (0 unless resumed).
    pub fn base_number(&self) -> u64 {
        self.base_number
    }

    /// Hash the first in-memory block chains to — the hash of block
    /// `base_number - 1`, or [`Blockchain::GENESIS_PREVIOUS_HASH`] for
    /// a from-genesis chain.
    pub fn anchor_hash(&self) -> Digest {
        self.base_hash
    }

    /// The latest block.
    pub fn tip(&self) -> Option<&Block> {
        self.blocks.last().map(Arc::as_ref)
    }

    /// Hash the next block must chain to.
    pub fn tip_hash(&self) -> Digest {
        self.tip().map(Block::hash).unwrap_or(self.base_hash)
    }

    /// The block at `number` (`None` when compacted away or not yet
    /// appended).
    pub fn block(&self, number: u64) -> Option<&Block> {
        self.shared(number).map(Arc::as_ref)
    }

    /// The block at `number` as the chain holds it, to be kept elsewhere
    /// without a copy.
    pub fn shared(&self, number: u64) -> Option<&Arc<Block>> {
        let index = number.checked_sub(self.base_number)?;
        self.blocks.get(index as usize)
    }

    /// Iterates the blocks held in memory, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter().map(Arc::as_ref)
    }

    /// Appends a block from an untrusted source:
    /// [`Blockchain::verify_next`], then [`Blockchain::append_sealed`].
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] when the block does not correctly extend
    /// the chain; the chain is left unchanged.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        let sealed = self.verify_next(block)?;
        self.append_sealed(sealed).map(drop)
    }

    /// Checks, without appending, that `block` extends the chain:
    /// number, previous hash, a recomputed record hash, then (the
    /// expensive one, last) a recomputed data hash. The error is the
    /// first check that failed.
    pub fn verify_next(&self, block: impl Into<Arc<Block>>) -> Result<SealedBlock, ChainError> {
        let block = block.into();
        check_link(&block, self.height(), self.tip_hash())?;
        SealedBlock::verify(block)
    }

    /// Appends a block this process hashed itself, checking only number
    /// and previous hash: the type proves the data and record hashes
    /// (debug builds recompute them anyway). Returns the appended block, now the tip. On
    /// error the chain is left unchanged.
    pub fn append_sealed(&mut self, block: SealedBlock) -> Result<&Block, ChainError> {
        check_link(&block, self.height(), self.tip_hash())?;
        debug_assert_eq!(block.check_hashes(), Ok(()), "a sealed block was hashed");
        self.blocks.push(block.into_shared());
        Ok(&self.blocks[self.blocks.len() - 1])
    }

    /// Verifies the integrity of all in-memory blocks, anchored at the
    /// base hash (the genesis anchor for a from-genesis chain).
    pub fn verify_integrity(&self) -> Result<(), ChainError> {
        let mut previous = self.base_hash;
        for (i, block) in self.blocks.iter().enumerate() {
            check_link(block, self.base_number + i as u64, previous)?;
            block.check_hashes()?;
            previous = block.hash();
        }
        Ok(())
    }

    /// Total transactions across the in-memory blocks.
    pub fn total_transactions(&self) -> usize {
        self.iter().map(Block::len).sum()
    }

    /// Every modification of `key` in the blocks this chain holds,
    /// oldest first (Fabric's `GetHistoryForKey`): the writes of
    /// successful transactions in block, then transaction order, a
    /// delete as `None`. Invalid transactions are in the chain but never
    /// touched the state, so they are not in the history. A chain
    /// resumed from a snapshot answers from its base upwards, as a
    /// Fabric peer that joined a channel from a snapshot does.
    pub fn history(&self, key: &str) -> Vec<HistoryEntry> {
        let mut entries = Vec::new();
        for block in &self.blocks {
            let coded = block.transactions.iter().zip(&block.validation_codes);
            for (tx_num, (tx, code)) in coded.enumerate() {
                if !code.is_success() {
                    continue;
                }
                let Some(write) = tx.rwset.writes.get(key) else {
                    continue;
                };
                entries.push(HistoryEntry {
                    height: Height::new(block.header.number, tx_num as u64),
                    value: (!write.is_delete).then(|| block.value_of(tx_num, key, write).to_vec()),
                });
            }
        }
        entries
    }
}

/// One committed modification of a key, as [`Blockchain::history`]
/// reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Height of the committing transaction.
    pub height: Height,
    /// The written value; `None` records a delete.
    pub value: Option<Vec<u8>>,
}

/// The cheap checks: `block` is number `expected` and chains to `previous`.
fn check_link(block: &Block, expected: u64, previous: Digest) -> Result<(), ChainError> {
    if block.header.number != expected {
        return Err(ChainError::WrongNumber {
            expected,
            got: block.header.number,
        });
    }
    if block.header.previous_hash != previous {
        return Err(ChainError::BrokenHashChain);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::ReadWriteSet;
    use crate::transaction::{Transaction, TxId};
    use fabriccrdt_crypto::Identity;

    fn tx(n: u64) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        rwset.writes.put(format!("k{n}"), vec![n as u8]);
        Transaction {
            id: TxId::derive(&client, n, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        }
    }

    fn extend(chain: &mut Blockchain, txs: Vec<Transaction>) {
        let block = Block::assemble(chain.height(), chain.tip_hash(), txs);
        chain.append(block).unwrap();
    }

    #[test]
    fn append_and_verify() {
        let mut chain = Blockchain::new();
        extend(&mut chain, vec![]);
        extend(&mut chain, vec![tx(1), tx(2)]);
        extend(&mut chain, vec![tx(3)]);
        assert_eq!(chain.height(), 3);
        assert_eq!(chain.total_transactions(), 3);
        chain.verify_integrity().unwrap();
    }

    #[test]
    fn wrong_number_rejected() {
        let mut chain = Blockchain::new();
        let block = Block::assemble(5, Blockchain::GENESIS_PREVIOUS_HASH, vec![]);
        assert_eq!(
            chain.append(block).unwrap_err(),
            ChainError::WrongNumber {
                expected: 0,
                got: 5
            }
        );
    }

    #[test]
    fn broken_hash_chain_rejected() {
        let mut chain = Blockchain::new();
        extend(&mut chain, vec![]);
        let block = Block::assemble(1, [9; 32], vec![]);
        assert_eq!(
            chain.append(block).unwrap_err(),
            ChainError::BrokenHashChain
        );
        assert_eq!(chain.height(), 1);
    }

    #[test]
    fn tampered_transactions_rejected() {
        let mut chain = Blockchain::new();
        extend(&mut chain, vec![]);
        let mut block = Block::assemble(1, chain.tip_hash(), vec![tx(1)]);
        let mut transactions = block.transactions.to_vec();
        transactions[0].rwset.writes.put("evil", b"x".to_vec());
        block.transactions = transactions.into();
        assert_eq!(chain.append(block).unwrap_err(), ChainError::BadDataHash);
    }

    /// Cheap checks first: a block wrong in every way reports its
    /// number, then its link, and only then its data hash — through
    /// `append` and `verify_next` alike.
    #[test]
    fn the_first_failed_check_is_reported() {
        let mut chain = Blockchain::new();
        extend(&mut chain, vec![]);
        let mut block = Block::assemble(5, [9; 32], vec![tx(1)]);
        block.header.data_hash = [0xAA; 32];
        let wrong_number = ChainError::WrongNumber {
            expected: 1,
            got: 5,
        };
        assert_eq!(chain.verify_next(block.clone()), Err(wrong_number.clone()));
        assert_eq!(chain.append(block.clone()), Err(wrong_number));
        block.header.number = 1;
        assert_eq!(
            chain.append(block.clone()),
            Err(ChainError::BrokenHashChain)
        );
        block.header.previous_hash = chain.tip_hash();
        assert_eq!(chain.append(block.clone()), Err(ChainError::BadDataHash));
        assert_eq!(chain.height(), 1, "a rejected block leaves the chain alone");
        block.header.data_hash = block.transactions.data_hash();
        assert_eq!(chain.append(block), Ok(()));
    }

    #[test]
    fn sealed_append_still_checks_number_and_link() {
        let mut chain = Blockchain::new();
        extend(&mut chain, vec![]);
        let block = Block::assemble(1, chain.tip_hash(), vec![tx(1)]);
        let misnumbered = SealedBlock::verify(Block::assemble(2, chain.tip_hash(), vec![tx(1)]));
        assert_eq!(
            chain.append_sealed(misnumbered.expect("hash covers")),
            Err(ChainError::WrongNumber {
                expected: 1,
                got: 2
            })
        );
        let unlinked = SealedBlock::seal(block.clone(), [9; 32]);
        assert_eq!(
            chain.append_sealed(unlinked),
            Err(ChainError::BrokenHashChain)
        );
        assert_eq!(chain.height(), 1);
        let sealed = SealedBlock::seal(block, chain.tip_hash());
        let tip = chain.append_sealed(sealed).unwrap().clone();
        assert_eq!(Some(&tip), chain.tip(), "the appended block is the tip");
        chain.verify_integrity().unwrap();
    }

    #[test]
    fn verify_detects_mid_chain_tampering() {
        let mut chain = Blockchain::new();
        extend(&mut chain, vec![tx(1)]);
        extend(&mut chain, vec![tx(2)]);
        chain.verify_integrity().unwrap();
        // Tamper with a committed transaction.
        let block = Arc::make_mut(&mut chain.blocks[0]);
        let mut transactions = block.transactions.to_vec();
        transactions[0].rwset.writes.put("evil", b"x".to_vec());
        block.transactions = transactions.into();
        assert_eq!(
            chain.verify_integrity().unwrap_err(),
            ChainError::BadDataHash
        );
        // The same chain through the codec: decoding re-verifies.
        let error = crate::codec::decode_chain(&crate::codec::encode_chain(&chain)).unwrap_err();
        assert!(error.to_string().starts_with("chain integrity violation"));
    }

    #[test]
    fn block_lookup() {
        let mut chain = Blockchain::new();
        extend(&mut chain, vec![tx(1)]);
        assert_eq!(chain.block(0).unwrap().len(), 1);
        assert!(chain.block(1).is_none());
    }

    #[test]
    fn resumed_chain_anchors_at_base() {
        let mut full = Blockchain::new();
        extend(&mut full, vec![tx(1)]);
        extend(&mut full, vec![tx(2)]);
        let base_hash = full.tip_hash();

        let mut resumed = Blockchain::resume(2, base_hash);
        assert_eq!(resumed.height(), 2);
        assert_eq!(resumed.base_number(), 2);
        assert_eq!(resumed.tip_hash(), base_hash);
        assert!(resumed.block(1).is_none(), "compacted blocks are gone");

        // The next block must chain to the snapshot-point hash.
        let block = Block::assemble(2, base_hash, vec![tx(3)]);
        resumed.append(block).unwrap();
        assert_eq!(resumed.height(), 3);
        assert_eq!(resumed.block(2).unwrap().len(), 1);
        resumed.verify_integrity().unwrap();

        // A wrong anchor is still rejected.
        let bad = Block::assemble(3, [9; 32], vec![]);
        assert_eq!(
            resumed.append(bad).unwrap_err(),
            ChainError::BrokenHashChain
        );
    }
}
