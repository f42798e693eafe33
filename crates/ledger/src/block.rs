//! Blocks: header with hash chaining, transactions, validation codes.
//!
//! Fabric appends *every* transaction of a block — valid or invalid — to
//! the blockchain and records a per-transaction validation code; only
//! valid transactions update the world state (§2.1, step 3).

use std::fmt;
use std::ops::{Deref, Range};

use fabriccrdt_crypto::{merkle, sha256, Digest};

use crate::transaction::Transaction;

/// Why a transaction was accepted or rejected at commit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationCode {
    /// Passed endorsement-policy and MVCC validation.
    Valid,
    /// Read-set version mismatch (§3, "MVCC conflict").
    MvccConflict,
    /// Endorsement policy not satisfied or a signature failed to verify.
    EndorsementPolicyFailure,
    /// A transaction with the same id was already committed.
    DuplicateTxId,
    /// Merged by the FabricCRDT pathway (Algorithm 1) and committed; kept
    /// distinct from [`ValidationCode::Valid`] so experiments can report
    /// merges separately. Counts as successful.
    ValidMerged,
    /// Dropped by the reordering orderer before block formation
    /// (Fabric++-style early abort of unsalvageable conflict cycles —
    /// the baseline of Sharma et al., discussed in the paper's §8).
    EarlyAborted,
    /// The delivered block's data hash did not cover its transactions —
    /// tampering between orderer and peer. The whole block is rejected;
    /// nothing commits.
    TamperedBlock,
}

impl ValidationCode {
    /// Whether the transaction's writes were applied to the world state.
    pub fn is_success(self) -> bool {
        matches!(self, ValidationCode::Valid | ValidationCode::ValidMerged)
    }
}

impl fmt::Display for ValidationCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValidationCode::Valid => "VALID",
            ValidationCode::MvccConflict => "MVCC_READ_CONFLICT",
            ValidationCode::EndorsementPolicyFailure => "ENDORSEMENT_POLICY_FAILURE",
            ValidationCode::DuplicateTxId => "DUPLICATE_TXID",
            ValidationCode::ValidMerged => "VALID_MERGED",
            ValidationCode::EarlyAborted => "EARLY_ABORTED",
            ValidationCode::TamperedBlock => "TAMPERED_BLOCK",
        };
        f.write_str(s)
    }
}

/// Block header: number, previous block hash, data hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block number; the genesis block is 0.
    pub number: u64,
    /// Hash of the previous block's header (all zeroes for genesis).
    pub previous_hash: Digest,
    /// Merkle root over the transactions, each leaf covering the bytes
    /// the block stores it as.
    pub data_hash: Digest,
}

impl BlockHeader {
    /// The header's hash, chained into the next block.
    pub fn hash(&self) -> Digest {
        let mut h = sha256::Sha256::new();
        h.update(&self.number.to_be_bytes());
        h.update(&self.previous_hash);
        h.update(&self.data_hash);
        h.finalize()
    }
}

/// A block: header, transactions and (after commit) validation codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Ordered transactions.
    pub transactions: Vec<Transaction>,
    /// One code per transaction, filled by the committing peer. Empty for
    /// a block fresh from the orderer.
    pub validation_codes: Vec<ValidationCode>,
}

impl Block {
    /// The genesis block: block 0, no transactions. Every chain starts
    /// with it; user transactions begin at block 1, so no committed value
    /// can collide with the `Height::genesis()` version of seeded keys.
    pub fn genesis() -> Self {
        Block::assemble(0, [0; 32], Vec::new())
    }

    /// Assembles a block from ordered transactions, computing the data
    /// hash (orderer step 4 in Figure 1).
    pub fn assemble(number: u64, previous_hash: Digest, transactions: Vec<Transaction>) -> Self {
        let data_hash = Self::compute_data_hash(&transactions);
        Block {
            header: BlockHeader {
                number,
                previous_hash,
                data_hash,
            },
            transactions,
            validation_codes: Vec::new(),
        }
    }

    /// Merkle root over the bytes each transaction is stored and shipped
    /// as ([`Transaction::write_bytes`]), each leaf
    /// `SHA-256(0x00 ‖ SHA-256(response payload) ‖ endorsement bytes)`
    /// so that it shares its inner digest with the signatures. Always
    /// computed from the transactions in hand, never remembered: `Block`'s
    /// fields are public and a delivery layer may hand over a mutated
    /// block, so a stored digest could vouch for bytes it never covered.
    pub fn compute_data_hash(transactions: &[Transaction]) -> Digest {
        data_hash(transactions, |_, _| None)
    }

    /// The block hash (header hash).
    pub fn hash(&self) -> Digest {
        self.header.hash()
    }

    /// Whether the stored data hash matches the transactions.
    pub fn data_hash_is_valid(&self) -> bool {
        Self::compute_data_hash(&self.transactions) == self.header.data_hash
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Count of successfully committed transactions (requires validation
    /// codes to be filled).
    pub fn successful_count(&self) -> usize {
        self.validation_codes
            .iter()
            .filter(|c| c.is_success())
            .count()
    }
}

/// The one leaf loop: `known(i, bytes)` may hand back transaction `i`'s
/// leaf if it hashed exactly `bytes` before; other bytes are hashed.
fn data_hash(txs: &[Transaction], known: impl Fn(usize, &[u8]) -> Option<Digest>) -> Digest {
    let mut bytes = Vec::new();
    let leaves = txs.iter().enumerate().map(|(i, tx)| {
        bytes.clear();
        tx.write_response_payload(&mut bytes);
        let payload_end = bytes.len();
        tx.write_endorsements(&mut bytes);
        known(i, &bytes).unwrap_or_else(|| tx_leaf(&bytes, payload_end).1)
    });
    merkle::root(leaves.collect())
}

/// The leaf of one transaction's `bytes`, whose response
/// payload ends at `payload_end`, and that payload's digest:
/// `SHA-256(0x00 ‖ SHA-256(payload) ‖ endorsement bytes)`.
fn tx_leaf(bytes: &[u8], payload_end: usize) -> (Digest, Digest) {
    let (payload, endorsements) = bytes.split_at(payload_end);
    let digest = sha256::digest(payload);
    (digest, merkle::leaf_of(&[&digest, endorsements]))
}

/// A block whose data hash this process computed over the transactions
/// it holds: built only by [`SealedBlock::seal`],
/// [`SealedBlock::reseal`] or [`SealedBlock::verify`] and read-only
/// afterwards, so
/// [`Blockchain::append_sealed`](crate::chain::Blockchain::append_sealed)
/// need not hash it again. A [`Block`] itself remembers nothing.
///
/// ```compile_fail,E0596
/// # use fabriccrdt_ledger::block::{Block, SealedBlock};
/// SealedBlock::seal(Block::genesis(), [0; 32]).transactions.clear(); // no `DerefMut`
/// ```
/// ```compile_fail,E0423
/// # use fabriccrdt_ledger::block::{Block, SealedBlock};
/// SealedBlock(Block::genesis()); // the field is private
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlock(Block);

impl SealedBlock {
    /// Links `block` to `previous_hash` and computes its data hash over
    /// the transactions in hand.
    pub fn seal(mut block: Block, previous_hash: Digest) -> Self {
        block.header.previous_hash = previous_hash;
        block.header.data_hash = Block::compute_data_hash(&block.transactions);
        SealedBlock(block)
    }

    /// [`SealedBlock::seal`] after Algorithm 1 (line 22): a transaction
    /// whose bytes are still those `ingress` hashed keeps its leaf, any
    /// other is hashed — whatever a validator did, the seal covers it.
    pub fn reseal(mut block: Block, previous_hash: Digest, ingress: &EncodedTransactions) -> Self {
        block.header.previous_hash = previous_hash;
        block.header.data_hash = data_hash(&block.transactions, |i, bytes| ingress.leaf(i, bytes));
        SealedBlock(block)
    }

    /// Admits a block from anywhere else (a file, another replica) by
    /// recomputing its data hash; `None` when it does not match.
    pub fn verify(block: Block) -> Option<Self> {
        block.data_hash_is_valid().then_some(SealedBlock(block))
    }

    /// Gives up the seal.
    pub fn into_block(self) -> Block {
        self.0
    }
}

impl Deref for SealedBlock {
    type Target = Block;

    fn deref(&self) -> &Block {
        &self.0
    }
}

/// A delivered block's transactions in their one layout, encoded once
/// at ingress: the tamper check hashes them, endorsement
/// verification MACs the response-payload digests the leaves were built
/// from, and [`SealedBlock::reseal`] reuses the leaves of unchanged ones.
#[derive(Debug)]
pub struct EncodedTransactions {
    bytes: Vec<u8>,
    /// Per transaction: its bytes in `bytes`, its payload digest, its leaf.
    spans: Vec<(Range<usize>, Digest, Digest)>,
}

impl EncodedTransactions {
    /// Encodes `block`'s transactions back to back, hashing each as it
    /// lands; `None` when the header's data hash does not cover them.
    pub fn verify(block: &Block) -> Option<Self> {
        let (mut bytes, mut spans) = (Vec::new(), Vec::new());
        for tx in &block.transactions {
            let start = bytes.len();
            tx.write_response_payload(&mut bytes);
            let payload_end = bytes.len() - start;
            tx.write_endorsements(&mut bytes);
            let (digest, leaf) = tx_leaf(&bytes[start..], payload_end);
            spans.push((start..bytes.len(), digest, leaf));
        }
        let root = merkle::root(spans.iter().map(|(_, _, leaf)| *leaf).collect());
        (root == block.header.data_hash).then_some(EncodedTransactions { bytes, spans })
    }

    /// The SHA-256 of transaction `index`'s
    /// [`Transaction::response_payload`], as hashed into its leaf: the
    /// digest its endorsements sign.
    pub fn payload_digest(&self, index: usize) -> &Digest {
        &self.spans[index].1
    }

    /// The leaf hashed at ingress for transaction `index`, if `bytes`
    /// are the bytes it was hashed over.
    fn leaf(&self, index: usize, bytes: &[u8]) -> Option<Digest> {
        let (range, _, leaf) = self.spans.get(index)?;
        (self.bytes[range.clone()] == *bytes).then_some(*leaf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::ReadWriteSet;
    use crate::transaction::TxId;
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

    #[test]
    fn data_hash_commits_to_transactions() {
        let block = Block::assemble(1, [0; 32], vec![tx(1), tx(2)]);
        assert!(block.data_hash_is_valid());
        let mut tampered = block.clone();
        tampered.transactions[0]
            .rwset
            .writes
            .put("evil", b"x".to_vec());
        assert!(!tampered.data_hash_is_valid());
    }

    #[test]
    fn header_hash_changes_with_any_field() {
        let a = Block::assemble(1, [0; 32], vec![tx(1)]);
        let b = Block::assemble(2, [0; 32], vec![tx(1)]);
        let c = Block::assemble(1, [1; 32], vec![tx(1)]);
        let d = Block::assemble(1, [0; 32], vec![tx(2)]);
        let hashes = [a.hash(), b.hash(), c.hash(), d.hash()];
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn empty_block_is_well_formed() {
        let block = Block::assemble(0, [0; 32], vec![]);
        assert!(block.is_empty());
        assert!(block.data_hash_is_valid());
        assert_eq!(block.successful_count(), 0);
    }

    #[test]
    fn successful_count_uses_codes() {
        let mut block = Block::assemble(1, [0; 32], vec![tx(1), tx(2), tx(3)]);
        block.validation_codes = vec![
            ValidationCode::Valid,
            ValidationCode::MvccConflict,
            ValidationCode::ValidMerged,
        ];
        assert_eq!(block.successful_count(), 2);
    }

    #[test]
    fn validation_code_success_semantics() {
        assert!(ValidationCode::Valid.is_success());
        assert!(ValidationCode::ValidMerged.is_success());
        assert!(!ValidationCode::MvccConflict.is_success());
        assert!(!ValidationCode::EndorsementPolicyFailure.is_success());
        assert!(!ValidationCode::DuplicateTxId.is_success());
        assert!(!ValidationCode::EarlyAborted.is_success());
        assert!(!ValidationCode::TamperedBlock.is_success());
    }

    #[test]
    fn validation_code_display() {
        assert_eq!(
            ValidationCode::MvccConflict.to_string(),
            "MVCC_READ_CONFLICT"
        );
    }
}
