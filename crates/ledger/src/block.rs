//! Blocks: header with hash chaining, transactions, and the commit
//! record a peer keeps beside them.
//!
//! Fabric appends *every* transaction of a block — valid or invalid — to
//! the blockchain and records a per-transaction validation code; only
//! valid transactions update the world state (§2.1, step 3).
//!
//! # Ledger format v3: the ordered block and its commit record
//!
//! The transactions stay byte for byte as the orderer cut them, under
//! the orderer's data hash. Beside them, as Fabric keeps its validation
//! flags (arXiv 1801.10228), the peer keeps a commit record: one
//! [`ValidationCode`] per transaction, and Algorithm 1's converged
//! table, each merged key's value once with the transactions that commit
//! it ([`Block::set_converged`], [`Block::value_of`]). The header's
//! `record_hash` binds the record into the block hash, so a re-seal
//! hashes the record and the header, not the transactions.
//!
//! The transactions are one immutable [`Transactions`] list: a clone of
//! a block copies its header and commit record and shares the list, so
//! every replica commits the allocation the orderer cut, and reads the
//! hashes the cut kept on it.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::slice;
use std::sync::{Arc, OnceLock};

use fabriccrdt_crypto::{merkle, sha256, Digest};

use crate::chain::ChainError;
use crate::codec;
use crate::rwset::WriteEntry;
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

/// Block header: number, previous block hash, data hash, record hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block number; the genesis block is 0.
    pub number: u64,
    /// Hash of the previous block's header (all zeroes for genesis).
    pub previous_hash: Digest,
    /// Merkle root over the transactions, each leaf covering the bytes
    /// the block stores it as: the orderer's, kept by every peer.
    pub data_hash: Digest,
    /// SHA-256 of the commit record's stored bytes (validation codes,
    /// then the converged table), filled by the committing peer.
    pub record_hash: Digest,
}

impl BlockHeader {
    /// The header's hash, chained into the next block.
    pub fn hash(&self) -> Digest {
        let mut h = sha256::Sha256::new();
        h.update(&self.number.to_be_bytes());
        h.update(&self.previous_hash);
        h.update(&self.data_hash);
        h.update(&self.record_hash);
        h.finalize()
    }
}

/// A block: header, transactions as ordered, and the commit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Ordered transactions, as the orderer cut them.
    pub transactions: Transactions,
    /// One code per transaction, filled by the committing peer. Empty for
    /// a block fresh from the orderer.
    pub validation_codes: Vec<ValidationCode>,
    /// The converged table, by key. Empty for a block fresh from the
    /// orderer.
    pub(crate) converged: BTreeMap<String, Converged>,
}

/// A block's transactions as the orderer cut them: one immutable list,
/// shared by every clone of the block. It lends `&[Transaction]` and
/// never `&mut`, so one allocation always holds the same bytes, and it
/// keeps what hashing them gave — the payload digests and the root, not
/// the bytes or the leaves — from the first call of
/// [`Transactions::data_hash`] or [`Transactions::payload_digest`] on.
/// Nothing takes a digest from outside: a list built from a `Vec` (a
/// decoded block, a forgery, a validator's own) is hashed from scratch.
///
/// ```compile_fail,E0594
/// # use fabriccrdt_ledger::block::Block;
/// # let mut block = Block::genesis();
/// block.transactions[0].chaincode = String::new(); // no `DerefMut`
/// ```
/// ```compile_fail,E0599
/// # use fabriccrdt_ledger::block::Block;
/// # let mut block = Block::genesis();
/// # let tx = block.transactions[0].clone();
/// block.transactions.push(tx); // no `Vec` behind it
/// ```
#[derive(Clone)]
pub struct Transactions(Arc<List>);

struct List {
    transactions: Box<[Transaction]>,
    hashed: OnceLock<Hashed>,
}

/// Per transaction, the digest of its response payload; and the root.
struct Hashed {
    payload_digests: Box<[Digest]>,
    data_hash: Digest,
}

impl Transactions {
    /// Whether both lists are one allocation: then they hold the same
    /// bytes, since neither can change.
    pub fn shares(&self, other: &Transactions) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The data hash of a block of these transactions: the Merkle root
    /// over the bytes each transaction is stored and shipped as
    /// ([`Transaction::write_bytes`]), each leaf
    /// `SHA-256(0x00 ‖ SHA-256(response payload) ‖ endorsement bytes)`
    /// so that it shares its inner digest with the signatures. Hashed
    /// once per allocation.
    pub fn data_hash(&self) -> Digest {
        self.hashed().data_hash
    }

    /// The SHA-256 of transaction `index`'s
    /// [`Transaction::response_payload`], as hashed into its leaf: the
    /// digest its endorsements sign.
    pub fn payload_digest(&self, index: usize) -> &Digest {
        &self.hashed().payload_digests[index]
    }

    /// The one place the kept hashes are filled: each transaction of
    /// this allocation encoded and hashed, one at a time.
    fn hashed(&self) -> &Hashed {
        self.0.hashed.get_or_init(|| {
            let mut bytes = Vec::new();
            let (payload_digests, leaves): (Vec<Digest>, Vec<Digest>) = self
                .iter()
                .map(|tx| {
                    bytes.clear();
                    tx.write_response_payload(&mut bytes);
                    let digest = sha256::digest(&bytes);
                    let endorsements = bytes.len();
                    tx.write_endorsements(&mut bytes);
                    (digest, merkle::leaf_of(&[&digest, &bytes[endorsements..]]))
                })
                .unzip();
            Hashed {
                payload_digests: payload_digests.into(),
                data_hash: merkle::root(leaves),
            }
        })
    }
}

/// Equal lists hold equal transactions, whatever each has hashed.
impl PartialEq for Transactions {
    fn eq(&self, other: &Transactions) -> bool {
        self.shares(other) || **self == **other
    }
}

impl Eq for Transactions {}

impl fmt::Debug for Transactions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Transactions").field(&&**self).finish()
    }
}

impl Deref for Transactions {
    type Target = [Transaction];

    fn deref(&self) -> &[Transaction] {
        &self.0.transactions
    }
}

/// A fresh allocation, hashed when first asked.
impl From<Vec<Transaction>> for Transactions {
    fn from(transactions: Vec<Transaction>) -> Self {
        Transactions(Arc::new(List {
            transactions: transactions.into(),
            hashed: OnceLock::new(),
        }))
    }
}

/// Copies the list out, for a caller that takes the transactions
/// apart (the reordering orderer's batch).
impl From<Transactions> for Vec<Transaction> {
    fn from(transactions: Transactions) -> Self {
        transactions.to_vec()
    }
}

impl<'a> IntoIterator for &'a Transactions {
    type Item = &'a Transaction;
    type IntoIter = slice::Iter<'a, Transaction>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.transactions.iter()
    }
}

/// One entry of the converged table: a key's converged value
/// (Algorithm 1, line 22) and its members, the indices of the
/// transactions whose CRDT value write of the key commits it, strictly
/// rising and never empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Converged {
    pub(crate) value: Vec<u8>,
    pub(crate) members: Vec<usize>,
}

impl Block {
    /// The genesis block: block 0, no transactions. Every chain starts
    /// with it; user transactions begin at block 1, so no committed value
    /// can collide with the `Height::genesis()` version of seeded keys.
    pub fn genesis() -> Self {
        Block::assemble(0, [0; 32], Vec::new())
    }

    /// Assembles a block from ordered transactions, computing the data
    /// hash (orderer step 4 in Figure 1), which the list keeps for every
    /// replica that receives it, and the hash of its empty commit record.
    pub fn assemble(number: u64, previous_hash: Digest, transactions: Vec<Transaction>) -> Self {
        let transactions = Transactions::from(transactions);
        let mut block = Block {
            header: BlockHeader {
                number,
                previous_hash,
                data_hash: transactions.data_hash(),
                record_hash: [0; 32],
            },
            transactions,
            validation_codes: Vec::new(),
            converged: BTreeMap::new(),
        };
        block.header.record_hash = block.compute_record_hash();
        block
    }

    /// The SHA-256 of the commit record's stored bytes, streamed.
    fn compute_record_hash(&self) -> Digest {
        let mut h = sha256::Sha256::new();
        codec::write_record(self, &mut h);
        h.finalize()
    }

    /// The block hash (header hash).
    pub fn hash(&self) -> Digest {
        self.header.hash()
    }

    /// Whether the header's data hash is the one its transactions hash
    /// to ([`Transactions::data_hash`]).
    pub fn data_hash_is_valid(&self) -> bool {
        self.transactions.data_hash() == self.header.data_hash
    }

    /// `Ok` when the header's record hash covers the commit record and
    /// its data hash the transactions; otherwise the first that does
    /// not, the cheaper record first.
    pub fn check_hashes(&self) -> Result<(), ChainError> {
        if self.compute_record_hash() != self.header.record_hash {
            return Err(ChainError::BadRecordHash);
        }
        if !self.data_hash_is_valid() {
            return Err(ChainError::BadDataHash);
        }
        Ok(())
    }

    /// The bytes `write`, transaction `tx`'s write of `key`, commits:
    /// the converged value when the record names `tx` among the key's
    /// members, its own value otherwise.
    pub fn value_of<'a>(&'a self, tx: usize, key: &str, write: &'a WriteEntry) -> &'a [u8] {
        match self.converged.get(key) {
            Some(entry) if entry.members.binary_search(&tx).is_ok() => &entry.value,
            _ => &write.value,
        }
    }

    /// The member before `tx` among those of `key`'s converged value,
    /// when `tx` is one and not the first: its write committed the very
    /// bytes `tx`'s does.
    pub(crate) fn previous_member(&self, tx: usize, key: &str) -> Option<usize> {
        let members = &self.converged.get(key)?.members;
        let at = members.binary_search(&tx).ok()?;
        at.checked_sub(1).map(|before| members[before])
    }

    /// The converged table, in key order: each key, its converged value
    /// and its members.
    pub fn converged_values(&self) -> impl Iterator<Item = (&str, &[u8], &[usize])> {
        self.converged
            .iter()
            .map(|(k, e)| (k.as_str(), e.value.as_slice(), e.members.as_slice()))
    }

    /// Algorithm 1 line 22: `value` becomes what `key`'s CRDT value
    /// write commits in each of the transactions `members`, held once in
    /// the commit record. Members are sorted and deduplicated, one
    /// without such a write is left out, and a value with no member left
    /// is not held, so the table is always one the decoder admits.
    pub fn set_converged(&mut self, key: String, value: Vec<u8>, mut members: Vec<usize>) {
        members.sort_unstable();
        members.dedup();
        members.retain(|&i| self.transactions.get(i).is_some_and(|tx| merges(tx, &key)));
        if members.is_empty() {
            self.converged.remove(&key);
        } else {
            self.converged.insert(key, Converged { value, members });
        }
    }

    /// Empties the commit record, leaving the block as the orderer cut
    /// it: a peer decides every verdict and converged value itself.
    pub fn clear_record(&mut self) {
        self.validation_codes.clear();
        self.converged.clear();
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

/// Whether `tx` writes `key` as a CRDT value (not a delete): the writes
/// a converged value may stand for.
pub(crate) fn merges(tx: &Transaction, key: &str) -> bool {
    tx.rwset
        .writes
        .get(key)
        .is_some_and(|write| write.is_crdt && !write.is_delete)
}

/// A block whose hashes this process computed over the transactions and
/// record it holds: built only by [`SealedBlock::seal`] or
/// [`SealedBlock::verify`] and read-only afterwards, so
/// [`Blockchain::append_sealed`](crate::chain::Blockchain::append_sealed)
/// need not hash it again. A [`Block`] itself remembers nothing; its
/// transaction list keeps its own hashes ([`Transactions`]).
///
/// ```compile_fail,E0596
/// # use fabriccrdt_ledger::block::{Block, SealedBlock};
/// SealedBlock::seal(Block::genesis(), [0; 32]).validation_codes.clear(); // no `DerefMut`
/// ```
/// ```compile_fail,E0423
/// # use fabriccrdt_ledger::block::{Block, SealedBlock};
/// SealedBlock(Block::genesis()); // the field is private
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlock(Arc<Block>);

impl SealedBlock {
    /// Links `block` to `previous_hash`, sets its data hash to its
    /// list's and hashes its record. Algorithm 1 writes only the record,
    /// so a block that still holds the list the orderer hashed hashes no
    /// transaction here; a list a validator put in the block is a fresh
    /// allocation and is hashed as it is.
    pub fn seal(mut block: Block, previous_hash: Digest) -> Self {
        block.header.data_hash = block.transactions.data_hash();
        block.header.previous_hash = previous_hash;
        block.header.record_hash = block.compute_record_hash();
        SealedBlock(Arc::new(block))
    }

    /// Admits a block from anywhere else (a file, another replica, a
    /// store that shares it) by recomputing its record hash and checking
    /// its data hash ([`Block::check_hashes`], whose error it returns).
    pub fn verify(block: impl Into<Arc<Block>>) -> Result<Self, ChainError> {
        let block = block.into();
        block.check_hashes().map(|()| SealedBlock(block))
    }

    /// Gives up the seal. A shared block is cloned: its header and
    /// record are copied, its transactions shared.
    pub fn into_block(self) -> Block {
        Arc::unwrap_or_clone(self.0)
    }

    /// Gives up the seal, keeping the block shared.
    pub fn into_shared(self) -> Arc<Block> {
        self.0
    }
}

/// Puts a block no chain holds into an allocation of its own, copying
/// its header and record and sharing its transactions.
impl From<&Block> for Arc<Block> {
    fn from(block: &Block) -> Self {
        Arc::new(block.clone())
    }
}

impl Deref for SealedBlock {
    type Target = Block;

    fn deref(&self) -> &Block {
        &self.0
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
        let mut transactions = block.transactions.to_vec();
        transactions[0].rwset.writes.put("evil", b"x".to_vec());
        let mut tampered = block.clone();
        tampered.transactions = transactions.into();
        assert!(!tampered.data_hash_is_valid());
    }

    /// Whether the list's hashes are kept yet.
    fn hashed(transactions: &Transactions) -> bool {
        transactions.0.hashed.get().is_some()
    }

    #[test]
    fn assemble_fills_the_memo_and_every_clone_shares_it() {
        let block = Block::assemble(1, [0; 32], vec![tx(1), tx(2), tx(3)]);
        assert!(hashed(&block.transactions), "the cut hashed the list");
        let replica = block.clone();
        assert!(replica.transactions.shares(&block.transactions));
        assert!(hashed(&replica.transactions));
        assert_eq!(replica.transactions.data_hash(), block.header.data_hash);
    }

    #[test]
    fn a_copied_list_starts_unhashed_and_hashes_to_the_same_root() {
        let block = Block::assemble(1, [0; 32], vec![tx(1), tx(2), tx(3)]);
        let copy = Transactions::from(block.transactions.to_vec());
        assert!(!copy.shares(&block.transactions));
        assert!(!hashed(&copy), "nothing is carried over");
        assert_eq!(copy, block.transactions);
        assert_eq!(copy.data_hash(), block.header.data_hash);
        assert!(hashed(&copy));
        for (i, tx) in block.transactions.iter().enumerate() {
            let digest = sha256::digest(&tx.response_payload());
            assert_eq!(*copy.payload_digest(i), digest);
            assert_eq!(*block.transactions.payload_digest(i), digest);
        }
    }

    #[test]
    fn a_list_is_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Transactions>();
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
