//! Blocks: header with hash chaining, transactions, validation codes.
//!
//! Fabric appends *every* transaction of a block — valid or invalid — to
//! the blockchain and records a per-transaction validation code; only
//! valid transactions update the world state (§2.1, step 3).
//!
//! # Ledger format v2: each converged value once
//!
//! Algorithm 1 (line 22) gives every merged write of a key the key's
//! converged value. A block holds that value once, in a table keyed by
//! the written key ([`Block::install_converged`]), and each merged write
//! carries a reference instead: a flag, with no value bytes
//! ([`WriteEntry::is_converged`]). [`Block::value_of`] resolves it, so
//! every merged transaction still commits the converged value. The
//! table is stored and shipped after the transactions
//! ([`codec::encode_block`](crate::codec::encode_block)), and the data
//! hash covers it with one extra leaf after theirs. A block with no
//! merged write — every block an orderer cuts — has an empty table and
//! no extra leaf, so its hash is the one its transactions alone give.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Deref, Range};

use fabriccrdt_crypto::{merkle, sha256, Digest};

use crate::codec::{ByteSink, DecodeError, Reader};
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

/// Block header: number, previous block hash, data hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block number; the genesis block is 0.
    pub number: u64,
    /// Hash of the previous block's header (all zeroes for genesis).
    pub previous_hash: Digest,
    /// Merkle root over the transactions, each leaf covering the bytes
    /// the block stores it as, then over the converged values if there
    /// are any.
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
    /// Each key's converged value, which the key's merged writes refer
    /// to. Empty for a block fresh from the orderer.
    pub(crate) converged: BTreeMap<String, Vec<u8>>,
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
            converged: BTreeMap::new(),
        }
    }

    /// The data hash of a block of `transactions` with no converged
    /// values, as an orderer cuts it: the Merkle root over the bytes
    /// each transaction is stored and shipped as
    /// ([`Transaction::write_bytes`]), each leaf
    /// `SHA-256(0x00 ‖ SHA-256(response payload) ‖ endorsement bytes)`
    /// so that it shares its inner digest with the signatures. Always
    /// computed from the transactions in hand, never remembered: `Block`'s
    /// fields are public and a delivery layer may hand over a mutated
    /// block, so a stored digest could vouch for bytes it never covered.
    pub fn compute_data_hash(transactions: &[Transaction]) -> Digest {
        data_hash(transactions, &BTreeMap::new(), |_, _| None)
    }

    /// The block hash (header hash).
    pub fn hash(&self) -> Digest {
        self.header.hash()
    }

    /// Whether the stored data hash matches the transactions and the
    /// converged values, and those match the references to them.
    pub fn data_hash_is_valid(&self) -> bool {
        self.references_resolve().is_ok()
            && data_hash(&self.transactions, &self.converged, |_, _| None) == self.header.data_hash
    }

    /// The bytes `write`, a write of `key` by one of this block's
    /// transactions, commits: its own value, or the block's converged
    /// value it refers to. A reference the block cannot resolve (one no
    /// data hash vouches for) reads as empty.
    pub fn value_of<'a>(&'a self, key: &str, write: &'a WriteEntry) -> &'a [u8] {
        if write.is_converged() {
            self.converged.get(key).map_or(&[], Vec::as_slice)
        } else {
            &write.value
        }
    }

    /// The converged values, in key order.
    pub fn converged_values(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.converged
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Algorithm 1 line 22: `value` becomes `key`'s converged value,
    /// and the CRDT value write of `key` in each of the transactions
    /// `members` refers to it instead of carrying a copy.
    pub fn install_converged(&mut self, key: &str, value: Vec<u8>, members: &[usize]) {
        let mut referred = false;
        for &i in members {
            if let Some(tx) = self.transactions.get_mut(i) {
                referred |= tx.rwset.writes.refer_to_converged(key);
            }
        }
        if referred {
            self.converged.insert(key.to_owned(), value);
        }
    }

    /// Puts every converged value back into the writes that refer to it
    /// and empties the table: the block as it was before
    /// [`Block::install_converged`]. A reference with no value to
    /// resolve to gets an empty one.
    pub fn inline_converged(&mut self) {
        let table = std::mem::take(&mut self.converged);
        for tx in &mut self.transactions {
            tx.rwset
                .writes
                .inline_converged(|key| table.get(key).cloned());
        }
    }

    /// `Ok` when the references and the converged values match one for
    /// one in keys: the only blocks
    /// [`codec::decode_block`](crate::codec::decode_block) admits and a
    /// data hash vouches for.
    pub(crate) fn references_resolve(&self) -> Result<(), &'static str> {
        let mut referred = BTreeSet::new();
        for tx in &self.transactions {
            for (key, write) in tx.rwset.writes.iter() {
                if write.is_converged() {
                    if !self.converged.contains_key(key) {
                        return Err("reference to a missing converged value");
                    }
                    referred.insert(key);
                }
            }
        }
        match referred.len() == self.converged.len() {
            true => Ok(()),
            false => Err("unreferenced converged value"),
        }
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

/// The converged values' layout: a count, then each key and value,
/// `u64`-length-prefixed, in key order.
pub(crate) fn write_converged(table: &BTreeMap<String, Vec<u8>>, out: &mut impl ByteSink) {
    out.u64(table.len() as u64);
    for (key, value) in table {
        out.str(key);
        out.bytes(value);
    }
}

/// Reads what [`write_converged`] wrote, keys strictly rising.
pub(crate) fn read_converged(r: &mut Reader<'_>) -> Result<BTreeMap<String, Vec<u8>>, DecodeError> {
    let mut table = BTreeMap::new();
    for _ in 0..r.len(16)? {
        let key = r.str_after(table.keys().next_back())?;
        let value = r.bytes()?;
        table.insert(key, value);
    }
    Ok(table)
}

/// The one leaf loop: `known(i, bytes)` may hand back transaction `i`'s
/// leaf if it hashed exactly `bytes` before; other bytes are hashed.
fn data_hash(
    txs: &[Transaction],
    converged: &BTreeMap<String, Vec<u8>>,
    known: impl Fn(usize, &[u8]) -> Option<Digest>,
) -> Digest {
    let mut bytes = Vec::new();
    let leaves = txs.iter().enumerate().map(|(i, tx)| {
        bytes.clear();
        tx.write_response_payload(&mut bytes);
        let payload_end = bytes.len();
        tx.write_endorsements(&mut bytes);
        known(i, &bytes).unwrap_or_else(|| tx_leaf(&bytes, payload_end).1)
    });
    root(leaves.collect(), converged)
}

/// The Merkle root over the transactions' `leaves`, then the converged
/// values' leaf when there are any:
/// `SHA-256(0x00 ‖ SHA-256(table bytes))`. That leaf hashes 33 bytes
/// where a transaction's hashes at least 41, so neither can stand in
/// for the other.
fn root(mut leaves: Vec<Digest>, converged: &BTreeMap<String, Vec<u8>>) -> Digest {
    if !converged.is_empty() {
        let mut table = sha256::Sha256::new();
        write_converged(converged, &mut table);
        leaves.push(merkle::leaf_of(&[&table.finalize()]));
    }
    merkle::root(leaves)
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
    /// the transactions and converged values in hand. References that
    /// do not resolve are inlined first ([`Block::inline_converged`]), so
    /// whatever a sealed block holds encodes and decodes.
    pub fn seal(block: Block, previous_hash: Digest) -> Self {
        Self::reseal_with(block, previous_hash, |_, _| None)
    }

    /// [`SealedBlock::seal`] after Algorithm 1 (line 22): a transaction
    /// whose bytes are still those `ingress` hashed keeps its leaf, any
    /// other is hashed — whatever a validator did, the seal covers it.
    pub fn reseal(block: Block, previous_hash: Digest, ingress: &EncodedTransactions) -> Self {
        Self::reseal_with(block, previous_hash, |i, bytes| ingress.leaf(i, bytes))
    }

    fn reseal_with(
        mut block: Block,
        previous_hash: Digest,
        known: impl Fn(usize, &[u8]) -> Option<Digest>,
    ) -> Self {
        if block.references_resolve().is_err() {
            block.inline_converged();
        }
        block.header.previous_hash = previous_hash;
        block.header.data_hash = data_hash(&block.transactions, &block.converged, known);
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
    /// lands; `None` when the header's data hash does not cover them and
    /// the block's converged values, or those do not match the
    /// references to them.
    pub fn verify(block: &Block) -> Option<Self> {
        block.references_resolve().ok()?;
        let (mut bytes, mut spans) = (Vec::new(), Vec::new());
        for tx in &block.transactions {
            let start = bytes.len();
            tx.write_response_payload(&mut bytes);
            let payload_end = bytes.len() - start;
            tx.write_endorsements(&mut bytes);
            let (digest, leaf) = tx_leaf(&bytes[start..], payload_end);
            spans.push((start..bytes.len(), digest, leaf));
        }
        let leaves = spans.iter().map(|(_, _, leaf)| *leaf).collect();
        (root(leaves, &block.converged) == block.header.data_hash)
            .then_some(EncodedTransactions { bytes, spans })
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
