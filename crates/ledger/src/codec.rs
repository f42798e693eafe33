//! Binary encoding of ledger structures.
//!
//! Fabric peers persist blocks to append-only block files; this module
//! provides the equivalent: a versioned, self-describing binary codec
//! for blocks and whole chains, so simulated ledgers can be exported,
//! stored and replayed (see the `late_joining_replica_catches_up`
//! convergence test for why replay matters). Decoding is total — any
//! byte string yields `Ok` or a structured error, never a panic (fuzzed
//! by proptest in `tests/properties.rs`).

use std::error::Error;
use std::fmt;

use fabriccrdt_crypto::{Identity, Signature};

use crate::block::{Block, BlockHeader, ValidationCode};
use crate::chain::Blockchain;
use crate::rwset::ReadWriteSet;
use crate::transaction::{Endorsement, Transaction, TxId};
use crate::version::Height;

/// Codec format version; bump on layout changes.
const FORMAT_VERSION: u8 = 1;

/// Chain-layout format version. Bumped to 2 when chains gained a
/// resume anchor (`base_number` + `base_hash`) so snapshot-restored
/// peers can export their retained suffix; block and state layouts are
/// unchanged and keep [`FORMAT_VERSION`].
const CHAIN_FORMAT_VERSION: u8 = 2;

/// Decoding error with byte-offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: &'static str,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl DecodeError {
    /// Creates a decode error at the given byte offset.
    pub(crate) fn new(message: &'static str, offset: usize) -> Self {
        DecodeError { message, offset }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Error for DecodeError {}

// ---------------------------------------------------------------- writer

/// The write half of the ledger's one byte cursor: big-endian `u64`s,
/// `u64`-length-prefixed byte strings, for blocks, chains, state and
/// snapshots alike.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    /// Everything written so far.
    pub buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u64` length, then the bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a string as its UTF-8 [`Writer::bytes`].
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a 32-byte digest, unprefixed.
    pub fn digest(&mut self, v: &[u8; 32]) {
        self.buf.extend_from_slice(v);
    }
}

// ---------------------------------------------------------------- reader

/// The read half: every method is total on hostile input — it returns
/// a [`DecodeError`] carrying the offset it stopped at, never panics,
/// and never allocates more than the input it was handed.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Offset of the next unread byte — the context a caller's own
    /// [`DecodeError`] should carry.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes, borrowed.
    fn take(&mut self, n: usize, what: &'static str, at: usize) -> Result<&'a [u8], DecodeError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.data.get(self.pos..end))
            .ok_or(DecodeError::new(what, at))?;
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "unexpected end of input", self.pos)?[0])
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let slice = self.take(8, "unexpected end of input", self.pos)?;
        Ok(u64::from_be_bytes(slice.try_into().expect("8 bytes")))
    }

    /// Length read for a collection; bounded by remaining input so a
    /// corrupt length cannot trigger huge allocations.
    pub fn len(&mut self, min_item_size: usize) -> Result<usize, DecodeError> {
        let at = self.pos;
        let n = self.u64()? as usize;
        let remaining = self.data.len() - self.pos;
        if min_item_size > 0 && n > remaining / min_item_size + 1 {
            return Err(DecodeError::new("implausible collection length", at));
        }
        Ok(n)
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let at = self.pos;
        let n = self.u64()? as usize;
        Ok(self.take(n, "byte string exceeds input", at)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let at = self.pos;
        String::from_utf8(self.bytes()?).map_err(|_| DecodeError::new("invalid UTF-8", at))
    }

    /// Reads an unprefixed 32-byte digest.
    pub fn digest(&mut self) -> Result<[u8; 32], DecodeError> {
        let slice = self.take(32, "unexpected end of input", self.pos)?;
        Ok(slice.try_into().expect("32 bytes"))
    }

    /// Succeeds only at the end of the input.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos != self.data.len() {
            return Err(DecodeError::new("trailing bytes after value", self.pos));
        }
        Ok(())
    }
}

// ------------------------------------------------------------- encoding

fn write_identity(w: &mut Writer, identity: &Identity) {
    w.str(&identity.name);
    w.str(&identity.org);
}

fn write_rwset(w: &mut Writer, rwset: &ReadWriteSet) {
    w.u64(rwset.reads.len() as u64);
    for (key, entry) in rwset.reads.iter() {
        w.str(key);
        match entry.version {
            Some(h) => {
                w.u8(1);
                w.u64(h.block_num);
                w.u64(h.tx_num);
            }
            None => w.u8(0),
        }
    }
    w.u64(rwset.writes.len() as u64);
    for (key, entry) in rwset.writes.iter() {
        w.str(key);
        w.u8(u8::from(entry.is_crdt) | (u8::from(entry.is_delete) << 1));
        w.bytes(&entry.value);
    }
}

fn write_transaction(w: &mut Writer, tx: &Transaction) {
    w.digest(&tx.id.0);
    write_identity(w, &tx.client);
    w.str(&tx.chaincode);
    write_rwset(w, &tx.rwset);
    w.u64(tx.endorsements.len() as u64);
    for e in &tx.endorsements {
        write_identity(w, &e.endorser);
        w.digest(&e.signature.0);
    }
}

fn code_to_byte(code: ValidationCode) -> u8 {
    match code {
        ValidationCode::Valid => 0,
        ValidationCode::MvccConflict => 1,
        ValidationCode::EndorsementPolicyFailure => 2,
        ValidationCode::DuplicateTxId => 3,
        ValidationCode::ValidMerged => 4,
        ValidationCode::EarlyAborted => 5,
        ValidationCode::TamperedBlock => 6,
    }
}

fn code_from_byte(b: u8, offset: usize) -> Result<ValidationCode, DecodeError> {
    Ok(match b {
        0 => ValidationCode::Valid,
        1 => ValidationCode::MvccConflict,
        2 => ValidationCode::EndorsementPolicyFailure,
        3 => ValidationCode::DuplicateTxId,
        4 => ValidationCode::ValidMerged,
        5 => ValidationCode::EarlyAborted,
        6 => ValidationCode::TamperedBlock,
        _ => return Err(DecodeError::new("unknown validation code", offset)),
    })
}

/// Encodes a block.
pub fn encode_block(block: &Block) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(FORMAT_VERSION);
    w.u64(block.header.number);
    w.digest(&block.header.previous_hash);
    w.digest(&block.header.data_hash);
    w.u64(block.transactions.len() as u64);
    for tx in &block.transactions {
        write_transaction(&mut w, tx);
    }
    w.u64(block.validation_codes.len() as u64);
    for &code in &block.validation_codes {
        w.u8(code_to_byte(code));
    }
    w.buf
}

/// Encodes a chain: its resume anchor followed by the in-memory blocks,
/// oldest first (the anchor is the genesis anchor for a full chain).
pub fn encode_chain(chain: &Blockchain) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(CHAIN_FORMAT_VERSION);
    w.u64(chain.base_number());
    w.digest(&chain.anchor_hash());
    w.u64(chain.height() - chain.base_number());
    for block in chain.iter() {
        w.bytes(&encode_block(block));
    }
    w.buf
}

// ------------------------------------------------------------- decoding

fn read_identity(r: &mut Reader<'_>) -> Result<Identity, DecodeError> {
    let name = r.str()?;
    let org = r.str()?;
    Ok(Identity::new(name, org))
}

fn read_rwset(r: &mut Reader<'_>) -> Result<ReadWriteSet, DecodeError> {
    let mut rwset = ReadWriteSet::new();
    let reads = r.len(10)?;
    for _ in 0..reads {
        let key = r.str()?;
        let version = match r.u8()? {
            0 => None,
            1 => Some(Height::new(r.u64()?, r.u64()?)),
            _ => return Err(DecodeError::new("invalid version marker", r.pos() - 1)),
        };
        rwset.reads.record(key, version);
    }
    let writes = r.len(17)?;
    for _ in 0..writes {
        let key = r.str()?;
        let flags = r.u8()?;
        if flags > 3 {
            return Err(DecodeError::new("invalid write flags", r.pos() - 1));
        }
        let value = r.bytes()?;
        let entry_is_crdt = flags & 1 != 0;
        let entry_is_delete = flags & 2 != 0;
        if entry_is_delete {
            rwset.writes.delete(key);
        } else if entry_is_crdt {
            rwset.writes.put_crdt(key, value);
        } else {
            rwset.writes.put(key, value);
        }
    }
    Ok(rwset)
}

fn read_transaction(r: &mut Reader<'_>) -> Result<Transaction, DecodeError> {
    let id = TxId(r.digest()?);
    let client = read_identity(r)?;
    let chaincode = r.str()?;
    let rwset = read_rwset(r)?;
    let endorsement_count = r.len(40)?;
    let mut endorsements = Vec::with_capacity(endorsement_count);
    for _ in 0..endorsement_count {
        let endorser = read_identity(r)?;
        let signature = Signature(r.digest()?);
        endorsements.push(Endorsement {
            endorser,
            signature,
        });
    }
    Ok(Transaction {
        id,
        client,
        chaincode,
        rwset,
        endorsements,
    })
}

/// Decodes a block.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated, malformed or
/// wrong-version input.
pub fn decode_block(data: &[u8]) -> Result<Block, DecodeError> {
    let mut r = Reader::new(data);
    let block = decode_block_inner(&mut r)?;
    r.finish()?;
    Ok(block)
}

fn decode_block_inner(r: &mut Reader<'_>) -> Result<Block, DecodeError> {
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::new("unsupported format version", r.pos() - 1));
    }
    let number = r.u64()?;
    let previous_hash = r.digest()?;
    let data_hash = r.digest()?;
    let tx_count = r.len(60)?;
    let mut transactions = Vec::with_capacity(tx_count);
    for _ in 0..tx_count {
        transactions.push(read_transaction(r)?);
    }
    let code_count = r.len(1)?;
    let mut validation_codes = Vec::with_capacity(code_count);
    for _ in 0..code_count {
        let at = r.pos();
        validation_codes.push(code_from_byte(r.u8()?, at)?);
    }
    Ok(Block {
        header: BlockHeader {
            number,
            previous_hash,
            data_hash,
        },
        transactions,
        validation_codes,
    })
}

/// Encodes a world-state snapshot (keys in sorted order).
pub fn encode_state(state: &crate::worldstate::WorldState) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(FORMAT_VERSION);
    w.u64(state.len() as u64);
    for (key, entry) in state.iter() {
        w.str(key);
        w.u64(entry.version.block_num);
        w.u64(entry.version.tx_num);
        w.bytes(&entry.value);
    }
    w.buf
}

/// Decodes a world-state snapshot.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated, malformed or
/// wrong-version input.
pub fn decode_state(data: &[u8]) -> Result<crate::worldstate::WorldState, DecodeError> {
    let mut r = Reader::new(data);
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::new("unsupported format version", r.pos() - 1));
    }
    let count = r.len(25)?;
    let mut state = crate::worldstate::WorldState::new();
    for _ in 0..count {
        let key = r.str()?;
        let height = Height::new(r.u64()?, r.u64()?);
        let value = r.bytes()?;
        state.put(key, value, height);
    }
    r.finish()?;
    Ok(state)
}

/// Decodes a chain and verifies its integrity (hash links, data
/// hashes, numbering).
///
/// # Errors
///
/// Returns a [`DecodeError`] for malformed input; integrity violations
/// surface as `"chain integrity violation"`.
pub fn decode_chain(data: &[u8]) -> Result<Blockchain, DecodeError> {
    let mut r = Reader::new(data);
    let version = r.u8()?;
    if version != CHAIN_FORMAT_VERSION {
        return Err(DecodeError::new("unsupported format version", r.pos() - 1));
    }
    let base_number = r.u64()?;
    let base_hash = r.digest()?;
    if base_number == 0 && base_hash != Blockchain::GENESIS_PREVIOUS_HASH {
        return Err(DecodeError::new(
            "non-genesis anchor at height 0",
            r.pos() - 32,
        ));
    }
    let count = r.len(80)?;
    let mut chain = Blockchain::resume(base_number, base_hash);
    for _ in 0..count {
        let at = r.pos();
        let block_bytes = r.bytes()?;
        let block = decode_block(&block_bytes)?;
        chain
            .append(block)
            .map_err(|_| DecodeError::new("chain integrity violation", at))?;
    }
    r.finish()?;
    Ok(chain)
}

/// Encodes a set of transaction ids (callers pass them sorted so the
/// encoding is deterministic).
pub fn encode_txids(ids: &[TxId]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(FORMAT_VERSION);
    w.u64(ids.len() as u64);
    for id in ids {
        w.digest(&id.0);
    }
    w.buf
}

/// Decodes a set of transaction ids.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated, malformed or
/// wrong-version input.
pub fn decode_txids(data: &[u8]) -> Result<Vec<TxId>, DecodeError> {
    let mut r = Reader::new(data);
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::new("unsupported format version", r.pos() - 1));
    }
    let count = r.len(32)?;
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        ids.push(TxId(r.digest()?));
    }
    r.finish()?;
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx(n: u64) -> Transaction {
        let client = Identity::new("client1", "org1");
        let mut rwset = ReadWriteSet::new();
        rwset.reads.record("seen", Some(Height::new(2, 3)));
        rwset.reads.record("ghost", None);
        rwset.writes.put("plain", vec![n as u8; 3]);
        rwset.writes.put_crdt("doc", br#"{"a":"1"}"#.to_vec());
        rwset.writes.delete("gone");
        Transaction {
            id: TxId::derive(&client, n, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: vec![Endorsement {
                endorser: Identity::new("peer0", "org2"),
                signature: Signature([7; 32]),
            }],
        }
    }

    fn sample_block(n: u64, with_codes: bool) -> Block {
        let mut block = Block::assemble(n, [n as u8; 32], vec![sample_tx(1), sample_tx(2)]);
        if with_codes {
            block.validation_codes = vec![ValidationCode::Valid, ValidationCode::MvccConflict];
        }
        block
    }

    #[test]
    fn block_roundtrip() {
        for with_codes in [false, true] {
            let block = sample_block(5, with_codes);
            let decoded = decode_block(&encode_block(&block)).unwrap();
            assert_eq!(decoded, block);
        }
    }

    #[test]
    fn all_validation_codes_roundtrip() {
        for code in [
            ValidationCode::Valid,
            ValidationCode::MvccConflict,
            ValidationCode::EndorsementPolicyFailure,
            ValidationCode::DuplicateTxId,
            ValidationCode::ValidMerged,
            ValidationCode::EarlyAborted,
            ValidationCode::TamperedBlock,
        ] {
            assert_eq!(code_from_byte(code_to_byte(code), 0).unwrap(), code);
        }
        assert!(code_from_byte(99, 0).is_err());
    }

    #[test]
    fn chain_roundtrip() {
        let mut chain = Blockchain::new();
        chain.append(Block::genesis()).unwrap();
        let b1 = Block::assemble(1, chain.tip_hash(), vec![sample_tx(1)]);
        chain.append(b1).unwrap();
        let b2 = Block::assemble(2, chain.tip_hash(), vec![sample_tx(2)]);
        chain.append(b2).unwrap();

        let decoded = decode_chain(&encode_chain(&chain)).unwrap();
        assert_eq!(decoded.height(), 3);
        assert_eq!(decoded.tip_hash(), chain.tip_hash());
        decoded.verify_integrity().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = encode_block(&sample_block(1, true));
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_block(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_block(&sample_block(1, false));
        bytes.push(0);
        let err = decode_block(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode_block(&sample_block(1, false));
        bytes[0] = 99;
        assert!(decode_block(&bytes).is_err());
    }

    #[test]
    fn corrupt_length_rejected_without_huge_alloc() {
        let mut bytes = encode_block(&sample_block(1, false));
        // Overwrite the transaction count with a huge value.
        let count_offset = 1 + 8 + 32 + 32;
        bytes[count_offset..count_offset + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(decode_block(&bytes).is_err());
    }

    #[test]
    fn state_snapshot_roundtrip() {
        let mut state = crate::worldstate::WorldState::new();
        state.put("a".into(), b"1".to_vec(), Height::new(1, 0));
        state.put("z".into(), vec![0xff; 100], Height::new(7, 12));
        state.put("empty".into(), Vec::new(), Height::genesis());
        let decoded = decode_state(&encode_state(&state)).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn empty_state_roundtrip() {
        let state = crate::worldstate::WorldState::new();
        assert_eq!(decode_state(&encode_state(&state)).unwrap(), state);
    }

    #[test]
    fn state_decode_is_total_on_truncation() {
        let mut state = crate::worldstate::WorldState::new();
        state.put("key".into(), b"value".to_vec(), Height::new(1, 0));
        let bytes = encode_state(&state);
        for cut in 0..bytes.len() {
            assert!(decode_state(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn tampered_chain_fails_integrity() {
        let mut chain = Blockchain::new();
        chain.append(Block::genesis()).unwrap();
        chain
            .append(Block::assemble(1, chain.tip_hash(), vec![sample_tx(1)]))
            .unwrap();
        let mut bytes = encode_chain(&chain);
        // Flip a byte inside the second block's payload region.
        let len = bytes.len();
        bytes[len - 40] ^= 0xff;
        assert!(decode_chain(&bytes).is_err());
    }
}
