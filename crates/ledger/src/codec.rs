//! Binary encoding of ledger structures.
//!
//! Fabric peers persist blocks to append-only block files; this module
//! provides the equivalent: a versioned, self-describing binary codec
//! for blocks and whole chains, so simulated ledgers can be exported,
//! stored and replayed (see the `late_joining_replica_catches_up`
//! convergence test for why replay matters). Decoding is total — any
//! byte string yields `Ok` or a structured error, never a panic (fuzzed
//! by proptest in `tests/properties.rs`).
//!
//! Every layout is written once, against [`ByteSink`], beside its
//! reader. A transaction has one layout, [`Transaction::write_bytes`]:
//! id ‖ client ‖ chaincode ‖ read-write set ‖ endorsements. A block
//! stores and ships exactly those bytes, and its data-hash leaf covers
//! exactly them too — the response payload its endorsers sign is their
//! prefix up to the endorsement count — so no byte a peer keeps lies
//! outside the hash (DESIGN.md §4.2).
//!
//! Blocks are format v3: the transactions as the orderer cut them, then
//! the commit record — validation codes and Algorithm 1's converged
//! table ([`Block::set_converged`]) — whose digest the header binds into
//! the block hash. Decoding is canonical, record included: whatever
//! decodes re-encodes to the same bytes.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use fabriccrdt_crypto::sha256::Sha256;

use crate::block::{self, Block, BlockHeader, Converged, ValidationCode};
use crate::chain::Blockchain;
use crate::transaction::{Transaction, TxId};
use crate::version::Height;
use crate::worldstate::WorldState;

/// State and transaction-id format version; bump on layout changes.
const FORMAT_VERSION: u8 = 1;

/// Block format version: 3 since the peer's verdicts and converged
/// values sit in a hashed commit record beside the transactions as cut
/// (ledger format v3). No deployed store holds older versions.
const BLOCK_FORMAT_VERSION: u8 = 3;

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

// ------------------------------------------------------------------ sink

/// Where the ledger's encoders write, and the write half of its one
/// byte cursor: big-endian `u64`s, `u64`-length-prefixed byte strings,
/// for transactions, blocks, chains, state, snapshots and store records
/// alike. A `Vec<u8>` keeps the bytes; a `usize` only counts them, so
/// the one writer of a layout also weighs it (a block cut, a catch-up
/// transfer) without encoding anything.
pub trait ByteSink {
    /// Appends `bytes` as they are.
    fn put(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Appends a big-endian `u64`.
    fn u64(&mut self, v: u64) {
        self.put(&v.to_be_bytes());
    }

    /// Appends a `u64` length, then the bytes.
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.put(v);
    }

    /// Appends a string as its UTF-8 [`ByteSink::bytes`].
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a 32-byte digest, unprefixed.
    fn digest(&mut self, v: &[u8; 32]) {
        self.put(v);
    }
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl ByteSink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// Hashes a layout as it is written, with no buffer in between.
impl ByteSink for Sha256 {
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// A value with one stored layout, written once against any
/// [`ByteSink`]: run on a `usize` it weighs the value, run on a
/// `Vec<u8>` it encodes it.
pub(crate) trait Layout {
    /// Appends the value's bytes to `out`.
    fn write(&self, out: &mut impl ByteSink);

    /// The length of [`Layout::encode`]'s output, counted without
    /// encoding.
    fn encoded_len(&self) -> usize {
        let mut len = 0;
        self.write(&mut len);
        len
    }

    /// The value's bytes, in one allocation of exactly their length.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write(&mut out);
        out
    }
}

/// Appends `value`'s layout behind its `u64` length — the bytes
/// [`ByteSink::bytes`] would write for `value.encode()`, with no buffer
/// in between.
pub(crate) fn write_prefixed(out: &mut impl ByteSink, value: &(impl Layout + ?Sized)) {
    out.u64(value.encoded_len() as u64);
    value.write(out);
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

    /// Reads a `u64`-length-prefixed byte string, borrowed.
    fn byte_str(&mut self) -> Result<&'a [u8], DecodeError> {
        let at = self.pos;
        let n = self.u64()? as usize;
        self.take(n, "byte string exceeds input", at)
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        self.byte_str().map(<[u8]>::to_vec)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed.
    pub fn text(&mut self) -> Result<&'a str, DecodeError> {
        let at = self.pos;
        std::str::from_utf8(self.byte_str()?).map_err(|_| DecodeError::new("invalid UTF-8", at))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        self.text().map(str::to_owned)
    }

    /// Reads a string that sorts strictly after `previous`: the next key
    /// of a map stored in key order.
    pub fn str_after(&mut self, previous: Option<&String>) -> Result<String, DecodeError> {
        let at = self.pos;
        let key = self.str()?;
        match previous {
            Some(previous) if key <= *previous => Err(DecodeError::new("keys out of order", at)),
            _ => Ok(key),
        }
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

// ---------------------------------------------------------------- blocks

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

/// A block: header, then each transaction's
/// [`Transaction::write_bytes`] — the bytes its data-hash leaf covers —
/// then the commit record ([`write_record`], the bytes its record hash
/// covers).
impl Layout for Block {
    fn write(&self, out: &mut impl ByteSink) {
        out.u8(BLOCK_FORMAT_VERSION);
        out.u64(self.header.number);
        out.digest(&self.header.previous_hash);
        out.digest(&self.header.data_hash);
        out.digest(&self.header.record_hash);
        out.u64(self.transactions.len() as u64);
        for tx in &self.transactions {
            tx.write_bytes(out);
        }
        write_record(self, out);
    }
}

/// A commit record: the validation codes, counted, one byte each; then
/// the converged table, counted, in key order, each entry its key, its
/// value and its member indices, counted, as `u64`s.
pub(crate) fn write_record(block: &Block, out: &mut impl ByteSink) {
    out.u64(block.validation_codes.len() as u64);
    for &code in &block.validation_codes {
        out.u8(code_to_byte(code));
    }
    out.u64(block.converged.len() as u64);
    for (key, entry) in &block.converged {
        out.str(key);
        out.bytes(&entry.value);
        out.u64(entry.members.len() as u64);
        for &member in &entry.members {
            out.u64(member as u64);
        }
    }
}

/// Reads what [`write_record`] wrote into `block`, and nothing it could
/// not have: no code or one per transaction, keys strictly rising, and
/// each entry's members non-empty, strictly rising, in range and writing
/// the key as a CRDT value.
fn read_record(r: &mut Reader<'_>, block: &mut Block) -> Result<(), DecodeError> {
    let (at, code_count) = (r.pos(), r.len(1)?);
    if ![0, block.len()].contains(&code_count) {
        return Err(DecodeError::new("code count is not the tx count", at));
    }
    for _ in 0..code_count {
        let at = r.pos();
        block.validation_codes.push(code_from_byte(r.u8()?, at)?);
    }
    for _ in 0..r.len(32)? {
        let key = r.str_after(block.converged.keys().next_back())?;
        let value = r.bytes()?;
        let (at, count) = (r.pos(), r.len(8)?);
        if count == 0 {
            return Err(DecodeError::new("converged value with no member", at));
        }
        let mut members: Vec<usize> = Vec::with_capacity(count);
        for _ in 0..count {
            let at = r.pos();
            let member = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
            let rising = members.last().is_none_or(|&last| member > last);
            let tx = block.transactions.get(member);
            if !rising || !tx.is_some_and(|tx| block::merges(tx, &key)) {
                return Err(DecodeError::new("member not a rising CRDT writer", at));
            }
            members.push(member);
        }
        block.converged.insert(key, Converged { value, members });
    }
    Ok(())
}

/// Encodes a block.
pub fn encode_block(block: &Block) -> Vec<u8> {
    block.encode()
}

/// Length of [`encode_block`]'s output, counted without encoding.
pub fn block_len(block: &Block) -> usize {
    block.encoded_len()
}

/// Decodes a block.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated, malformed or
/// wrong-version input, and for a commit record that is not canonical:
/// a code count other than zero or the transaction count, keys out of
/// order, or a converged value whose members are empty, out of order,
/// out of range or not CRDT value writers of its key.
pub fn decode_block(data: &[u8]) -> Result<Block, DecodeError> {
    let mut r = Reader::new(data);
    let version = r.u8()?;
    if version != BLOCK_FORMAT_VERSION {
        return Err(DecodeError::new("unsupported format version", r.pos() - 1));
    }
    let number = r.u64()?;
    let previous_hash = r.digest()?;
    let data_hash = r.digest()?;
    let record_hash = r.digest()?;
    let tx_count = r.len(60)?;
    let mut transactions = Vec::with_capacity(tx_count);
    for _ in 0..tx_count {
        transactions.push(Transaction::read(&mut r)?);
    }
    let mut block = Block {
        header: BlockHeader {
            number,
            previous_hash,
            data_hash,
            record_hash,
        },
        transactions: transactions.into(),
        validation_codes: Vec::new(),
        converged: BTreeMap::new(),
    };
    read_record(&mut r, &mut block)?;
    r.finish()?;
    Ok(block)
}

// ---------------------------------------------------------------- chains

/// A chain: its resume anchor followed by the in-memory blocks, oldest
/// first, each length-prefixed (the anchor is the genesis anchor for a
/// full chain).
impl Layout for Blockchain {
    fn write(&self, out: &mut impl ByteSink) {
        out.u8(CHAIN_FORMAT_VERSION);
        out.u64(self.base_number());
        out.digest(&self.anchor_hash());
        out.u64(self.height() - self.base_number());
        for block in self.iter() {
            out.u64(block.encoded_len() as u64);
            block.write(out);
        }
    }
}

/// Encodes a chain.
pub fn encode_chain(chain: &Blockchain) -> Vec<u8> {
    chain.encode()
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

// ----------------------------------------------------------------- state

/// A world-state snapshot, keys in sorted order.
impl Layout for WorldState {
    fn write(&self, out: &mut impl ByteSink) {
        out.u8(FORMAT_VERSION);
        out.u64(self.len() as u64);
        for (key, entry) in self.iter() {
            out.str(key);
            out.u64(entry.version.block_num);
            out.u64(entry.version.tx_num);
            out.bytes(&entry.value);
        }
    }
}

/// Encodes a world-state snapshot.
pub fn encode_state(state: &WorldState) -> Vec<u8> {
    state.encode()
}

/// Decodes a world-state snapshot.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated, malformed or
/// wrong-version input, and for keys not in strictly rising order (the
/// one order [`encode_state`] writes).
pub fn decode_state(data: &[u8]) -> Result<WorldState, DecodeError> {
    let mut r = Reader::new(data);
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::new("unsupported format version", r.pos() - 1));
    }
    let count = r.len(25)?;
    let mut state = WorldState::new();
    let mut previous = None;
    for _ in 0..count {
        let key = r.str_after(previous.as_ref())?;
        let height = Height::new(r.u64()?, r.u64()?);
        let value = r.bytes()?;
        state.put(key.clone(), value, height);
        previous = Some(key);
    }
    r.finish()?;
    Ok(state)
}

// ------------------------------------------------------- transaction ids

/// A set of transaction ids, in the order given.
impl Layout for [TxId] {
    fn write(&self, out: &mut impl ByteSink) {
        out.u8(FORMAT_VERSION);
        out.u64(self.len() as u64);
        for id in self {
            out.digest(&id.0);
        }
    }
}

/// Encodes a set of transaction ids (callers pass them sorted so the
/// encoding is deterministic).
pub fn encode_txids(ids: &[TxId]) -> Vec<u8> {
    ids.encode()
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
    use crate::rwset::ReadWriteSet;
    use crate::transaction::Endorsement;
    use fabriccrdt_crypto::{Identity, Signature};

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
        let count_offset = 1 + 8 + 32 + 32 + 32;
        bytes[count_offset..count_offset + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(decode_block(&bytes).is_err());
    }

    #[test]
    fn state_snapshot_roundtrip() {
        let mut state = WorldState::new();
        state.put("a".into(), b"1".to_vec(), Height::new(1, 0));
        state.put("z".into(), vec![0xff; 100], Height::new(7, 12));
        state.put("empty".into(), Vec::new(), Height::genesis());
        let decoded = decode_state(&encode_state(&state)).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn empty_state_roundtrip() {
        let state = WorldState::new();
        assert_eq!(decode_state(&encode_state(&state)).unwrap(), state);
    }

    #[test]
    fn state_decode_is_total_on_truncation() {
        let mut state = WorldState::new();
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
