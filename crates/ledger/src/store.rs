//! Pluggable durable ledger storage.
//!
//! Hyperledger Fabric peers persist blocks in an append-only block file
//! and rebuild the state and history indexes by replay (Androulaki et
//! al. §4.4). This module provides the equivalent seam for the
//! simulated peers: a [`LedgerStore`] trait with two backends —
//! [`MemoryStore`] (the status quo, now behind the trait) and
//! [`AofStore`], a real append-only file with length-prefixed records,
//! a content-hash footer per record, and truncate-on-torn-tail
//! recovery.
//!
//! A store holds two record kinds:
//!
//! - **block** records — every committed block, appended in commit
//!   order, encoded with [`codec::encode_block`];
//! - **snapshot** records — periodic [`LedgerSnapshot`]s bundling the
//!   encoded world state, history database, committed transaction ids
//!   and per-key CRDT merge frontiers at a block height.
//!
//! [`LedgerStore::compact_up_to`] drops block records covered by the
//! latest snapshot (never beyond it), bounding store growth; recovery
//! ([`LedgerStore::load`]) hands back the latest snapshot plus the
//! retained block records so a peer can replay the suffix.
//!
//! # Durability model
//!
//! [`AofStore`] flushes after every append but, by default, does not
//! `fsync`: the simulated crash model is process loss, not power loss,
//! and the torn-tail scan handles a partially written final record
//! either way. [`AofStore::open_with_fsync`] upgrades the crash model
//! to power loss: every appended record (and every compaction rewrite)
//! is `fsync`ed before the call returns, at the cost of one
//! `sync_data` per record. On open, records are scanned sequentially
//! and the file is truncated at the first record that is short, fails
//! its footer check, or does not decode — exactly Fabric's block-file
//! recovery behaviour. Truncation is reserved for the *tail*, though:
//! a bad record with a structurally valid record after it cannot be a
//! crashed append, so open reports it as
//! [`StoreError::CorruptRecord`] instead of silently dropping the
//! intact suffix.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use fabriccrdt_crypto::{digest, Digest};

use crate::block::Block;
use crate::codec::{self, DecodeError, Reader, Writer};

/// Snapshot record layout version; bump on layout changes.
const SNAPSHOT_FORMAT_VERSION: u8 = 1;

/// Record kind tag for a block record.
const KIND_BLOCK: u8 = 1;
/// Record kind tag for a snapshot record.
const KIND_SNAPSHOT: u8 = 2;
/// Bytes of the content-hash footer appended to every record.
const FOOTER_LEN: usize = 8;
/// Record header: kind byte + u64 payload length.
const HEADER_LEN: usize = 9;

/// Error from a ledger store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed (append-only-file backend only).
    Io {
        /// The operation that failed (e.g. `"open"`, `"append"`).
        op: &'static str,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A stored payload failed to decode. Only reachable through
    /// [`LedgerStore::load`] on a store whose *validated* records are
    /// inconsistent (e.g. a block record that decodes but references a
    /// different layout version) — torn tails are truncated at open,
    /// not reported.
    Corrupt(DecodeError),
    /// A record *mid-file* failed its content-hash footer or payload
    /// decode while a structurally valid record follows it. That is
    /// in-place corruption (bit rot, a hostile edit), not the torn
    /// tail of a crashed append — truncating here would silently
    /// discard the intact suffix, so open refuses instead.
    CorruptRecord {
        /// Byte offset of the corrupt record in the file.
        offset: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, message } => write!(f, "store {op} failed: {message}"),
            StoreError::Corrupt(e) => write!(f, "store record corrupt: {e}"),
            StoreError::CorruptRecord { offset } => write!(
                f,
                "store record at byte {offset} is corrupt but valid records \
                 follow: in-place corruption, not a torn tail"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Corrupt(e)
    }
}

fn io_err(op: &'static str, e: std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        message: e.to_string(),
    }
}

/// A point-in-time snapshot of a peer's derived ledger state at block
/// `last_block`: everything a restarted or catching-up peer needs short
/// of the block suffix committed after the snapshot.
///
/// The component byte strings are produced by `ledger::codec`
/// (`encode_state`, `encode_history`, `encode_txids`) except
/// `frontiers`, which is opaque to this crate — the fabric layer
/// encodes its per-key CRDT version-vector merge frontiers there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Number of the last block the snapshot covers.
    pub last_block: u64,
    /// Hash of that block — the anchor the retained suffix chains to.
    pub tip_hash: Digest,
    /// Encoded world state ([`codec::encode_state`]).
    pub state: Vec<u8>,
    /// Encoded history database ([`codec::encode_history`]).
    pub history: Vec<u8>,
    /// Encoded committed transaction ids ([`codec::encode_txids`]).
    pub committed_ids: Vec<u8>,
    /// Encoded per-key CRDT merge frontiers (fabric-layer format).
    pub frontiers: Vec<u8>,
}

impl LedgerSnapshot {
    /// Serializes the snapshot as one self-contained byte string.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(SNAPSHOT_FORMAT_VERSION);
        w.u64(self.last_block);
        w.digest(&self.tip_hash);
        w.bytes(&self.state);
        w.bytes(&self.history);
        w.bytes(&self.committed_ids);
        w.bytes(&self.frontiers);
        w.buf
    }

    /// Parses a snapshot serialized by [`LedgerSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated, malformed or
    /// wrong-version input. The component byte strings are *not*
    /// decoded here; their consumers validate them.
    pub fn from_bytes(data: &[u8]) -> Result<LedgerSnapshot, DecodeError> {
        let mut r = Reader::new(data);
        let version = r.u8()?;
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(DecodeError::new("unsupported format version", 0));
        }
        let snapshot = LedgerSnapshot {
            last_block: r.u64()?,
            tip_hash: r.digest()?,
            state: r.bytes()?,
            history: r.bytes()?,
            committed_ids: r.bytes()?,
            frontiers: r.bytes()?,
        };
        r.finish()?;
        Ok(snapshot)
    }

    /// Size of the serialized snapshot in bytes — the cost of shipping
    /// it over the (simulated) wire.
    pub fn encoded_len(&self) -> usize {
        // version + last_block + tip_hash + four length-prefixed strings.
        1 + 8
            + 32
            + 4 * 8
            + self.state.len()
            + self.history.len()
            + self.committed_ids.len()
            + self.frontiers.len()
    }
}

/// Everything a store holds, as loaded by [`LedgerStore::load`]: the
/// latest snapshot (if any) and the retained block records in append
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredLedger {
    /// The most recent snapshot put into the store, if any.
    pub snapshot: Option<LedgerSnapshot>,
    /// Retained blocks, in the order they were appended.
    pub blocks: Vec<Block>,
}

/// Durable ledger storage: append-only block records plus periodic
/// snapshots, with compaction bounded by the latest snapshot.
pub trait LedgerStore: Send {
    /// Appends a committed block record.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot persist the
    /// record.
    fn append_block(&mut self, block: &Block) -> Result<(), StoreError>;

    /// Stores a snapshot record. The latest snapshot (highest
    /// `last_block`; insertion order breaks ties) supersedes earlier
    /// ones for [`LedgerStore::load`] and compaction.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot persist the
    /// record.
    fn put_snapshot(&mut self, snapshot: &LedgerSnapshot) -> Result<(), StoreError>;

    /// Drops block records numbered at or below `block_num`, clamped to
    /// the latest snapshot's `last_block` so recovery always has a
    /// snapshot covering everything it cannot replay. A store without a
    /// snapshot compacts nothing. Superseded snapshot records are
    /// dropped too. Returns the number of block records dropped.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot rewrite itself.
    fn compact_up_to(&mut self, block_num: u64) -> Result<u64, StoreError>;

    /// Loads the latest snapshot and all retained blocks.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when records cannot be read back.
    fn load(&self) -> Result<StoredLedger, StoreError>;

    /// Whether the store retains a block record numbered `number`.
    /// Backends answer this from their in-memory record index, so
    /// callers (e.g. gossip anti-entropy candidate selection) can probe
    /// cheaply without decoding the whole store.
    fn has_block(&self, number: u64) -> bool {
        self.load()
            .map(|stored| stored.blocks.iter().any(|b| b.header.number == number))
            .unwrap_or(false)
    }
}

// ------------------------------------------------------------- memory

/// The in-memory backend: record bytes held in vectors. This is the
/// pre-existing "everything lives in memory" behaviour behind the
/// [`LedgerStore`] seam — records are still *encoded*, so both backends
/// exercise the same codec path and [`LedgerStore::load`] is equally
/// lossy-or-faithful for both.
#[derive(Debug, Default)]
pub struct MemoryStore {
    /// `(block number, encoded block)` in append order.
    blocks: Vec<(u64, Vec<u8>)>,
    /// `(last_block, encoded snapshot)` in append order.
    snapshots: Vec<(u64, Vec<u8>)>,
}

impl MemoryStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

fn latest_snapshot(snapshots: &[(u64, Vec<u8>)]) -> Option<&(u64, Vec<u8>)> {
    snapshots
        .iter()
        .enumerate()
        .max_by_key(|(i, (last_block, _))| (*last_block, *i))
        .map(|(_, entry)| entry)
}

impl LedgerStore for MemoryStore {
    fn append_block(&mut self, block: &Block) -> Result<(), StoreError> {
        self.blocks
            .push((block.header.number, codec::encode_block(block)));
        Ok(())
    }

    fn put_snapshot(&mut self, snapshot: &LedgerSnapshot) -> Result<(), StoreError> {
        self.snapshots
            .push((snapshot.last_block, snapshot.to_bytes()));
        Ok(())
    }

    fn compact_up_to(&mut self, block_num: u64) -> Result<u64, StoreError> {
        let Some(&(snapshot_block, _)) = latest_snapshot(&self.snapshots) else {
            return Ok(0);
        };
        let floor = block_num.min(snapshot_block);
        let before = self.blocks.len();
        self.blocks.retain(|(number, _)| *number > floor);
        if self.snapshots.len() > 1 {
            let keep = latest_snapshot(&self.snapshots).expect("non-empty").clone();
            self.snapshots = vec![keep];
        }
        Ok((before - self.blocks.len()) as u64)
    }

    fn load(&self) -> Result<StoredLedger, StoreError> {
        let snapshot = latest_snapshot(&self.snapshots)
            .map(|(_, bytes)| LedgerSnapshot::from_bytes(bytes))
            .transpose()?;
        let blocks = self
            .blocks
            .iter()
            .map(|(_, bytes)| codec::decode_block(bytes))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StoredLedger { snapshot, blocks })
    }

    fn has_block(&self, number: u64) -> bool {
        self.blocks.iter().any(|(n, _)| *n == number)
    }
}

// ------------------------------------------------------------ aof file

/// One structurally valid record scanned out of an append-only file.
struct RawRecord {
    kind: u8,
    payload: Vec<u8>,
}

/// The total frame length the record header at `pos` claims, when the
/// header itself is plausible (valid kind tag, in-range length) and
/// the claimed frame fits inside `data`. The footer is *not* checked.
fn claimed_frame_len(data: &[u8], pos: usize) -> Option<usize> {
    if data.len() - pos < HEADER_LEN + FOOTER_LEN {
        return None;
    }
    let kind = data[pos];
    if kind != KIND_BLOCK && kind != KIND_SNAPSHOT {
        return None;
    }
    let len_bytes: [u8; 8] = data[pos + 1..pos + 9].try_into().expect("8 bytes");
    let payload_len = usize::try_from(u64::from_be_bytes(len_bytes)).ok()?;
    let total = HEADER_LEN
        .checked_add(payload_len)?
        .checked_add(FOOTER_LEN)?;
    (data.len() - pos >= total).then_some(total)
}

/// The total frame length of a structurally valid record at `pos` —
/// plausible header *and* matching content-hash footer — or `None`.
/// A matching 8-byte footer over arbitrary bytes is a 1-in-2^64
/// accident, so a valid frame right after a bad one means the bad
/// record was corrupted in place rather than torn by a crash.
fn frame_at(data: &[u8], pos: usize) -> Option<usize> {
    let total = claimed_frame_len(data, pos)?;
    let payload = &data[pos + HEADER_LEN..pos + total - FOOTER_LEN];
    let footer = &data[pos + total - FOOTER_LEN..pos + total];
    (footer == &digest(payload)[..FOOTER_LEN]).then_some(total)
}

/// Scans `data` as a sequence of records, returning the decodable
/// prefix and its byte length. Anything after the first short, corrupt
/// or undecodable record is a torn tail — *unless* a structurally
/// valid record follows the bad one, which a crashed append cannot
/// produce: that is in-place corruption and comes back as
/// [`StoreError::CorruptRecord`] so the intact suffix is not silently
/// discarded. (Corruption that destroys the record *header* leaves no
/// trustworthy claimed length to probe past, so it still recovers as
/// a torn tail.)
fn scan_records(data: &[u8]) -> Result<(Vec<RawRecord>, usize), StoreError> {
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let Some(total) = frame_at(data, pos) else {
            // Short frame, bad header, or footer mismatch. If the
            // claimed length points at another valid record, the bytes
            // here were corrupted in place, not torn off by a crash.
            if let Some(claimed) = claimed_frame_len(data, pos) {
                if frame_at(data, pos + claimed).is_some() {
                    return Err(StoreError::CorruptRecord { offset: pos as u64 });
                }
            }
            break;
        };
        let kind = data[pos];
        let payload = &data[pos + HEADER_LEN..pos + total - FOOTER_LEN];
        // Structural checks passed; the payload must also decode, so a
        // record written by a buggy or mismatched writer is treated as
        // the torn tail rather than poisoning recovery later.
        let decodes = match kind {
            KIND_BLOCK => codec::decode_block(payload).is_ok(),
            _ => LedgerSnapshot::from_bytes(payload).is_ok(),
        };
        if !decodes {
            if frame_at(data, pos + total).is_some() {
                return Err(StoreError::CorruptRecord { offset: pos as u64 });
            }
            break;
        }
        records.push(RawRecord {
            kind,
            payload: payload.to_vec(),
        });
        pos += total;
    }
    Ok((records, pos))
}

fn encode_record(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.reserve(HEADER_LEN + payload.len() + FOOTER_LEN);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&digest(payload)[..FOOTER_LEN]);
}

/// The append-only-file backend: one file of self-validating records.
///
/// See the [module docs](self) for the record layout and the
/// durability model.
#[derive(Debug)]
pub struct AofStore {
    path: PathBuf,
    file: fs::File,
    /// `(block number, byte offset in records)` index rebuilt at open
    /// and maintained on append — compaction and load never rescan for
    /// structure, only re-read payloads.
    records: Vec<(u8, u64, Vec<u8>)>,
    /// When set, every append (and every compaction rewrite) is
    /// `fsync`ed before the call returns.
    fsync: bool,
}

impl AofStore {
    /// Opens (creating if absent) the append-only file at `path`,
    /// truncating any torn tail left by a crash mid-append. Appends
    /// flush but do not `fsync`; use [`AofStore::open_with_fsync`] for
    /// power-loss durability.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the file cannot be opened, read
    /// or truncated.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_fsync(path, false)
    }

    /// Opens the append-only file at `path` like [`AofStore::open`],
    /// additionally `fsync`ing every appended record when `fsync` is
    /// set so a power loss cannot lose an acknowledged append.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the file cannot be opened, read
    /// or truncated.
    pub fn open_with_fsync(path: impl AsRef<Path>, fsync: bool) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data).map_err(|e| io_err("read", e))?;
        let (raw, valid_len) = scan_records(&data)?;
        if valid_len < data.len() {
            file.set_len(valid_len as u64)
                .map_err(|e| io_err("truncate", e))?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))
            .map_err(|e| io_err("seek", e))?;
        let records = raw
            .into_iter()
            .map(|r| {
                let marker = match r.kind {
                    KIND_BLOCK => {
                        codec::decode_block(&r.payload)
                            .expect("scan validated payload")
                            .header
                            .number
                    }
                    _ => {
                        LedgerSnapshot::from_bytes(&r.payload)
                            .expect("scan validated payload")
                            .last_block
                    }
                };
                (r.kind, marker, r.payload)
            })
            .collect();
        Ok(AofStore {
            path,
            file,
            records,
            fsync,
        })
    }

    /// The file this store appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether appends are `fsync`ed (power-loss durability mode).
    pub fn fsync_enabled(&self) -> bool {
        self.fsync
    }

    fn append_record(&mut self, kind: u8, marker: u64, payload: Vec<u8>) -> Result<(), StoreError> {
        let mut record = Vec::new();
        encode_record(&mut record, kind, &payload);
        self.file
            .write_all(&record)
            .map_err(|e| io_err("append", e))?;
        self.file.flush().map_err(|e| io_err("flush", e))?;
        if self.fsync {
            self.file.sync_data().map_err(|e| io_err("fsync", e))?;
        }
        self.records.push((kind, marker, payload));
        Ok(())
    }

    fn latest_snapshot_block(&self) -> Option<u64> {
        self.records
            .iter()
            .filter(|(kind, _, _)| *kind == KIND_SNAPSHOT)
            .map(|(_, marker, _)| *marker)
            .max()
    }
}

impl LedgerStore for AofStore {
    fn append_block(&mut self, block: &Block) -> Result<(), StoreError> {
        self.append_record(KIND_BLOCK, block.header.number, codec::encode_block(block))
    }

    fn put_snapshot(&mut self, snapshot: &LedgerSnapshot) -> Result<(), StoreError> {
        self.append_record(KIND_SNAPSHOT, snapshot.last_block, snapshot.to_bytes())
    }

    fn compact_up_to(&mut self, block_num: u64) -> Result<u64, StoreError> {
        let Some(snapshot_block) = self.latest_snapshot_block() else {
            return Ok(0);
        };
        let floor = block_num.min(snapshot_block);
        // Keep the latest snapshot record and every block above the
        // floor, preserving append order.
        let latest_snapshot_index = self
            .records
            .iter()
            .enumerate()
            .filter(|(_, (kind, _, _))| *kind == KIND_SNAPSHOT)
            .max_by_key(|(i, (_, marker, _))| (*marker, *i))
            .map(|(i, _)| i)
            .expect("snapshot exists");
        let keep = |i: usize, (kind, marker, _): &(u8, u64, Vec<u8>)| match *kind {
            KIND_SNAPSHOT => i == latest_snapshot_index,
            _ => *marker > floor,
        };
        if self.records.iter().enumerate().all(|(i, r)| keep(i, r)) {
            return Ok(0);
        }
        // The new file's bytes, framed in place: `self.records` describes
        // the old file until the new one is renamed over it and reopened.
        let mut image = Vec::new();
        let mut dropped_blocks = 0u64;
        for (i, record) in self.records.iter().enumerate() {
            if keep(i, record) {
                encode_record(&mut image, record.0, &record.2);
            } else if record.0 == KIND_BLOCK {
                dropped_blocks += 1;
            }
        }
        // Rewrite through a temp file + rename so a crash mid-compaction
        // leaves either the old or the new file, never a hybrid.
        let tmp_path = self.path.with_extension("compact-tmp");
        let mut tmp = fs::File::create(&tmp_path).map_err(|e| io_err("compact-create", e))?;
        tmp.write_all(&image)
            .map_err(|e| io_err("compact-write", e))?;
        tmp.flush().map_err(|e| io_err("compact-flush", e))?;
        if self.fsync {
            tmp.sync_all().map_err(|e| io_err("compact-fsync", e))?;
        }
        drop(tmp);
        fs::rename(&tmp_path, &self.path).map_err(|e| io_err("compact-rename", e))?;
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("compact-reopen", e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("compact-seek", e))?;
        self.file = file;
        let mut next = 0;
        self.records.retain(|record| {
            next += 1;
            keep(next - 1, record)
        });
        Ok(dropped_blocks)
    }

    fn load(&self) -> Result<StoredLedger, StoreError> {
        let latest = self
            .records
            .iter()
            .enumerate()
            .filter(|(_, (kind, _, _))| *kind == KIND_SNAPSHOT)
            .max_by_key(|(i, (_, marker, _))| (*marker, *i))
            .map(|(_, (_, _, payload))| LedgerSnapshot::from_bytes(payload))
            .transpose()?;
        let blocks = self
            .records
            .iter()
            .filter(|(kind, _, _)| *kind == KIND_BLOCK)
            .map(|(_, _, payload)| codec::decode_block(payload))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StoredLedger {
            snapshot: latest,
            blocks,
        })
    }

    fn has_block(&self, number: u64) -> bool {
        self.records
            .iter()
            .any(|(kind, marker, _)| *kind == KIND_BLOCK && *marker == number)
    }
}

/// Groups loaded blocks by number, last append winning, as a
/// convenience for recovery code that wants ordered, de-duplicated
/// blocks.
pub fn blocks_by_number(blocks: Vec<Block>) -> BTreeMap<u64, Block> {
    let mut by_number = BTreeMap::new();
    for block in blocks {
        by_number.insert(block.header.number, block);
    }
    by_number
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Blockchain;
    use crate::rwset::ReadWriteSet;
    use crate::transaction::{Transaction, TxId};
    use fabriccrdt_crypto::Identity;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "fabriccrdt-store-{}-{tag}-{unique}.aof",
            std::process::id()
        ))
    }

    fn tx(n: u64) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        rwset.writes.put(format!("k{n}"), vec![n as u8; 4]);
        Transaction {
            id: TxId::derive(&client, n, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        }
    }

    /// A small, properly chained block sequence (numbers 0..count).
    fn chained_blocks(count: u64) -> Vec<Block> {
        let mut chain = Blockchain::new();
        for n in 0..count {
            let block = Block::assemble(n, chain.tip_hash(), vec![tx(n + 1)]);
            chain.append(block).unwrap();
        }
        chain.iter().cloned().collect()
    }

    fn sample_snapshot(last_block: u64) -> LedgerSnapshot {
        LedgerSnapshot {
            last_block,
            tip_hash: [last_block as u8; 32],
            state: vec![1, 2, 3],
            history: vec![4, 5],
            committed_ids: vec![6],
            frontiers: vec![7, 8, 9, 10],
        }
    }

    #[test]
    fn snapshot_byte_roundtrip() {
        let snapshot = sample_snapshot(42);
        let bytes = snapshot.to_bytes();
        assert_eq!(bytes.len(), snapshot.encoded_len());
        assert_eq!(LedgerSnapshot::from_bytes(&bytes).unwrap(), snapshot);
        for cut in 0..bytes.len() {
            assert!(LedgerSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(LedgerSnapshot::from_bytes(&wrong_version).is_err());
    }

    #[test]
    fn memory_store_roundtrip_and_compaction() {
        let mut store = MemoryStore::new();
        let blocks = chained_blocks(6);
        for block in &blocks {
            store.append_block(block).unwrap();
        }
        // No snapshot yet: compaction refuses to drop anything.
        assert_eq!(store.compact_up_to(100).unwrap(), 0);
        assert_eq!(store.load().unwrap().blocks, blocks);

        store.put_snapshot(&sample_snapshot(3)).unwrap();
        // Clamped to the snapshot even when asked for more.
        assert_eq!(store.compact_up_to(100).unwrap(), 4);
        let loaded = store.load().unwrap();
        assert_eq!(loaded.snapshot.unwrap().last_block, 3);
        assert_eq!(loaded.blocks, blocks[4..].to_vec());
    }

    #[test]
    fn latest_snapshot_wins() {
        let mut store = MemoryStore::new();
        store.put_snapshot(&sample_snapshot(2)).unwrap();
        store.put_snapshot(&sample_snapshot(5)).unwrap();
        store.put_snapshot(&sample_snapshot(4)).unwrap();
        assert_eq!(store.load().unwrap().snapshot.unwrap().last_block, 5);
    }

    #[test]
    fn aof_roundtrip_across_reopen() {
        let path = temp_path("roundtrip");
        let blocks = chained_blocks(4);
        {
            let mut store = AofStore::open(&path).unwrap();
            for block in &blocks {
                store.append_block(block).unwrap();
            }
            store.put_snapshot(&sample_snapshot(1)).unwrap();
        }
        let store = AofStore::open(&path).unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.blocks, blocks);
        assert_eq!(loaded.snapshot.unwrap(), sample_snapshot(1));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aof_truncates_torn_tail_and_stays_appendable() {
        let path = temp_path("torn");
        let blocks = chained_blocks(3);
        {
            let mut store = AofStore::open(&path).unwrap();
            for block in &blocks {
                store.append_block(block).unwrap();
            }
        }
        // Simulate a crash mid-append: chop bytes off the last record.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        {
            let mut store = AofStore::open(&path).unwrap();
            let loaded = store.load().unwrap();
            assert_eq!(loaded.blocks, blocks[..2].to_vec());
            // The torn bytes are gone from disk, and appends resume
            // cleanly at the truncation point.
            store.append_block(&blocks[2]).unwrap();
        }
        let store = AofStore::open(&path).unwrap();
        assert_eq!(store.load().unwrap().blocks, blocks);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aof_rejects_flipped_footer_bytes() {
        let path = temp_path("footer");
        let blocks = chained_blocks(2);
        {
            let mut store = AofStore::open(&path).unwrap();
            for block in &blocks {
                store.append_block(block).unwrap();
            }
        }
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the *last* record: its footer no
        // longer matches, so recovery truncates that record away.
        let len = bytes.len();
        bytes[len - FOOTER_LEN - 1] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let store = AofStore::open(&path).unwrap();
        assert_eq!(store.load().unwrap().blocks, blocks[..1].to_vec());
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            bytes.len() - (HEADER_LEN + codec::encode_block(&blocks[1]).len() + FOOTER_LEN)
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aof_mid_file_corruption_is_a_typed_error_not_truncation() {
        let path = temp_path("midfile");
        let blocks = chained_blocks(3);
        {
            let mut store = AofStore::open(&path).unwrap();
            for block in &blocks {
                store.append_block(block).unwrap();
            }
        }
        let pristine = fs::read(&path).unwrap();
        let first_frame = HEADER_LEN + codec::encode_block(&blocks[0]).len() + FOOTER_LEN;

        // Flip a payload byte of the *first* record: two intact
        // records still follow, so this is in-place corruption and
        // open must refuse rather than truncate the whole file away.
        let mut bytes = pristine.clone();
        bytes[HEADER_LEN] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            AofStore::open(&path).unwrap_err(),
            StoreError::CorruptRecord { offset: 0 }
        );
        // The failed open left the file untouched for forensics.
        assert_eq!(fs::read(&path).unwrap(), bytes);

        // Same for a corrupt *middle* record — the error names its
        // byte offset.
        let mut bytes = pristine.clone();
        bytes[first_frame + HEADER_LEN] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            AofStore::open(&path).unwrap_err(),
            StoreError::CorruptRecord {
                offset: first_frame as u64
            }
        );

        // The pristine file still opens to all three blocks.
        fs::write(&path, &pristine).unwrap();
        assert_eq!(
            AofStore::open(&path).unwrap().load().unwrap().blocks,
            blocks
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aof_garbage_file_recovers_to_empty() {
        let path = temp_path("garbage");
        fs::write(&path, b"this was never an aof").unwrap();
        let mut store = AofStore::open(&path).unwrap();
        assert_eq!(store.load().unwrap().blocks, Vec::<Block>::new());
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        // Still usable after recovery.
        let blocks = chained_blocks(1);
        store.append_block(&blocks[0]).unwrap();
        assert_eq!(store.load().unwrap().blocks, blocks);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aof_compaction_drops_covered_blocks() {
        let path = temp_path("compact");
        let blocks = chained_blocks(6);
        let mut store = AofStore::open(&path).unwrap();
        for block in &blocks {
            store.append_block(block).unwrap();
        }
        assert_eq!(store.compact_up_to(100).unwrap(), 0, "no snapshot yet");
        store.put_snapshot(&sample_snapshot(2)).unwrap();
        store.put_snapshot(&sample_snapshot(4)).unwrap();
        let before = fs::metadata(&path).unwrap().len();
        assert_eq!(store.compact_up_to(4).unwrap(), 5);
        assert!(fs::metadata(&path).unwrap().len() < before);
        let loaded = store.load().unwrap();
        assert_eq!(loaded.snapshot.unwrap().last_block, 4);
        assert_eq!(loaded.blocks, blocks[5..].to_vec());
        drop(store);
        // The compacted file reopens to the same contents.
        let reopened = AofStore::open(&path).unwrap();
        let loaded = reopened.load().unwrap();
        assert_eq!(loaded.snapshot.unwrap().last_block, 4);
        assert_eq!(loaded.blocks, blocks[5..].to_vec());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aof_failed_compaction_leaves_the_store_on_the_old_file() {
        let path = temp_path("compact-fails");
        let blocks = chained_blocks(5);
        let mut store = AofStore::open(&path).unwrap();
        for block in &blocks[..4] {
            store.append_block(block).unwrap();
        }
        store.put_snapshot(&sample_snapshot(2)).unwrap();
        let before = store.load().unwrap();
        // A directory squatting on the temp path fails the rewrite.
        let squatter = path.with_extension("compact-tmp");
        fs::create_dir(&squatter).unwrap();
        assert!(store.compact_up_to(2).is_err());
        assert_eq!(store.load().unwrap(), before);
        // ... and the handle still appends after its last record.
        store.append_block(&blocks[4]).unwrap();
        let reopened = AofStore::open(&path).unwrap().load().unwrap();
        assert_eq!(reopened.blocks, blocks);
        fs::remove_dir(&squatter).unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aof_fsync_mode_survives_simulated_crash_reopen() {
        let path = temp_path("fsync");
        let blocks = chained_blocks(5);
        {
            let mut store = AofStore::open_with_fsync(&path, true).unwrap();
            assert!(store.fsync_enabled());
            for block in &blocks {
                store.append_block(block).unwrap();
            }
            store.put_snapshot(&sample_snapshot(2)).unwrap();
            assert_eq!(store.compact_up_to(2).unwrap(), 3);
            // Simulated crash: drop the handle with no clean shutdown.
        }
        let store = AofStore::open(&path).unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.snapshot.unwrap().last_block, 2);
        assert_eq!(loaded.blocks, blocks[3..].to_vec());
        // The fsynced file is byte-for-byte what the non-fsync mode
        // writes — the flag changes durability, not the format.
        let other = temp_path("fsync-mirror");
        {
            let mut store = AofStore::open(&other).unwrap();
            for block in &blocks {
                store.append_block(block).unwrap();
            }
            store.put_snapshot(&sample_snapshot(2)).unwrap();
            store.compact_up_to(2).unwrap();
        }
        assert_eq!(fs::read(&path).unwrap(), fs::read(&other).unwrap());
        fs::remove_file(&path).unwrap();
        fs::remove_file(&other).unwrap();
    }

    #[test]
    fn has_block_probes_record_index() {
        let path = temp_path("hasblock");
        let blocks = chained_blocks(4);
        let mut aof = AofStore::open(&path).unwrap();
        let mut memory = MemoryStore::new();
        for block in &blocks {
            aof.append_block(block).unwrap();
            memory.append_block(block).unwrap();
        }
        aof.put_snapshot(&sample_snapshot(1)).unwrap();
        memory.put_snapshot(&sample_snapshot(1)).unwrap();
        aof.compact_up_to(1).unwrap();
        memory.compact_up_to(1).unwrap();
        for n in 0..5 {
            assert_eq!(aof.has_block(n), (2..=3).contains(&n), "aof block {n}");
            assert_eq!(aof.has_block(n), memory.has_block(n), "backends agree");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aof_and_memory_agree() {
        let path = temp_path("agree");
        let blocks = chained_blocks(5);
        let mut aof = AofStore::open(&path).unwrap();
        let mut memory = MemoryStore::new();
        for block in &blocks {
            aof.append_block(block).unwrap();
            memory.append_block(block).unwrap();
        }
        aof.put_snapshot(&sample_snapshot(2)).unwrap();
        memory.put_snapshot(&sample_snapshot(2)).unwrap();
        assert_eq!(
            aof.compact_up_to(2).unwrap(),
            memory.compact_up_to(2).unwrap()
        );
        assert_eq!(aof.load().unwrap(), memory.load().unwrap());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn blocks_by_number_dedups_last_wins() {
        let blocks = chained_blocks(3);
        let mut doubled = blocks.clone();
        doubled.extend(blocks.iter().cloned());
        let by_number = blocks_by_number(doubled);
        assert_eq!(by_number.len(), 3);
        assert_eq!(by_number.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
