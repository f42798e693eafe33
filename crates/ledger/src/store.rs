//! Pluggable durable ledger storage.
//!
//! Hyperledger Fabric peers persist blocks in an append-only block file
//! and rebuild the state index by replay (Androulaki et al. §4.4). This
//! module provides the equivalent seam for the simulated peers: a
//! [`LedgerStore`] trait with two backends —
//! [`MemoryStore`], one in-memory record log, and [`AofStore`], that
//! same log mirrored to a real append-only file with length-prefixed
//! records, a content-hash footer per record, and
//! truncate-on-torn-tail recovery.
//!
//! A store holds two record kinds:
//!
//! - **block** records — every committed block, appended in commit
//!   order, encoded with [`codec::encode_block`]: each transaction is
//!   stored as exactly the bytes the block's data hash covers (the
//!   validation codes, as in Fabric's block metadata, are not);
//! - **snapshot** records — periodic [`LedgerSnapshot`]s bundling the
//!   encoded world state and committed transaction ids at a block
//!   height.
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
use crate::codec::{self, ByteSink, DecodeError, Layout, Reader};

/// Snapshot record layout version; bump on layout changes.
const SNAPSHOT_FORMAT_VERSION: u8 = 3;

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
/// (`encode_state`, `encode_txids`). A snapshot holds no key history:
/// a peer restored from one answers `GetHistoryForKey` from the blocks
/// it commits above `last_block` ([`crate::Blockchain::history`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Number of the last block the snapshot covers.
    pub last_block: u64,
    /// Hash of that block — the anchor the retained suffix chains to.
    pub tip_hash: Digest,
    /// Encoded world state ([`codec::encode_state`]).
    pub state: Vec<u8>,
    /// Encoded committed transaction ids ([`codec::encode_txids`]).
    pub committed_ids: Vec<u8>,
}

impl LedgerSnapshot {
    /// Serializes the snapshot as one self-contained byte string.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode()
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
            committed_ids: r.bytes()?,
        };
        r.finish()?;
        Ok(snapshot)
    }

    /// Size of the serialized snapshot in bytes — the cost of shipping
    /// it over the (simulated) wire.
    pub fn encoded_len(&self) -> usize {
        Layout::encoded_len(self)
    }
}

impl Layout for LedgerSnapshot {
    fn write(&self, out: &mut impl ByteSink) {
        out.u8(SNAPSHOT_FORMAT_VERSION);
        out.u64(self.last_block);
        out.digest(&self.tip_hash);
        out.bytes(&self.state);
        out.bytes(&self.committed_ids);
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

    /// Whether the store retains a block record numbered `number`,
    /// answered from the record index without decoding anything — how
    /// gossip anti-entropy picks helpers cheaply.
    fn has_block(&self, number: u64) -> bool;

    /// The store's head, answered from the record index without
    /// decoding a block: the highest block number any record names (a
    /// block record's number or a snapshot's `last_block`; 0 for an
    /// empty store) and the latest snapshot. Compaction never lowers
    /// the number — it always keeps the latest snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the snapshot cannot be read back.
    fn head(&self) -> Result<(u64, Option<LedgerSnapshot>), StoreError>;
}

// ------------------------------------------------------------- memory

/// One indexed record: kind tag, marker (a block's number or a
/// snapshot's `last_block`) and the encoded payload.
type Record = (u8, u64, Vec<u8>);

/// The in-memory backend, and the record index of [`AofStore`]: every
/// record in append order. Records are held *encoded*, so both backends
/// exercise the same codec path and [`LedgerStore::load`] is equally
/// faithful for both.
#[derive(Debug, Default)]
pub struct MemoryStore {
    records: Vec<Record>,
}

impl MemoryStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the latest snapshot record: highest `last_block`,
    /// append order breaking ties.
    fn latest_snapshot(&self) -> Option<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, (kind, _, _))| *kind == KIND_SNAPSHOT)
            .max_by_key(|(i, (_, marker, _))| (*marker, *i))
            .map(|(i, _)| i)
    }

    /// Which records `compact_up_to(block_num)` keeps, by position: the
    /// latest snapshot and every block above the floor (`block_num`
    /// clamped to that snapshot). `None` when there is no snapshot or
    /// nothing to drop.
    fn keep_set(&self, block_num: u64) -> Option<Vec<bool>> {
        let latest = self.latest_snapshot()?;
        let floor = block_num.min(self.records[latest].1);
        let keep: Vec<bool> = self
            .records
            .iter()
            .enumerate()
            .map(|(i, (kind, marker, _))| match *kind {
                KIND_SNAPSHOT => i == latest,
                _ => *marker > floor,
            })
            .collect();
        keep.contains(&false).then_some(keep)
    }

    /// Drops the records `keep` marks false, returning how many of them
    /// were blocks.
    fn retain(&mut self, keep: &[bool]) -> u64 {
        let mut dropped_blocks = 0;
        let mut flags = keep.iter();
        self.records.retain(|(kind, _, _)| {
            let keep = *flags.next().expect("one flag per record");
            dropped_blocks += u64::from(!keep && *kind == KIND_BLOCK);
            keep
        });
        dropped_blocks
    }
}

impl LedgerStore for MemoryStore {
    fn append_block(&mut self, block: &Block) -> Result<(), StoreError> {
        let payload = codec::encode_block(block);
        self.records
            .push((KIND_BLOCK, block.header.number, payload));
        Ok(())
    }

    fn put_snapshot(&mut self, snapshot: &LedgerSnapshot) -> Result<(), StoreError> {
        self.records
            .push((KIND_SNAPSHOT, snapshot.last_block, snapshot.to_bytes()));
        Ok(())
    }

    fn compact_up_to(&mut self, block_num: u64) -> Result<u64, StoreError> {
        Ok(self
            .keep_set(block_num)
            .map_or(0, |keep| self.retain(&keep)))
    }

    fn load(&self) -> Result<StoredLedger, StoreError> {
        let blocks = self
            .records
            .iter()
            .filter(|(kind, _, _)| *kind == KIND_BLOCK)
            .map(|(_, _, payload)| codec::decode_block(payload))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StoredLedger {
            snapshot: self.head()?.1,
            blocks,
        })
    }

    fn has_block(&self, number: u64) -> bool {
        self.records
            .iter()
            .any(|(kind, marker, _)| *kind == KIND_BLOCK && *marker == number)
    }

    fn head(&self) -> Result<(u64, Option<LedgerSnapshot>), StoreError> {
        let tip = self.records.iter().map(|r| r.1).max().unwrap_or(0);
        let snapshot = self
            .latest_snapshot()
            .map(|i| LedgerSnapshot::from_bytes(&self.records[i].2))
            .transpose()?;
        Ok((tip, snapshot))
    }
}

// ------------------------------------------------------------ aof file

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
/// prefix (each record with the marker its one decode yields; their
/// footers back to back) and its byte length. Anything after the first
/// short, corrupt or undecodable record is a torn tail — *unless* a
/// structurally valid record follows the bad one, which a crashed
/// append cannot produce: that is in-place corruption and comes back as
/// [`StoreError::CorruptRecord`] so the intact suffix is not silently
/// discarded. (Corruption that destroys the record *header* leaves no
/// trustworthy claimed length to probe past, so it still recovers as a
/// torn tail.)
fn scan_records(data: &[u8]) -> Result<(Vec<Record>, Vec<u8>, usize), StoreError> {
    let (mut records, mut footers) = (Vec::new(), Vec::new());
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
        let marker = match kind {
            KIND_BLOCK => codec::decode_block(payload).map(|b| b.header.number),
            _ => LedgerSnapshot::from_bytes(payload).map(|s| s.last_block),
        };
        let Ok(marker) = marker else {
            if frame_at(data, pos + total).is_some() {
                return Err(StoreError::CorruptRecord { offset: pos as u64 });
            }
            break;
        };
        records.push((kind, marker, payload.to_vec()));
        footers.extend_from_slice(&data[pos + total - FOOTER_LEN..pos + total]);
        pos += total;
    }
    Ok((records, footers, pos))
}

fn encode_record(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    frame_record(out, kind, payload, &digest(payload)[..FOOTER_LEN]);
}

/// [`encode_record`] given the footer: the kind byte, the
/// length-prefixed payload, the footer — the frame [`frame_at`] reads.
fn frame_record(out: &mut impl ByteSink, kind: u8, payload: &[u8], footer: &[u8]) {
    out.u8(kind);
    out.bytes(payload);
    out.put(footer);
}

/// The append-only-file backend: a [`MemoryStore`] with one file of
/// self-validating records behind it. Every record is written to the
/// file before it enters the in-memory log, and the log is rebuilt from
/// the file at open — so reads ([`LedgerStore::load`],
/// [`LedgerStore::has_block`], [`LedgerStore::head`]) never touch the
/// file, at the price of holding every retained payload in RAM.
///
/// See the [module docs](self) for the record layout and the
/// durability model.
#[derive(Debug)]
pub struct AofStore {
    path: PathBuf,
    file: fs::File,
    /// What the file holds, record for record.
    log: MemoryStore,
    /// Each `log` record's footer, back to back, so compaction need not hash.
    footers: Vec<u8>,
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
        let (records, footers, valid_len) = scan_records(&data)?;
        if valid_len < data.len() {
            file.set_len(valid_len as u64)
                .map_err(|e| io_err("truncate", e))?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))
            .map_err(|e| io_err("seek", e))?;
        Ok(AofStore {
            path,
            file,
            log: MemoryStore { records },
            footers,
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
        let mut record = Vec::with_capacity(HEADER_LEN + payload.len() + FOOTER_LEN);
        encode_record(&mut record, kind, &payload);
        self.file
            .write_all(&record)
            .map_err(|e| io_err("append", e))?;
        self.file.flush().map_err(|e| io_err("flush", e))?;
        if self.fsync {
            self.file.sync_data().map_err(|e| io_err("fsync", e))?;
        }
        self.footers
            .extend_from_slice(&record[record.len() - FOOTER_LEN..]);
        self.log.records.push((kind, marker, payload));
        Ok(())
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
        let Some(keep) = self.log.keep_set(block_num) else {
            return Ok(0);
        };
        // The new file's bytes, framed in place: the log describes the
        // old file until the new one is renamed over it and reopened.
        let (mut image, mut footers) = (Vec::new(), Vec::new());
        let records = self.log.records.iter().zip(self.footers.chunks(FOOTER_LEN));
        for (((kind, _, payload), footer), _) in records.zip(&keep).filter(|(_, k)| **k) {
            frame_record(&mut image, *kind, payload, footer);
            footers.extend_from_slice(footer);
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
        self.footers = footers;
        Ok(self.log.retain(&keep))
    }

    fn load(&self) -> Result<StoredLedger, StoreError> {
        self.log.load()
    }

    fn has_block(&self, number: u64) -> bool {
        self.log.has_block(number)
    }

    fn head(&self) -> Result<(u64, Option<LedgerSnapshot>), StoreError> {
        self.log.head()
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
mod tests;
