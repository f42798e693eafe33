//! Pluggable durable ledger storage.
//!
//! Hyperledger Fabric peers persist blocks in append-only block files
//! and rebuild the state index by replay (Androulaki et al. §4.4). This
//! module provides the equivalent seam for the simulated peers: a
//! [`LedgerStore`] trait with two backends — [`MemoryStore`], one
//! in-memory record log, and [`AofStore`], that same log mirrored to a
//! run of append-only segment files with length-prefixed,
//! self-validating records and truncate-on-torn-tail recovery.
//!
//! A store holds two record kinds:
//!
//! - **block** records — every committed block, appended in commit
//!   order;
//! - **snapshot** records — periodic [`LedgerSnapshot`]s bundling the
//!   world state and committed transaction ids at a block height.
//!
//! The log holds each record as the value itself: a block as the
//! [`Arc`] it was appended as — the one the committing chain holds
//! ([`crate::Blockchain::shared`]) — and a snapshot as its root, so a
//! store copies no block and decodes nothing to be read. Only an
//! [`AofStore`] makes bytes: [`codec::encode_block`] (the transactions
//! as the orderer cut them and the peer's commit record beside them)
//! and [`LedgerSnapshot::to_bytes`], as it writes a record to a file.
//!
//! [`LedgerStore::compact_up_to`] drops block records covered by the
//! latest snapshot (never beyond it), bounding store growth; recovery
//! ([`LedgerStore::load`]) hands back the latest snapshot plus the
//! retained block records so a peer can replay the suffix.
//!
//! # Segments and footers
//!
//! An [`AofStore`] opened at `peer-0.aof` writes `peer-0.aof` first;
//! each snapshot starts the next segment, `peer-0.aof.1`, `peer-0.aof.2`,
//! …, so the blocks a snapshot covers sit in older segments than it.
//! Compaction unlinks every segment it leaves empty and rewrites, through
//! a temp file and a rename, only one it leaves partly alive. The first
//! segment is emptied in place rather than unlinked: it exists for as
//! long as the run does, so an open that creates it knows the run is new
//! and lists nothing. A record
//! is a kind byte, a `u64` payload length, the payload and an 8-byte
//! footer. A block record's footer is the first 8 bytes of its block
//! hash: ingress and the re-seal already bound every stored byte into
//! that hash, so appending a block hashes no transaction or record byte.
//! A snapshot record's footer is the first 8 bytes of its payload's
//! SHA-256.
//!
//! # Durability model
//!
//! [`AofStore`] writes each record with one `write` but, by default,
//! does not `fsync`: the simulated crash model is process loss, not
//! power loss, and the torn-tail scan handles a partially written final
//! record either way. [`AofStore::open_with_fsync`] upgrades the crash
//! model to power loss: every appended record and compaction rewrite is
//! `fsync`ed before the call returns, and so is the directory after a
//! segment is created, renamed or unlinked. On open, the segments are
//! scanned in order, each record decoded once: a block record must
//! decode, pass [`Block::check_hashes`] and match its footer. The last
//! segment is truncated at the first record that is short or fails —
//! Fabric's block-file recovery behaviour. Truncation is reserved for
//! that *tail*, though: a bad record with a valid record after it, or a
//! bad end to a segment that is not the last, cannot be a crashed
//! append, so open reports it as [`StoreError::CorruptRecord`] instead
//! of silently dropping the intact suffix.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fabriccrdt_crypto::{digest, Digest};

use crate::block::Block;
use crate::codec::{self, ByteSink, DecodeError, Layout, Reader};
use crate::transaction::TxId;
use crate::worldstate::WorldState;

/// Snapshot record layout version; bump on layout changes.
const SNAPSHOT_FORMAT_VERSION: u8 = 3;

/// Record kind tag for a block record.
const KIND_BLOCK: u8 = 1;
/// Record kind tag for a snapshot record.
const KIND_SNAPSHOT: u8 = 2;
/// Bytes of the footer appended to every record.
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
    /// A record failed its footer or payload decode while a valid
    /// record follows it, or a segment other than the last ends in a
    /// bad record. That is in-place corruption (bit rot, a hostile
    /// edit), not the torn tail of a crashed append — truncating here
    /// would silently discard the intact suffix, so open refuses
    /// instead.
    CorruptRecord {
        /// Byte offset of the corrupt record in the segments read end
        /// to end.
        offset: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, message } => write!(f, "store {op} failed: {message}"),
            StoreError::CorruptRecord { offset } => write!(
                f,
                "store record at byte {offset} is corrupt but not the torn \
                 tail of the last segment: in-place corruption"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

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
/// A snapshot is a root, not bytes: `state` shares every node with the
/// state of the peer that took it, and `committed_ids` is shared too,
/// so a clone copies no key, value or id. Its one byte layout is
/// written by [`LedgerSnapshot::to_bytes`] (and weighed by
/// [`LedgerSnapshot::encoded_len`]) and read by
/// [`LedgerSnapshot::from_bytes`]. A snapshot holds no key history: a
/// peer restored from one answers `GetHistoryForKey` from the blocks it
/// commits above `last_block` ([`crate::Blockchain::history`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Number of the last block the snapshot covers.
    pub last_block: u64,
    /// Hash of that block — the anchor the retained suffix chains to.
    pub tip_hash: Digest,
    /// The world state at `last_block`.
    pub state: WorldState,
    /// The committed transaction ids, sorted.
    pub committed_ids: Arc<[TxId]>,
}

impl LedgerSnapshot {
    /// Serializes the snapshot as one self-contained byte string: the
    /// format version, `last_block`, `tip_hash`, then the encoded state
    /// and the encoded id list, each length-prefixed.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode()
    }

    /// Parses a snapshot serialized by [`LedgerSnapshot::to_bytes`],
    /// state and ids included.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated, malformed or
    /// wrong-version input, in the snapshot or in either component.
    pub fn from_bytes(data: &[u8]) -> Result<LedgerSnapshot, DecodeError> {
        let mut r = Reader::new(data);
        let version = r.u8()?;
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(DecodeError::new("unsupported format version", 0));
        }
        let snapshot = LedgerSnapshot {
            last_block: r.u64()?,
            tip_hash: r.digest()?,
            state: codec::decode_state(&r.bytes()?)?,
            committed_ids: codec::decode_txids(&r.bytes()?)?.into(),
        };
        r.finish()?;
        Ok(snapshot)
    }

    /// Size of the serialized snapshot in bytes — the cost of shipping
    /// it over the (simulated) wire — counted without encoding.
    pub fn encoded_len(&self) -> usize {
        Layout::encoded_len(self)
    }
}

impl Layout for LedgerSnapshot {
    fn write(&self, out: &mut impl ByteSink) {
        out.u8(SNAPSHOT_FORMAT_VERSION);
        out.u64(self.last_block);
        out.digest(&self.tip_hash);
        codec::write_prefixed(out, &self.state);
        codec::write_prefixed(out, &*self.committed_ids);
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
    pub blocks: Vec<Arc<Block>>,
}

/// Durable ledger storage: append-only block records plus periodic
/// snapshots, with compaction bounded by the latest snapshot.
pub trait LedgerStore: Send {
    /// Appends a committed block record, keeping `block` itself.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot persist the
    /// record.
    fn append_block(&mut self, block: Arc<Block>) -> Result<(), StoreError>;

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

    /// The latest snapshot and all retained blocks.
    fn load(&self) -> StoredLedger;

    /// The store's head: the highest block number any record names (a
    /// block record's number or a snapshot's `last_block`; 0 for an
    /// empty store) and the latest snapshot. Compaction never lowers
    /// the number — it always keeps the latest snapshot.
    fn head(&self) -> (u64, Option<LedgerSnapshot>);
}

// ------------------------------------------------------------- memory

/// One record as a store's log holds it: the value, not its bytes.
#[derive(Debug)]
enum Record {
    /// A committed block, shared with the chain that committed it.
    Block(Arc<Block>),
    /// A snapshot root.
    Snapshot(LedgerSnapshot),
}

impl Record {
    /// A block's number or a snapshot's `last_block`.
    fn marker(&self) -> u64 {
        match self {
            Record::Block(block) => block.header.number,
            Record::Snapshot(snapshot) => snapshot.last_block,
        }
    }

    /// The kind tag and payload a segment file holds for the record.
    fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Record::Block(block) => (KIND_BLOCK, codec::encode_block(block)),
            Record::Snapshot(snapshot) => (KIND_SNAPSHOT, snapshot.to_bytes()),
        }
    }
}

/// The in-memory backend, and the record index of [`AofStore`]: every
/// record in append order, as the values themselves, so keeping a
/// peer's blocks costs a pointer each.
#[derive(Debug, Default)]
pub struct MemoryStore {
    records: Vec<Record>,
}

impl MemoryStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latest snapshot record and its position: highest
    /// `last_block`, append order breaking ties.
    fn latest_snapshot(&self) -> Option<(usize, &LedgerSnapshot)> {
        let records = self.records.iter().enumerate();
        let snapshots = records.filter_map(|(i, record)| match record {
            Record::Snapshot(snapshot) => Some((i, snapshot)),
            Record::Block(_) => None,
        });
        snapshots.max_by_key(|(i, snapshot)| (snapshot.last_block, *i))
    }

    /// Which records `compact_up_to(block_num)` keeps, by position: the
    /// latest snapshot and every block above the floor (`block_num`
    /// clamped to that snapshot). `None` when there is no snapshot or
    /// nothing to drop.
    fn keep_set(&self, block_num: u64) -> Option<Vec<bool>> {
        let (latest, snapshot) = self.latest_snapshot()?;
        let floor = block_num.min(snapshot.last_block);
        let records = self.records.iter().enumerate();
        let keep: Vec<bool> = records
            .map(|(i, record)| match record {
                Record::Snapshot(_) => i == latest,
                Record::Block(block) => block.header.number > floor,
            })
            .collect();
        keep.contains(&false).then_some(keep)
    }
}

/// How many of `records` that `keep` marks false are blocks.
fn dropped_blocks(records: &[Record], keep: &[bool]) -> u64 {
    let dropped = records
        .iter()
        .zip(keep)
        .filter(|(record, keep)| !**keep && matches!(record, Record::Block(_)));
    dropped.count() as u64
}

/// Drops the items of `items[first..first + keep.len()]` that `keep`
/// marks false.
fn retain_span<T>(items: &mut Vec<T>, first: usize, keep: &[bool]) {
    let mut i = 0;
    items.retain(|_| {
        let kept = i < first || i >= first + keep.len() || keep[i - first];
        i += 1;
        kept
    });
}

impl LedgerStore for MemoryStore {
    fn append_block(&mut self, block: Arc<Block>) -> Result<(), StoreError> {
        self.records.push(Record::Block(block));
        Ok(())
    }

    fn put_snapshot(&mut self, snapshot: &LedgerSnapshot) -> Result<(), StoreError> {
        self.records.push(Record::Snapshot(snapshot.clone()));
        Ok(())
    }

    fn compact_up_to(&mut self, block_num: u64) -> Result<u64, StoreError> {
        let Some(keep) = self.keep_set(block_num) else {
            return Ok(0);
        };
        let dropped = dropped_blocks(&self.records, &keep);
        retain_span(&mut self.records, 0, &keep);
        Ok(dropped)
    }

    fn load(&self) -> StoredLedger {
        let blocks = self.records.iter().filter_map(|record| match record {
            Record::Block(block) => Some(Arc::clone(block)),
            Record::Snapshot(_) => None,
        });
        StoredLedger {
            snapshot: self.head().1,
            blocks: blocks.collect(),
        }
    }

    fn head(&self) -> (u64, Option<LedgerSnapshot>) {
        let tip = self.records.iter().map(Record::marker).max().unwrap_or(0);
        (tip, self.latest_snapshot().map(|(_, s)| s.clone()))
    }
}

// ------------------------------------------------------------ aof file

/// What a temp file is named after the segment it replaces.
const TEMP_SUFFIX: &str = ".compact-tmp";

/// `path` with `suffix` appended to its file name.
fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// Segment `number` of the run that starts at `base`: `base` itself,
/// then `base.1`, `base.2`, ….
fn segment_path(base: &Path, number: u64) -> PathBuf {
    match number {
        0 => base.to_path_buf(),
        n => suffixed(base, &format!(".{n}")),
    }
}

/// The segment number a file name names after the run's base name is
/// stripped from it: `""` is 0, `".<n>"` is `n` for a canonical `n ≥ 1`.
fn segment_number(rest: &[u8]) -> Option<u64> {
    if rest.is_empty() {
        return Some(0);
    }
    let digits = std::str::from_utf8(rest.strip_prefix(b".")?).ok()?;
    let number: u64 = digits.parse().ok()?;
    (number > 0 && number.to_string() == digits).then_some(number)
}

/// The directory `path` names a file in.
fn dir_of(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Lists the directory of the run that starts at `base` once: its
/// segment numbers, ascending, and the temp files a compaction that
/// crashed before its rename left behind.
fn list_run(base: &Path) -> Result<(Vec<u64>, Vec<PathBuf>), StoreError> {
    let missing_name = || StoreError::Io {
        op: "open",
        message: format!("{} names no file", base.display()),
    };
    let name = base
        .file_name()
        .ok_or_else(missing_name)?
        .as_encoded_bytes();
    let (mut numbers, mut temps) = (Vec::new(), Vec::new());
    for entry in fs::read_dir(dir_of(base)).map_err(|e| io_err("list", e))? {
        let entry = entry.map_err(|e| io_err("list", e))?;
        let file_name = entry.file_name();
        let Some(rest) = file_name.as_encoded_bytes().strip_prefix(name) else {
            continue;
        };
        match rest.strip_suffix(TEMP_SUFFIX.as_bytes()) {
            Some(segment) if segment_number(segment).is_some() => {
                if entry.file_type().is_ok_and(|t| t.is_file()) {
                    temps.push(entry.path());
                }
            }
            _ => numbers.extend(segment_number(rest)),
        }
    }
    numbers.sort_unstable();
    Ok((numbers, temps))
}

/// A footer: the first [`FOOTER_LEN`] bytes of `hash`. A block
/// record's is its block hash's, which ingress and the re-seal already
/// bound to every stored byte.
fn footer_of(hash: Digest) -> [u8; FOOTER_LEN] {
    let mut footer = [0; FOOTER_LEN];
    footer.copy_from_slice(&hash[..FOOTER_LEN]);
    footer
}

/// A snapshot record's footer: its payload's SHA-256, cut to a footer.
fn snapshot_footer(payload: &[u8]) -> [u8; FOOTER_LEN] {
    footer_of(digest(payload))
}

/// The frame the record header at `pos` claims — kind, payload, footer
/// and total length — when the kind tag is valid, the length in range
/// and the frame fits inside `data`. Nothing is checked against the
/// footer.
fn claimed_frame(data: &[u8], pos: usize) -> Option<(u8, &[u8], [u8; FOOTER_LEN], usize)> {
    let frame = &data[pos..];
    let kind = *frame.first()?;
    if kind != KIND_BLOCK && kind != KIND_SNAPSHOT {
        return None;
    }
    let payload_len = usize::try_from(Reader::new(frame.get(1..HEADER_LEN)?).u64().ok()?).ok()?;
    let total = HEADER_LEN
        .checked_add(payload_len)?
        .checked_add(FOOTER_LEN)?;
    let (payload, footer) = frame.get(HEADER_LEN..total)?.split_at(payload_len);
    Some((kind, payload, footer.try_into().ok()?, total))
}

/// The record at `pos`, decoded, with its footer and frame length, when
/// its frame is whole and vouches for itself. A block frame must
/// decode, pass [`Block::check_hashes`] and carry its block hash's
/// prefix as its footer; a snapshot frame must carry its payload's
/// SHA-256 prefix and decode. Each record is decoded here once. A
/// footer that matches bytes it was not written for is a 1-in-2^64
/// accident, so a valid record right after a bad one means the bad one
/// was corrupted in place rather than torn by a crash.
fn valid_record(data: &[u8], pos: usize) -> Option<(Record, [u8; FOOTER_LEN], usize)> {
    let (kind, payload, footer, total) = claimed_frame(data, pos)?;
    let record = if kind == KIND_BLOCK {
        let block = codec::decode_block(payload).ok()?;
        if footer != footer_of(block.hash()) || block.check_hashes().is_err() {
            return None;
        }
        Record::Block(Arc::new(block))
    } else {
        if footer != snapshot_footer(payload) {
            return None;
        }
        Record::Snapshot(LedgerSnapshot::from_bytes(payload).ok()?)
    };
    Some((record, footer, total))
}

/// One segment's valid records, read from `data`, appended to `log`
/// and `footers`; returns the byte length they span. The first record
/// that is short, fails its footer or does not decode ends the scan:
/// what follows is a torn tail — *unless* a valid record follows the
/// bad one, which a crashed append cannot produce. That is in-place
/// corruption and comes back as [`StoreError::CorruptRecord`] at
/// `base + pos`, so the intact suffix is not silently discarded.
/// (Corruption that destroys the record *header* leaves no trustworthy
/// claimed length to probe past, so it still reads as a torn tail.)
fn scan_segment(
    data: &[u8],
    base: u64,
    log: &mut Vec<Record>,
    footers: &mut Vec<[u8; FOOTER_LEN]>,
) -> Result<usize, StoreError> {
    let mut pos = 0;
    while pos < data.len() {
        let Some((record, footer, total)) = valid_record(data, pos) else {
            if let Some((.., claimed)) = claimed_frame(data, pos) {
                if valid_record(data, pos + claimed).is_some() {
                    return Err(StoreError::CorruptRecord {
                        offset: base + pos as u64,
                    });
                }
            }
            break;
        };
        log.push(record);
        footers.push(footer);
        pos += total;
    }
    Ok(pos)
}

/// The kind byte, the length-prefixed payload, the footer: the frame
/// [`claimed_frame`] reads.
fn frame_record(out: &mut impl ByteSink, kind: u8, payload: &[u8], footer: &[u8]) {
    out.u8(kind);
    out.bytes(payload);
    out.put(footer);
}

/// One segment file of an [`AofStore`]: its number in the run and how
/// many of the store's records, in order, it holds.
#[derive(Debug, Clone, Copy)]
struct Segment {
    number: u64,
    records: usize,
}

/// The append-only-file backend: a [`MemoryStore`] with a run of
/// segment files of self-validating records behind it. Every record is
/// encoded and written to the last segment before it enters the
/// in-memory log, and the log is decoded from the segments at open — so
/// reads ([`LedgerStore::load`], [`LedgerStore::head`]) never touch a
/// file or decode, and a block appended from a chain is held once, by
/// both.
///
/// The first segment is the path the store is opened with; each
/// [`LedgerStore::put_snapshot`] starts the next, `<path>.1`, `<path>.2`,
/// …, with the snapshot as its first record. Compaction unlinks the
/// segments it leaves empty (emptying the first in place) and rewrites
/// only one it leaves partly alive. See the [module docs](self) for the
/// record layout and the durability model.
#[derive(Debug)]
pub struct AofStore {
    path: PathBuf,
    /// The run, oldest first; never empty.
    segments: Vec<Segment>,
    /// The last segment, open for appends.
    file: fs::File,
    /// What the segments hold, record for record, end to end.
    log: MemoryStore,
    /// Each `log` record's footer, so compaction need not hash.
    footers: Vec<[u8; FOOTER_LEN]>,
    /// When set, every write is `fsync`ed before the call returns.
    fsync: bool,
}

impl AofStore {
    /// Opens (creating it and its directory if absent) the run of
    /// segment files that starts at `path`, truncating any torn tail a
    /// crash left on the last segment and removing any temp file a
    /// crashed compaction left. Appends do not `fsync`; use
    /// [`AofStore::open_with_fsync`] for power-loss durability.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when a segment cannot be listed, opened,
    /// read or truncated, or holds a corrupt record before its end.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_fsync(path, false)
    }

    /// Opens the run at `path` like [`AofStore::open`], additionally
    /// `fsync`ing every write (and the directory after a segment is
    /// created, renamed or unlinked) when `fsync` is set, so a power
    /// loss cannot lose an acknowledged append.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when a segment cannot be listed, opened,
    /// read or truncated, or holds a corrupt record before its end.
    pub fn open_with_fsync(path: impl AsRef<Path>, fsync: bool) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        // The first segment exists for as long as the run does, so
        // creating it means the run is new: nothing to list or read.
        let create = || {
            fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
        };
        let created = match create() {
            Err(e) if e.kind() == ErrorKind::NotFound => {
                fs::create_dir_all(dir_of(&path)).map_err(|e| io_err("create-dir", e))?;
                create()
            }
            created => created,
        };
        match created {
            Ok(file) => {
                let store = AofStore {
                    path,
                    segments: vec![Segment {
                        number: 0,
                        records: 0,
                    }],
                    file,
                    log: MemoryStore::new(),
                    footers: Vec::new(),
                    fsync,
                };
                store.sync_dir()?;
                return Ok(store);
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {}
            Err(e) => return Err(io_err("open", e)),
        }
        let (mut numbers, temps) = list_run(&path)?;
        for temp in temps {
            fs::remove_file(temp).map_err(|e| io_err("remove-temp", e))?;
        }
        let last = numbers.pop().unwrap_or(0);
        let (mut records, mut footers, mut segments) = (Vec::new(), Vec::new(), Vec::new());
        let mut offset = 0u64;
        // A crash tears only the segment being written, the last one:
        // a sealed segment that ends short was corrupted in place.
        for number in numbers {
            let data = fs::read(segment_path(&path, number)).map_err(|e| io_err("read", e))?;
            let before = records.len();
            let valid_len = scan_segment(&data, offset, &mut records, &mut footers)?;
            if valid_len < data.len() {
                return Err(StoreError::CorruptRecord {
                    offset: offset + valid_len as u64,
                });
            }
            offset += data.len() as u64;
            segments.push(Segment {
                number,
                records: records.len() - before,
            });
        }
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(segment_path(&path, last))
            .map_err(|e| io_err("open", e))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data).map_err(|e| io_err("read", e))?;
        let before = records.len();
        let valid_len = scan_segment(&data, offset, &mut records, &mut footers)?;
        // Reading left the cursor at the end; a truncation moves it back.
        if valid_len < data.len() {
            file.set_len(valid_len as u64)
                .map_err(|e| io_err("truncate", e))?;
            file.seek(SeekFrom::Start(valid_len as u64))
                .map_err(|e| io_err("seek", e))?;
        }
        segments.push(Segment {
            number: last,
            records: records.len() - before,
        });
        Ok(AofStore {
            path,
            segments,
            file,
            log: MemoryStore { records },
            footers,
            fsync,
        })
    }

    /// The path the store was opened with, where its run of segments
    /// starts.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether writes are `fsync`ed (power-loss durability mode).
    pub fn fsync_enabled(&self) -> bool {
        self.fsync
    }

    /// In power-loss mode, makes the directory's entries durable after
    /// a segment was created, renamed or unlinked.
    fn sync_dir(&self) -> Result<(), StoreError> {
        if !self.fsync {
            return Ok(());
        }
        fs::File::open(dir_of(&self.path))
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("fsync-dir", e))
    }

    /// Writes `record` to the last segment, with the footer `footer`
    /// makes of its payload, then enters it in the log.
    fn append_record(
        &mut self,
        record: Record,
        footer: impl FnOnce(&[u8]) -> [u8; FOOTER_LEN],
    ) -> Result<(), StoreError> {
        let (kind, payload) = record.encode();
        let footer = footer(&payload);
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + FOOTER_LEN);
        frame_record(&mut frame, kind, &payload, &footer);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append", e))?;
        if self.fsync {
            self.file.sync_data().map_err(|e| io_err("fsync", e))?;
        }
        self.footers.push(footer);
        self.log.records.push(record);
        if let Some(last) = self.segments.last_mut() {
            last.records += 1;
        }
        Ok(())
    }

    /// Rewrites segment `s`, whose records start at log index `first`,
    /// with only the records `keep` marks: a temp file, then a rename
    /// over the segment, so a crash leaves the old segment or the new
    /// one, never a hybrid. The log follows once the rename lands.
    fn rewrite(&mut self, s: usize, first: usize, keep: &[bool]) -> Result<(), StoreError> {
        let path = segment_path(&self.path, self.segments[s].number);
        let temp_path = suffixed(&path, TEMP_SUFFIX);
        let mut image = Vec::new();
        let span = first..first + keep.len();
        let records = self.log.records[span.clone()]
            .iter()
            .zip(&self.footers[span]);
        for ((record, footer), _) in records.zip(keep).filter(|(_, k)| **k) {
            let (kind, payload) = record.encode();
            frame_record(&mut image, kind, &payload, footer);
        }
        let mut temp = fs::File::create(&temp_path).map_err(|e| io_err("compact-create", e))?;
        temp.write_all(&image)
            .map_err(|e| io_err("compact-write", e))?;
        if self.fsync {
            temp.sync_all().map_err(|e| io_err("compact-fsync", e))?;
        }
        fs::rename(&temp_path, &path).map_err(|e| io_err("compact-rename", e))?;
        retain_span(&mut self.log.records, first, keep);
        retain_span(&mut self.footers, first, keep);
        self.segments[s].records = keep.iter().filter(|k| **k).count();
        if s + 1 == self.segments.len() {
            // The renamed file is the one this handle wrote, at its end.
            self.file = temp;
        }
        Ok(())
    }
}

impl LedgerStore for AofStore {
    fn append_block(&mut self, block: Arc<Block>) -> Result<(), StoreError> {
        let footer = footer_of(block.hash());
        self.append_record(Record::Block(block), |_| footer)
    }

    /// Starts the next segment with the snapshot as its first record.
    fn put_snapshot(&mut self, snapshot: &LedgerSnapshot) -> Result<(), StoreError> {
        let number = self.segments.last().map_or(0, |s| s.number + 1);
        self.file = fs::File::create(segment_path(&self.path, number))
            .map_err(|e| io_err("segment-create", e))?;
        self.segments.push(Segment { number, records: 0 });
        self.sync_dir()?;
        self.append_record(Record::Snapshot(snapshot.clone()), |payload| {
            snapshot_footer(payload)
        })
    }

    /// Applies [`MemoryStore`]'s keep-set segment by segment, oldest
    /// first: a segment left with no record is unlinked, one left partly
    /// alive is rewritten, and the rest are not touched. Two are never
    /// unlinked: the first, which marks that the run exists and is
    /// emptied in place instead, and the last, which takes appends and
    /// is rewritten empty. After a failed step the log matches the files
    /// as they stand.
    fn compact_up_to(&mut self, block_num: u64) -> Result<u64, StoreError> {
        let Some(keep) = self.log.keep_set(block_num) else {
            return Ok(0);
        };
        let (mut dropped, mut first, mut seen, mut s) = (0, 0, 0, 0);
        while s < self.segments.len() {
            let Segment { number, records } = self.segments[s];
            let flags = &keep[seen..seen + records];
            seen += records;
            let live = flags.iter().filter(|k| **k).count();
            let last = s + 1 == self.segments.len();
            let gone = dropped_blocks(&self.log.records[first..first + records], flags);
            let span = first..first + records;
            if live == 0 && !last && number > 0 {
                fs::remove_file(segment_path(&self.path, number))
                    .map_err(|e| io_err("compact-unlink", e))?;
                self.log.records.drain(span.clone());
                self.footers.drain(span);
                self.segments.remove(s);
                dropped += gone;
                continue;
            }
            if live == 0 && !last && records > 0 {
                let file = fs::OpenOptions::new().write(true).open(&self.path);
                file.and_then(|f| {
                    f.set_len(0)?;
                    if self.fsync {
                        f.sync_all()?;
                    }
                    Ok(())
                })
                .map_err(|e| io_err("compact-truncate", e))?;
                self.log.records.drain(span.clone());
                self.footers.drain(span);
                self.segments[s].records = 0;
            } else if live < records {
                self.rewrite(s, first, flags)?;
            }
            first += live;
            s += 1;
            dropped += gone;
        }
        self.sync_dir()?;
        Ok(dropped)
    }

    fn load(&self) -> StoredLedger {
        self.log.load()
    }

    fn head(&self) -> (u64, Option<LedgerSnapshot>) {
        self.log.head()
    }
}

/// Groups loaded blocks by number, last append winning, as a
/// convenience for recovery code that wants ordered, de-duplicated
/// blocks.
pub fn blocks_by_number(blocks: Vec<Arc<Block>>) -> BTreeMap<u64, Arc<Block>> {
    let mut by_number = BTreeMap::new();
    for block in blocks {
        by_number.insert(block.header.number, block);
    }
    by_number
}

#[cfg(test)]
mod tests;
