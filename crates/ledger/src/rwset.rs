//! Read-write sets — the result of simulating a transaction proposal.
//!
//! Section 3 of the paper: *"The read set includes a list of keys and the
//! version number of the key's value that a peer retrieved from the ledger
//! during the execution of the chaincode. The write set contains the
//! key-value pairs that will be committed to the ledger at the end."*
//!
//! FabricCRDT extends write-set entries with a CRDT flag (§4.3: peers
//! "flag the key-value pairs in the resulting transaction's write-set as
//! 'CRDT key-values'"), set by the chaincode shim's `put_crdt`. A write
//! keeps the value it was endorsed with; what a merged write commits is
//! its block's converged value ([`Block::value_of`](crate::block::Block::value_of)).

use std::collections::BTreeMap;

use crate::codec::{ByteSink, DecodeError, Reader};
use crate::version::Height;

/// One read-set entry: the version observed at simulation time (`None`
/// when the key did not exist).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadEntry {
    /// Version observed during endorsement, or `None` for a missing key.
    pub version: Option<Height>,
}

/// The keys read during simulation, with their observed versions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    entries: BTreeMap<String, ReadEntry>,
}

impl ReadSet {
    /// An empty read set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `key` was read at `version`. The first read of a key
    /// wins (Fabric records the version at first access).
    pub fn record(&mut self, key: impl Into<String>, version: Option<Height>) {
        self.entries
            .entry(key.into())
            .or_insert(ReadEntry { version });
    }

    /// Iterates `(key, observed version)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &ReadEntry)> {
        self.entries.iter()
    }

    /// The observed version for `key`, if the key was read.
    pub fn get(&self, key: &str) -> Option<ReadEntry> {
        self.entries.get(key).copied()
    }

    /// Number of keys read.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was read (a pure write transaction, which can
    /// never MVCC-conflict — §3).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One write-set entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteEntry {
    /// The value to commit (canonical JSON bytes for CRDT values).
    pub value: Vec<u8>,
    /// FabricCRDT flag: this value is a CRDT and skips MVCC validation
    /// (Algorithm 1, line 6).
    pub is_crdt: bool,
    /// Fabric delete marker.
    pub is_delete: bool,
}

impl WriteEntry {
    fn new(value: Vec<u8>, is_crdt: bool, is_delete: bool) -> Self {
        WriteEntry {
            value,
            is_crdt,
            is_delete,
        }
    }
}

/// The key-value pairs a transaction will commit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteSet {
    entries: BTreeMap<String, WriteEntry>,
}

impl WriteSet {
    /// An empty write set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a plain (non-CRDT) write. Later writes to the same key
    /// overwrite earlier ones, as in Fabric's simulator.
    pub fn put(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.entries
            .insert(key.into(), WriteEntry::new(value, false, false));
    }

    /// Records a CRDT-flagged write (the shim's `put_crdt`, §5.2).
    pub fn put_crdt(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.entries
            .insert(key.into(), WriteEntry::new(value, true, false));
    }

    /// Records a delete.
    pub fn delete(&mut self, key: impl Into<String>) {
        self.entries
            .insert(key.into(), WriteEntry::new(Vec::new(), false, true));
    }

    /// Replaces the value of an existing entry, preserving its CRDT and
    /// delete flags.
    ///
    /// Returns `false` if the key has no entry.
    pub fn update_value(&mut self, key: &str, value: Vec<u8>) -> bool {
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.value = value;
                true
            }
            None => false,
        }
    }

    /// Iterates `(key, entry)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &WriteEntry)> {
        self.entries.iter()
    }

    /// The entry for `key`.
    pub fn get(&self, key: &str) -> Option<&WriteEntry> {
        self.entries.get(key)
    }

    /// Number of keys written.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is written.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether any entry carries the CRDT flag.
    pub fn has_crdt_writes(&self) -> bool {
        self.entries.values().any(|e| e.is_crdt)
    }
}

/// A transaction's simulation result: read set + write set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadWriteSet {
    /// Keys read with observed versions.
    pub reads: ReadSet,
    /// Keys written with values and flags.
    pub writes: WriteSet,
}

impl ReadWriteSet {
    /// An empty read-write set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the read-write set's layout to `out`: reads, then
    /// writes, each counted and in key order, keys and values
    /// length-prefixed — the middle of
    /// [`Transaction::write_bytes`](crate::Transaction::write_bytes). A
    /// write's flag byte is CRDT (bit 0) and delete (bit 1).
    pub fn write_bytes(&self, out: &mut impl ByteSink) {
        out.u64(self.reads.len() as u64);
        for (key, entry) in self.reads.iter() {
            out.str(key);
            match entry.version {
                Some(height) => {
                    out.u8(1);
                    out.u64(height.block_num);
                    out.u64(height.tx_num);
                }
                None => out.u8(0),
            }
        }
        out.u64(self.writes.len() as u64);
        for (key, entry) in self.writes.iter() {
            out.str(key);
            out.u8(u8::from(entry.is_crdt) | (u8::from(entry.is_delete) << 1));
            out.bytes(&entry.value);
        }
    }

    /// Reads what [`ReadWriteSet::write_bytes`] wrote, and nothing it
    /// could not have written: keys strictly rising, a delete with no
    /// value bytes, no flag combination it never sets — so a decoded
    /// set re-encodes to the bytes it came from.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut rwset = ReadWriteSet::new();
        let reads = r.len(9)?;
        for _ in 0..reads {
            let key = r.str_after(rwset.reads.entries.keys().next_back())?;
            let version = match r.u8()? {
                0 => None,
                1 => Some(Height::new(r.u64()?, r.u64()?)),
                _ => return Err(DecodeError::new("invalid version marker", r.pos() - 1)),
            };
            rwset.reads.record(key, version);
        }
        let writes = r.len(9)?;
        for _ in 0..writes {
            let key = r.str_after(rwset.writes.entries.keys().next_back())?;
            let at = r.pos();
            let entry = match r.u8()? {
                0 => WriteEntry::new(r.bytes()?, false, false),
                1 => WriteEntry::new(r.bytes()?, true, false),
                2 => match r.bytes()?.is_empty() {
                    true => WriteEntry::new(Vec::new(), false, true),
                    false => return Err(DecodeError::new("delete with a value", at)),
                },
                _ => return Err(DecodeError::new("invalid write flags", at)),
            };
            rwset.writes.entries.insert(key, entry);
        }
        Ok(rwset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(rwset: &ReadWriteSet) -> Vec<u8> {
        let mut out = Vec::new();
        rwset.write_bytes(&mut out);
        out
    }

    #[test]
    fn read_set_records_first_version() {
        let mut rs = ReadSet::new();
        rs.record("k", Some(Height::new(1, 0)));
        rs.record("k", Some(Height::new(2, 0))); // later read ignored
        assert_eq!(rs.get("k").unwrap().version, Some(Height::new(1, 0)));
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn read_of_missing_key_recorded_as_none() {
        let mut rs = ReadSet::new();
        rs.record("ghost", None);
        assert_eq!(rs.get("ghost").unwrap().version, None);
        assert!(!rs.is_empty());
    }

    #[test]
    fn write_set_last_write_wins() {
        let mut ws = WriteSet::new();
        ws.put("k", b"v1".to_vec());
        ws.put_crdt("k", b"v2".to_vec());
        let entry = ws.get("k").unwrap();
        assert_eq!(entry.value, b"v2");
        assert!(entry.is_crdt);
        assert!(ws.has_crdt_writes());
    }

    #[test]
    fn delete_entry() {
        let mut ws = WriteSet::new();
        ws.delete("k");
        let entry = ws.get("k").unwrap();
        assert!(entry.is_delete);
        assert!(!ws.has_crdt_writes());
    }

    #[test]
    fn update_value_preserves_flags() {
        let mut ws = WriteSet::new();
        ws.put_crdt("k", b"old".to_vec());
        assert!(ws.update_value("k", b"merged".to_vec()));
        let entry = ws.get("k").unwrap();
        assert_eq!(entry.value, b"merged");
        assert!(entry.is_crdt);
        assert!(!ws.update_value("missing", b"x".to_vec()));
    }

    #[test]
    fn canonical_bytes_distinguish_content() {
        let mut a = ReadWriteSet::new();
        a.reads.record("k", Some(Height::new(1, 0)));
        a.writes.put("k", b"v".to_vec());

        let mut b = ReadWriteSet::new();
        b.reads.record("k", Some(Height::new(1, 1)));
        b.writes.put("k", b"v".to_vec());

        let mut c = ReadWriteSet::new();
        c.reads.record("k", Some(Height::new(1, 0)));
        c.writes.put_crdt("k", b"v".to_vec());

        assert_ne!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        assert_eq!(bytes(&a), bytes(&a.clone()));
    }

    #[test]
    fn canonical_bytes_resist_concatenation_ambiguity() {
        // ("ab" -> "c") must differ from ("a" -> "bc").
        let mut a = ReadWriteSet::new();
        a.writes.put("ab", b"c".to_vec());
        let mut b = ReadWriteSet::new();
        b.writes.put("a", b"bc".to_vec());
        assert_ne!(bytes(&a), bytes(&b));
    }
}
