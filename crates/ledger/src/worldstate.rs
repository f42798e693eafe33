//! The versioned world state database.
//!
//! Fabric peers maintain a world state — the materialized result of
//! executing all valid transactions in the blockchain — in a state
//! database (CouchDB in the paper's deployment). The reproduction keeps
//! it in memory: MVCC validation and chaincode execution only need
//! `key → (value, version)` lookups and batched writes.
//!
//! A peer commits a block by cloning the state, applying the block's
//! write sets to the clone and publishing it, while readers keep the
//! pre-block one. That is only affordable when a clone does not copy,
//! so the entries live in a persistent ordered map (`pmap`, DESIGN.md
//! §4.18): a clone shares every node, a write copies the root-to-leaf
//! path it changes — or nothing, when no clone is looking.

use crate::pmap::PMap;
use crate::version::Height;

/// A value together with the height of the transaction that wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The stored bytes (chaincodes store canonical JSON).
    pub value: Vec<u8>,
    /// Height of the committing transaction.
    pub version: Height,
}

/// The world state: a versioned key-value store.
///
/// Iteration is in key order ([`crate::codec::encode_state`], range
/// scans and every ledger hash depend on it), [`Clone`] is one
/// reference-count bump whatever the size, and `==` compares entries,
/// never layout: two states holding the same entries are equal however
/// they were built, and comparing states that share structure costs
/// their difference.
///
/// # Examples
///
/// ```
/// use fabriccrdt_ledger::{WorldState, Height};
///
/// let mut ws = WorldState::new();
/// ws.put("device1".into(), br#"{"t":"20"}"#.to_vec(), Height::new(1, 0));
/// ws.put("device1".into(), br#"{"t":"21"}"#.to_vec(), Height::new(2, 3));
/// assert_eq!(ws.version("device1"), Some(Height::new(2, 3)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorldState {
    entries: PMap,
}

impl WorldState {
    /// An empty world state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a value.
    pub fn value(&self, key: &str) -> Option<&[u8]> {
        self.entries.get(key).map(|e| e.value.as_slice())
    }

    /// Looks up a value's version.
    pub fn version(&self, key: &str) -> Option<Height> {
        self.entries.get(key).map(|e| e.version)
    }

    /// Looks up value and version together.
    pub fn get(&self, key: &str) -> Option<&VersionedValue> {
        self.entries.get(key)
    }

    /// Writes a value at the given height, returning the previous entry.
    pub fn put(&mut self, key: String, value: Vec<u8>, version: Height) -> Option<VersionedValue> {
        self.entries.insert(key, VersionedValue { value, version })
    }

    /// Deletes a key, returning the previous entry (Fabric models deletes
    /// as write-set entries with a delete marker).
    pub fn delete(&mut self, key: &str) -> Option<VersionedValue> {
        self.entries.remove(key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(key, entry)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &VersionedValue)> {
        self.entries.iter()
    }

    /// Range scan over keys in `[start, end)` — Fabric's
    /// `GetStateByRange` equivalent, used by examples. Empty when
    /// `start >= end`.
    pub fn range<'a>(
        &'a self,
        start: &str,
        end: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a VersionedValue)> {
        self.entries
            .iter_from(start)
            .take_while(move |(key, _)| key.as_str() < end)
    }

    /// Test support: walks the whole tree, panics if a structural
    /// invariant of the map is broken, and returns its height (an empty
    /// state has height 1) and the address of every node, root first —
    /// what a test needs to count the nodes two states do not share.
    #[doc(hidden)]
    pub fn audit(&self) -> (usize, Vec<usize>) {
        self.entries.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_lookup() {
        let ws = WorldState::new();
        assert!(ws.value("k").is_none());
        assert!(ws.version("k").is_none());
        assert!(ws.is_empty());
    }

    #[test]
    fn put_overwrites_and_returns_previous() {
        let mut ws = WorldState::new();
        assert!(ws
            .put("k".into(), b"v1".to_vec(), Height::new(1, 0))
            .is_none());
        let prev = ws
            .put("k".into(), b"v2".to_vec(), Height::new(2, 0))
            .unwrap();
        assert_eq!(prev.value, b"v1");
        assert_eq!(prev.version, Height::new(1, 0));
        assert_eq!(ws.value("k"), Some(&b"v2"[..]));
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn delete_removes() {
        let mut ws = WorldState::new();
        ws.put("k".into(), b"v".to_vec(), Height::new(1, 0));
        assert!(ws.delete("k").is_some());
        assert!(ws.value("k").is_none());
        assert!(ws.delete("k").is_none());
    }

    #[test]
    fn range_scan() {
        let mut ws = WorldState::new();
        for key in ["a1", "a2", "b1", "c1"] {
            ws.put(key.into(), b"v".to_vec(), Height::genesis());
        }
        let keys: Vec<&String> = ws.range("a1", "b1").map(|(k, _)| k).collect();
        assert_eq!(keys, ["a1", "a2"]);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut ws = WorldState::new();
        ws.put("z".into(), b"1".to_vec(), Height::genesis());
        ws.put("a".into(), b"2".to_vec(), Height::genesis());
        let keys: Vec<&String> = ws.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "z"]);
    }
}
