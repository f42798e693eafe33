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
//! §4.3): a clone shares every node and every entry, a write copies the
//! root-to-leaf path it changes as pointers and allocates the one entry
//! it writes — or copies nothing, when no clone is looking.

use std::ops::Deref;
use std::sync::Arc;

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

/// The entry a [`WorldState::put`] replaced or a [`WorldState::delete`]
/// removed, handed back without copying a byte. It reads as the
/// [`VersionedValue`] it held.
#[derive(Debug)]
pub enum Previous {
    /// The value, moved out of an entry the state held alone.
    Value(VersionedValue),
    /// The whole entry, key and value, as the state held it; a clone of
    /// the state may still share it.
    Entry(Arc<(String, VersionedValue)>),
}

impl Deref for Previous {
    type Target = VersionedValue;

    fn deref(&self) -> &VersionedValue {
        match self {
            Previous::Value(value) => value,
            Previous::Entry(entry) => &entry.1,
        }
    }
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
    ///
    /// An entry this state holds alone is overwritten in place. One that
    /// a clone still shares is left to the clone, and the write allocates
    /// a new entry; the leaf it sits in is copied as pointers, so the
    /// other entries stay shared (DESIGN.md §4.3).
    pub fn put(&mut self, key: String, value: Vec<u8>, version: Height) -> Option<Previous> {
        self.entries.insert(key, VersionedValue { value, version })
    }

    /// Moves `key`'s version from `from` to `to`, keeping its value, and
    /// says whether it did: `false`, with nothing copied, when the key is
    /// absent or at another version. Like [`WorldState::put`], it changes
    /// an entry this state holds alone in place and copies one a clone
    /// still shares.
    pub fn restamp(&mut self, key: &str, from: Height, to: Height) -> bool {
        self.entries.restamp(key, from, to)
    }

    /// Deletes a key, returning the previous entry (Fabric models deletes
    /// as write-set entries with a delete marker).
    pub fn delete(&mut self, key: &str) -> Option<Previous> {
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
    pub fn range<'a, 'b>(
        &'a self,
        start: &str,
        end: &'b str,
    ) -> impl Iterator<Item = (&'a String, &'a VersionedValue)> + 'b
    where
        'a: 'b,
    {
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

    /// What a leaf copy copies: pointers. Every entry but the written one
    /// is the same allocation in both states, the copied leaf's
    /// neighbours of the written key included.
    #[test]
    fn a_write_through_a_clone_shares_every_entry_it_did_not_write() {
        let mut original = WorldState::new();
        for n in 0..100_000 {
            original.put(format!("device-{n}"), b"{}".to_vec(), Height::genesis());
        }
        let mut clone = original.clone();
        let previous = clone.put("device-4242".into(), b"new".to_vec(), Height::new(1, 0));
        assert!(matches!(previous, Some(Previous::Entry(_))), "{previous:?}");
        assert_eq!(original.value("device-4242"), Some(&b"{}"[..]));
        assert_eq!(clone.value("device-4242"), Some(&b"new"[..]));
        for (key, entry) in original.iter() {
            let theirs = clone.get(key).expect("same keys");
            let shared = std::ptr::eq(entry, theirs);
            assert_eq!(shared, key != "device-4242", "{key}");
        }

        // Alone again, the written entry is overwritten where it lies.
        drop(original);
        let at = clone.get("device-4242").map(std::ptr::from_ref);
        let previous = clone.put("device-4242".into(), b"newer".to_vec(), Height::new(2, 0));
        assert!(matches!(previous, Some(Previous::Value(_))), "{previous:?}");
        assert_eq!(clone.get("device-4242").map(std::ptr::from_ref), at);
        assert_eq!(clone.value("device-4242"), Some(&b"newer"[..]));
    }
}
