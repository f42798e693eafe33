//! Key-hash sharded world state for the parallel finalize stage.
//!
//! The sequential commit path writes a block into a clone of the
//! peer's [`WorldState`]; parallel conflict chains instead commit
//! through a [`ShardedState`]: an overlay over the pre-block state,
//! split into [`SHARDS`] independently locked hash buckets so chains
//! touching disjoint keys never contend (the key-disjointness insight
//! of Meir et al., *Lockless Transaction Isolation in Hyperledger
//! Fabric*). Reads fall through the overlay to the immutable base;
//! writes and deletes land only in the overlay. The base is a clone of
//! the caller's state, and a `WorldState` clone shares the whole tree
//! (one reference-count bump), so constructing a `ShardedState` costs
//! the same at twenty keys and at a million. Because the conflict-graph
//! scheduler (see [`crate::schedule`]) routes every key to exactly one
//! chain, two threads never race on a key — the per-shard mutexes only
//! arbitrate *map* structure, and each lock is held for single `put` /
//! `delete` / `version` calls, never across a wait.
//!
//! After the block's chains complete, [`ShardedState::into_world`]
//! writes the overlay into the base, which copies only the tree paths
//! those writes touch; whoever still holds the pre-block state keeps
//! seeing it. Each key lives in exactly one shard, so the fold order
//! across shards is immaterial and the canonical sorted form — hence
//! the byte encoding ([`fabriccrdt_ledger::codec`]) — is independent of
//! shard layout and thread interleaving: part of the determinism
//! argument in DESIGN.md §4.9.

use std::collections::HashMap;
use std::sync::Mutex;

use fabriccrdt_jsoncrdt::op::fnv1a;
use fabriccrdt_ledger::mvcc::ChainState;
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::VersionedValue;
use fabriccrdt_ledger::WorldState;

/// Number of lock shards (a power of two so the hash folds with a
/// mask). 32 comfortably exceeds any worker count we spawn.
pub const SHARDS: usize = 32;

/// An overlay entry: `Some` is a committed write, `None` a delete.
type OverlayEntry = Option<VersionedValue>;

/// A [`WorldState`] behind a sharded copy-on-write overlay (see module
/// docs).
#[derive(Debug)]
pub struct ShardedState {
    base: WorldState,
    shards: Vec<Mutex<HashMap<String, OverlayEntry>>>,
}

fn shard_of(key: &str) -> usize {
    fnv1a(key.as_bytes()) as usize & (SHARDS - 1)
}

impl ShardedState {
    /// Takes `world` as the immutable read base — a clone of it, which
    /// shares its tree — with empty overlays. `world` itself is never
    /// written: the peer finalizes against its published epoch without
    /// copying it.
    pub fn from_world(world: &WorldState) -> Self {
        ShardedState {
            base: world.clone(),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Folds the overlay into the base, returning the canonical sorted
    /// form. Only keys the block actually wrote are touched, and each
    /// key lives in exactly one shard, so the result — and hence
    /// [`fabriccrdt_ledger::codec::encode_state`] — is independent of
    /// shard layout.
    pub fn into_world(self) -> WorldState {
        let mut world = self.base;
        for shard in self.shards {
            let entries = shard.into_inner().expect("state shard poisoned");
            for (key, entry) in entries {
                match entry {
                    Some(versioned) => {
                        world.put(key, versioned.value, versioned.version);
                    }
                    None => {
                        world.delete(&key);
                    }
                }
            }
        }
        world
    }

    /// Total number of live entries (base entries plus overlay inserts,
    /// minus overlay deletes).
    pub fn len(&self) -> usize {
        let mut len = self.base.len();
        for shard in &self.shards {
            for (key, entry) in shard.lock().expect("state shard poisoned").iter() {
                match (entry.is_some(), self.base.get(key).is_some()) {
                    (true, false) => len += 1,
                    (false, true) => len -= 1,
                    _ => {}
                }
            }
        }
        len
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ChainState for ShardedState {
    fn version(&self, key: &str) -> Option<Height> {
        let shard = self.shards[shard_of(key)]
            .lock()
            .expect("state shard poisoned");
        match shard.get(key) {
            Some(entry) => entry.as_ref().map(|v| v.version),
            None => self.base.version(key),
        }
    }

    fn put(&self, key: String, value: Vec<u8>, version: Height) {
        self.shards[shard_of(&key)]
            .lock()
            .expect("state shard poisoned")
            .insert(key, Some(VersionedValue { value, version }));
    }

    fn delete(&self, key: &str) {
        self.shards[shard_of(key)]
            .lock()
            .expect("state shard poisoned")
            .insert(key.to_owned(), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_ledger::codec;

    fn seeded_world(keys: usize) -> WorldState {
        let mut world = WorldState::new();
        for n in 0..keys {
            world.put(
                format!("key-{n}"),
                format!("value-{n}").into_bytes(),
                Height::new(1, n as u64),
            );
        }
        world
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let world = seeded_world(100);
        let rebuilt = ShardedState::from_world(&world).into_world();
        assert_eq!(rebuilt, world);
        assert_eq!(codec::encode_state(&rebuilt), codec::encode_state(&world));
    }

    #[test]
    fn the_base_roundtrips_without_disturbing_the_epoch() {
        let epoch = seeded_world(50);
        let sharded = ShardedState::from_world(&epoch);
        sharded.put("key-3".into(), b"updated".to_vec(), Height::new(2, 0));
        sharded.delete("key-7");
        let world = sharded.into_world();
        // The caller's epoch still sees the pre-block state...
        assert_eq!(epoch.version("key-3"), Some(Height::new(1, 3)));
        assert_eq!(epoch.len(), 50);
        // ...while the folded result is the epoch plus the two writes.
        let mut expect = seeded_world(50);
        expect.put("key-3".into(), b"updated".to_vec(), Height::new(2, 0));
        expect.delete("key-7");
        assert_eq!(world, expect);
        assert_eq!(world.len(), 49);
    }

    #[test]
    fn chain_state_operations_mirror_world_state() {
        let sharded = ShardedState::from_world(&seeded_world(10));
        assert_eq!(sharded.len(), 10);
        assert_eq!(sharded.version("key-3"), Some(Height::new(1, 3)));
        assert_eq!(sharded.version("missing"), None);

        sharded.put("key-3".into(), b"updated".to_vec(), Height::new(2, 0));
        sharded.put("fresh".into(), b"new".to_vec(), Height::new(2, 1));
        sharded.delete("key-7");

        let mut expect = seeded_world(10);
        expect.put("key-3".into(), b"updated".to_vec(), Height::new(2, 0));
        expect.put("fresh".into(), b"new".to_vec(), Height::new(2, 1));
        expect.delete("key-7");
        assert_eq!(sharded.into_world(), expect);
    }

    #[test]
    fn overlay_shadows_the_base() {
        let sharded = ShardedState::from_world(&seeded_world(4));
        sharded.put("key-1".into(), b"new".to_vec(), Height::new(9, 0));
        sharded.delete("key-2");
        assert_eq!(sharded.version("key-1"), Some(Height::new(9, 0)));
        assert_eq!(sharded.version("key-2"), None, "delete masks the base");
        assert_eq!(sharded.version("key-0"), Some(Height::new(1, 0)));
        assert_eq!(sharded.len(), 3);
    }

    #[test]
    fn empty_world_roundtrips() {
        let sharded = ShardedState::from_world(&WorldState::new());
        assert!(sharded.is_empty());
        assert!(sharded.into_world().is_empty());
    }

    #[test]
    fn concurrent_disjoint_writes_land() {
        let sharded = std::sync::Arc::new(ShardedState::from_world(&WorldState::new()));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sharded = sharded.clone();
                scope.spawn(move || {
                    for n in 0..50u64 {
                        sharded.put(
                            format!("t{t}-k{n}"),
                            vec![t as u8, n as u8],
                            Height::new(t, n),
                        );
                    }
                });
            }
        });
        let world = std::sync::Arc::try_unwrap(sharded).unwrap().into_world();
        assert_eq!(world.len(), 200);
        assert_eq!(world.value("t2-k49"), Some(&[2u8, 49][..]));
    }
}
