//! Durable peer storage, snapshot cadence and acknowledgement-driven GC.
//!
//! This is the fabric-layer orchestration above the raw
//! [`LedgerStore`] backends of `fabriccrdt_ledger::store`:
//!
//! - [`StorageConfig`] / [`StorageBackend`] select a backend (in-memory
//!   or append-only file) and set the snapshot cadence and whether
//!   acknowledgement-driven GC runs — attached to a pipeline via
//!   [`PipelineConfig::with_storage`](crate::config::PipelineConfig::with_storage).
//! - [`DurableLedger`] wraps one peer's store: it appends every
//!   committed block, writes a [`LedgerSnapshot`] every
//!   `snapshot_interval` blocks, compacts records the latest snapshot
//!   covers, and [`DurableLedger::recover`]s a [`Peer`] after a crash.
//! - [`AckFrontier`] is the cluster-wide GC coordination point: a
//!   table mapping each peer to the block height it has contiguously
//!   committed (acknowledged via gossip). Blocks at or below the
//!   *minimum* acknowledged height are committed everywhere, so
//!   [`DurableLedger::compact_up_to`] may drop their records without
//!   any replica ever needing them again. Store compaction is the whole
//!   of GC: the peer's in-memory chain is never truncated.
//!
//! Recovery prefers a **full replay** whenever the store retains a
//! contiguous block run from 1: replaying every block reproduces a
//! byte-identical ledger (same [`Peer::snapshot`] bytes as a peer that
//! never crashed). Only when compaction has dropped the prefix does
//! recovery install the latest snapshot and replay the suffix — then
//! state and tip hash still match, but the encoded chain resumes at the
//! snapshot anchor instead of genesis, and key history starts above it.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::chain::ChainError;
use fabriccrdt_ledger::store::{
    blocks_by_number, AofStore, LedgerSnapshot, LedgerStore, MemoryStore, StoreError,
};

use crate::channel::ChannelId;
use crate::peer::Peer;
use crate::policy::EndorsementPolicy;
use crate::validator::BlockValidator;

// ------------------------------------------------------------- config

/// Which [`LedgerStore`] backend a peer persists to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageBackend {
    /// A [`MemoryStore`]: the committed blocks themselves, shared with
    /// the peer's chain, and the latest snapshot root; nothing encoded.
    Memory,
    /// One run of append-only segment files per peer under `dir`:
    /// `peer-<index>.aof`, then `peer-<index>.aof.1`, `.2`, …, each
    /// snapshot starting the next segment, and compaction unlinking the
    /// segments it leaves empty (the first is emptied in place).
    AppendOnlyFile {
        /// Directory holding the per-peer segments (created on open).
        dir: PathBuf,
    },
}

/// Durable-storage settings for a simulated network's peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// The backend every peer opens.
    pub backend: StorageBackend,
    /// Write a snapshot each time a peer's committed height reaches a
    /// multiple of this; `0` disables snapshots (and therefore GC and
    /// snapshot catch-up — the store only ever grows).
    pub snapshot_interval: u64,
    /// When true, peers compact their stores up to the minimum height
    /// every replica has acknowledged (the [`AckFrontier`] floor).
    pub gc: bool,
    /// When true, append-only-file stores `fsync` every appended
    /// record, upgrading the crash model from process loss to power
    /// loss. Ignored by the in-memory backend.
    pub fsync: bool,
}

impl StorageConfig {
    /// In-memory storage, no snapshots, no GC.
    pub fn memory() -> Self {
        StorageConfig {
            backend: StorageBackend::Memory,
            snapshot_interval: 0,
            gc: false,
            fsync: false,
        }
    }

    /// Append-only-file storage under `dir`, no snapshots, no GC, no
    /// fsync.
    pub fn append_only(dir: impl Into<PathBuf>) -> Self {
        StorageConfig {
            backend: StorageBackend::AppendOnlyFile { dir: dir.into() },
            snapshot_interval: 0,
            gc: false,
            fsync: false,
        }
    }

    /// Sets the snapshot cadence (builder style); see
    /// [`StorageConfig::snapshot_interval`].
    pub fn with_snapshot_interval(mut self, every: u64) -> Self {
        self.snapshot_interval = every;
        self
    }

    /// Enables acknowledgement-driven GC (builder style); see
    /// [`StorageConfig::gc`].
    pub fn with_gc(mut self, gc: bool) -> Self {
        self.gc = gc;
        self
    }

    /// Enables fsync-on-append durability (builder style); see
    /// [`StorageConfig::fsync`].
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }
}

// ----------------------------------------------------- durable ledger

/// One peer's durable ledger: a [`LedgerStore`] plus the snapshot
/// cadence and GC switch from [`StorageConfig`], and a cache of the
/// latest snapshot so catch-up helpers can serve it without re-reading
/// the store.
pub struct DurableLedger {
    store: Box<dyn LedgerStore>,
    snapshot_interval: u64,
    gc: bool,
    latest_snapshot: Option<LedgerSnapshot>,
    /// Highest block height this store knows to be *finalized*: the
    /// maximum over every block appended via
    /// [`DurableLedger::append_block`] and every installed snapshot's
    /// `last_block` (a donor snapshot is another replica's finalized
    /// ledger). The snapshot cadence and compaction key off this
    /// watermark, not off the local block records: a replica that
    /// installed a donor's snapshot holds no record at or below its
    /// height, yet that height is finalized.
    appended_tip: u64,
}

impl fmt::Debug for DurableLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableLedger")
            .field("snapshot_interval", &self.snapshot_interval)
            .field("gc", &self.gc)
            .field(
                "latest_snapshot_block",
                &self.latest_snapshot.as_ref().map(|s| s.last_block),
            )
            .field("appended_tip", &self.appended_tip)
            .finish_non_exhaustive()
    }
}

/// A recovered peer plus how recovery got there — used by tests and
/// the gossip layer's restart path to account for what was replayed.
#[derive(Debug)]
pub struct Recovery<V> {
    /// The rebuilt peer, ready to commit the next block.
    pub peer: Peer<V>,
    /// Whether a snapshot was installed (false = full replay from
    /// genesis, which is byte-identical to never having crashed).
    pub used_snapshot: bool,
    /// Block records replayed on top of the starting point.
    pub replayed_blocks: u64,
}

/// Error from [`DurableLedger::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// A retained block did not extend the rebuilt chain.
    Replay(ChainError),
    /// The retained blocks have a gap the snapshot does not cover:
    /// block `expected` is missing.
    MissingBlocks {
        /// The first block number recovery needed but could not find.
        expected: u64,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Replay(e) => write!(f, "recovery replay failed: {e:?}"),
            RecoverError::MissingBlocks { expected } => {
                write!(f, "recovery missing block {expected}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<ChainError> for RecoverError {
    fn from(e: ChainError) -> Self {
        RecoverError::Replay(e)
    }
}

impl DurableLedger {
    /// Opens peer `peer_index`'s store per `config` (creating the AOF
    /// directory and file as needed) and caches its latest snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot be opened or
    /// its existing records cannot be read back.
    pub fn open(config: &StorageConfig, peer_index: usize) -> Result<Self, StoreError> {
        Self::open_channel(config, ChannelId::DEFAULT, peer_index)
    }

    /// Opens peer `peer_index`'s store for `channel`. The default
    /// channel's run of segments starts at `peer-<index>.aof`; other
    /// channels' at `ch<channel>-peer-<index>.aof`, so every (channel,
    /// peer) pair has its own segments under one directory.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot be opened or
    /// its existing records cannot be read back.
    pub fn open_channel(
        config: &StorageConfig,
        channel: ChannelId,
        peer_index: usize,
    ) -> Result<Self, StoreError> {
        let store: Box<dyn LedgerStore> = match &config.backend {
            StorageBackend::Memory => Box::new(MemoryStore::new()),
            StorageBackend::AppendOnlyFile { dir } => {
                let file = if channel == ChannelId::DEFAULT {
                    format!("peer-{peer_index}.aof")
                } else {
                    format!("ch{}-peer-{peer_index}.aof", channel.0)
                };
                Box::new(AofStore::open_with_fsync(dir.join(file), config.fsync)?)
            }
        };
        let (appended_tip, latest_snapshot) = store.head();
        Ok(DurableLedger {
            store,
            snapshot_interval: config.snapshot_interval,
            gc: config.gc,
            latest_snapshot,
            appended_tip,
        })
    }

    /// Whether the store retains a block record numbered `number` —
    /// how gossip anti-entropy probes whether a helper can serve a
    /// block below its in-memory chain's base (a peer recovered through
    /// a snapshot holds no block at or below it).
    pub fn has_block(&self, number: u64) -> bool {
        self.store.has_block(number)
    }

    /// All retained block records, in append order. Gossip anti-entropy
    /// reads these to serve replay suffixes that start below a helper's
    /// in-memory chain base.
    pub fn retained_blocks(&self) -> Vec<Arc<Block>> {
        self.store.load().blocks
    }

    /// Appends a committed block record and advances the finalized
    /// watermark ([`DurableLedger::finalized_tip`]) to its height. The
    /// store keeps the block as handed: the chain's own
    /// ([`Blockchain::shared`](fabriccrdt_ledger::Blockchain::shared)) is
    /// held once by both, a borrowed one is copied.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot persist it.
    pub fn append_block(&mut self, block: impl Into<Arc<Block>>) -> Result<(), StoreError> {
        let block = block.into();
        let number = block.header.number;
        self.store.append_block(block)?;
        self.appended_tip = self.appended_tip.max(number);
        Ok(())
    }

    /// The highest block height this store knows to be finalized —
    /// appended as a committed record or covered by an installed
    /// snapshot. The snapshot cadence never fires above it.
    pub fn finalized_tip(&self) -> u64 {
        self.appended_tip
    }

    /// Whether a snapshot is due at committed height `last_block`:
    /// the cadence is enabled, the height is a positive multiple of
    /// it, no snapshot at or past that height exists yet, **and** the
    /// height is finalized — its block record has actually been
    /// appended, or a snapshot covering it installed (a donor
    /// snapshot's height counts, though no local record covers it).
    /// A block processed but not yet committed and appended does not
    /// make its height due.
    pub fn snapshot_due(&self, last_block: u64) -> bool {
        self.snapshot_interval > 0
            && last_block > 0
            && last_block <= self.appended_tip
            && last_block.is_multiple_of(self.snapshot_interval)
            && self
                .latest_snapshot
                .as_ref()
                .is_none_or(|s| s.last_block < last_block)
    }

    /// Stores a snapshot record and caches it as the latest.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot persist it.
    pub fn put_snapshot(&mut self, snapshot: LedgerSnapshot) -> Result<(), StoreError> {
        self.store.put_snapshot(&snapshot)?;
        // A snapshot is finalized state by construction (ours or a
        // donor replica's), so it advances the watermark even when the
        // covered block records were never appended locally.
        self.appended_tip = self.appended_tip.max(snapshot.last_block);
        if self
            .latest_snapshot
            .as_ref()
            .is_none_or(|s| s.last_block <= snapshot.last_block)
        {
            self.latest_snapshot = Some(snapshot);
        }
        Ok(())
    }

    /// The most recent snapshot written to (or recovered from) this
    /// store, if any — what snapshot catch-up ships to a lagging peer.
    pub fn latest_snapshot(&self) -> Option<&LedgerSnapshot> {
        self.latest_snapshot.as_ref()
    }

    /// Whether acknowledgement-driven GC is switched on for this peer.
    pub fn gc_enabled(&self) -> bool {
        self.gc
    }

    /// Compacts block records at or below `block_num` — clamped to the
    /// latest snapshot (see [`LedgerStore::compact_up_to`]) *and* to
    /// the finalized watermark, so a floor quoted against blocks that
    /// merely arrived (but have not finalized here) can never drop
    /// records the sequential path would still retain. Returns the
    /// number of block records dropped.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot rewrite itself.
    pub fn compact_up_to(&mut self, block_num: u64) -> Result<u64, StoreError> {
        self.store.compact_up_to(block_num.min(self.appended_tip))
    }

    /// Rebuilds a peer from this store after a crash; see
    /// [`DurableLedger::recover_seeded`] (this is the no-seeds form).
    ///
    /// # Errors
    ///
    /// Returns a [`RecoverError`] when a block fails to replay or the
    /// retained blocks have a gap the snapshot does not cover.
    pub fn recover<V: BlockValidator>(
        &self,
        validator: V,
        policy: EndorsementPolicy,
    ) -> Result<Recovery<V>, RecoverError> {
        self.recover_seeded(validator, policy, |_| {})
    }

    /// Rebuilds a peer from this store after a crash.
    ///
    /// If the retained block records form a contiguous run `1..=n`
    /// reaching at least as far as the latest snapshot, recovery
    /// replays them all onto a fresh peer — byte-identical to a peer
    /// that never crashed. Otherwise it installs the latest snapshot
    /// and replays the retained suffix above it.
    ///
    /// `seed` runs on the fresh peer *before* replay (only on the
    /// full-replay path) to re-apply genesis-height seeded state,
    /// which lives in no block; a snapshot's state already includes it.
    ///
    /// # Errors
    ///
    /// Returns a [`RecoverError`] when a block fails to replay or the
    /// retained blocks have a gap the snapshot does not cover.
    pub fn recover_seeded<V: BlockValidator>(
        &self,
        validator: V,
        policy: EndorsementPolicy,
        seed: impl FnOnce(&mut Peer<V>),
    ) -> Result<Recovery<V>, RecoverError> {
        let stored = self.store.load();
        let blocks = blocks_by_number(stored.blocks);
        let contiguous_from_one = blocks.keys().next() == Some(&1)
            && blocks
                .keys()
                .zip(1u64..)
                .all(|(&number, expected)| number == expected);
        let replay_reaches = blocks.keys().next_back().copied().unwrap_or(0);
        let replay_wins = (contiguous_from_one
            && stored
                .snapshot
                .as_ref()
                .is_none_or(|s| replay_reaches >= s.last_block))
            || (blocks.is_empty() && stored.snapshot.is_none());
        if replay_wins {
            let mut peer = Peer::new(validator, policy);
            seed(&mut peer);
            let replayed_blocks = blocks.len() as u64;
            for (_, block) in blocks {
                peer.replay_block(block)?;
            }
            return Ok(Recovery {
                peer,
                used_snapshot: false,
                replayed_blocks,
            });
        }
        let Some(snapshot) = stored.snapshot else {
            return Err(RecoverError::MissingBlocks { expected: 1 });
        };
        let mut peer = Peer::restore_from_snapshot(validator, policy, &snapshot);
        let mut expected = snapshot.last_block + 1;
        let mut replayed_blocks = 0u64;
        for (number, block) in blocks {
            if number <= snapshot.last_block {
                continue;
            }
            if number != expected {
                return Err(RecoverError::MissingBlocks { expected });
            }
            peer.replay_block(block)?;
            expected += 1;
            replayed_blocks += 1;
        }
        Ok(Recovery {
            peer,
            used_snapshot: true,
            replayed_blocks,
        })
    }
}

// -------------------------------------------------------- ack frontier

/// The cluster-wide GC coordination point: maps each peer (by index)
/// to the block height it has contiguously committed and acknowledged
/// over gossip. The *minimum* across all peers is the GC floor — every
/// replica has committed the blocks up to it, so their records can be
/// compacted ([`DurableLedger::compact_up_to`]) without any replica
/// ever needing them again.
///
/// An acknowledgement keeps the higher of the old and new height, so
/// acknowledgements commute and stale ones are no-ops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AckFrontier {
    /// Acknowledged height per peer; a peer at height 0 has no entry.
    acked: BTreeMap<usize, u64>,
}

impl AckFrontier {
    /// An empty frontier: nothing acknowledged by anyone.
    pub fn new() -> Self {
        AckFrontier::default()
    }

    /// Records that `peer` has contiguously committed through block
    /// `height`. Lower (stale) and zero acknowledgements are no-ops.
    pub fn ack(&mut self, peer: usize, height: u64) {
        if height > 0 {
            let acked = self.acked.entry(peer).or_default();
            *acked = (*acked).max(height);
        }
    }

    /// The height `peer` has acknowledged (0 if never heard from).
    pub fn acked(&self, peer: usize) -> u64 {
        self.acked.get(&peer).copied().unwrap_or(0)
    }

    /// The GC floor across a cluster of `peers` peers: the minimum
    /// acknowledged height (0 if any peer has never acknowledged).
    pub fn min_acked(&self, peers: usize) -> u64 {
        (0..peers).map(|p| self.acked(p)).min().unwrap_or(0)
    }

    /// Bytes of the table on the wire — what a snapshot transfer is
    /// charged for shipping it: a `u64` entry count, then a `u64`
    /// (peer, height) pair per peer that has acknowledged.
    pub fn encoded_len(&self) -> usize {
        8 + 16 * self.acked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::FabricValidator;
    use fabriccrdt_crypto::{Digest, Identity, KeyPair};
    use fabriccrdt_ledger::block::ValidationCode;
    use fabriccrdt_ledger::rwset::ReadWriteSet;
    use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
    use fabriccrdt_ledger::worldstate::WorldState;
    use fabriccrdt_sim::gen;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "fabriccrdt-storage-{}-{tag}-{unique}",
            std::process::id()
        ))
    }

    fn endorsed_tx(nonce: u64, crdt_keys: &[String]) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        if crdt_keys.is_empty() {
            rwset.writes.put(format!("plain{nonce}"), vec![nonce as u8]);
        }
        for key in crdt_keys {
            rwset
                .writes
                .put_crdt(key.clone(), format!("{{\"n\":\"{nonce}\"}}").into_bytes());
        }
        let mut tx = Transaction {
            id: TxId::derive(&client, nonce, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        };
        let payload = tx.response_payload();
        for (i, org) in ["org1", "org2"].iter().enumerate() {
            let kp = KeyPair::derive(Identity::new(format!("peer{i}"), *org));
            tx.endorsements.push(Endorsement {
                endorser: kp.identity().clone(),
                signature: kp.sign(&payload),
            });
        }
        tx
    }

    fn test_peer() -> Peer<FabricValidator> {
        Peer::new(
            FabricValidator::new(),
            EndorsementPolicy::all_of(["org1", "org2"]),
        )
    }

    /// Commits a block of `txs` on `peer` and mirrors it into `store`,
    /// writing a snapshot when one is due. Returns the new tip number.
    fn commit_and_persist(
        peer: &mut Peer<FabricValidator>,
        store: &mut DurableLedger,
        txs: Vec<Transaction>,
    ) -> u64 {
        let block = Block::assemble(peer.chain().height(), peer.chain().tip_hash(), txs);
        let staged = peer.process_block(block);
        assert!(staged
            .block
            .validation_codes
            .iter()
            .all(|c| *c == ValidationCode::Valid));
        let tip = peer.commit(staged).unwrap().clone();
        store.append_block(&tip).unwrap();
        let tip_number = tip.header.number;
        if store.snapshot_due(tip_number) {
            store.put_snapshot(peer.ledger_snapshot()).unwrap();
        }
        tip_number
    }

    #[test]
    fn ack_frontier_floor() {
        // The bytes a snapshot transfer is charged for the table: a u64
        // count, then a (peer, height) pair per peer that has acked.
        let charged = |acked_peers: usize| 8 + 16 * acked_peers;
        let mut a = AckFrontier::new();
        assert_eq!(a.encoded_len(), charged(0));
        a.ack(2, 0);
        assert_eq!(a.acked(2), 0);
        assert_eq!(a.encoded_len(), charged(0), "a zero ack records nothing");
        a.ack(0, 5);
        a.ack(1, 3);
        assert_eq!(a.encoded_len(), charged(2));
        a.ack(1, 2); // stale: no-op
        assert_eq!(a.acked(0), 5);
        assert_eq!(a.acked(1), 3);
        assert_eq!(a.min_acked(2), 3);
        assert_eq!(a.min_acked(3), 0, "silent peer pins the floor");
        assert_eq!(a.encoded_len(), charged(2));
        a.ack(3, 1_000_000); // one call from 0
        a.ack(1, 0);
        assert_eq!(a.acked(3), 1_000_000);
        assert_eq!(a.acked(1), 3, "a zero ack is stale too");
        assert_eq!(a.min_acked(2), 3);
        assert_eq!(a.encoded_len(), charged(3));
    }

    #[test]
    fn full_replay_recovery_is_byte_identical() {
        let config = StorageConfig::memory();
        let mut store = DurableLedger::open(&config, 0).unwrap();
        let mut live = test_peer();
        for n in 1..=5 {
            commit_and_persist(&mut live, &mut store, vec![endorsed_tx(n, &[])]);
        }
        let recovery = store
            .recover(
                FabricValidator::new(),
                EndorsementPolicy::all_of(["org1", "org2"]),
            )
            .unwrap();
        assert!(!recovery.used_snapshot);
        assert_eq!(recovery.replayed_blocks, 5);
        assert_eq!(recovery.peer.snapshot(), live.snapshot(), "byte-identical");
    }

    #[test]
    fn empty_store_recovers_to_fresh_peer() {
        let store = DurableLedger::open(&StorageConfig::memory(), 0).unwrap();
        let recovery = store
            .recover(
                FabricValidator::new(),
                EndorsementPolicy::all_of(["org1", "org2"]),
            )
            .unwrap();
        assert!(!recovery.used_snapshot);
        assert_eq!(recovery.replayed_blocks, 0);
        assert_eq!(recovery.peer.chain().height(), 1, "genesis only");
    }

    #[test]
    fn snapshot_recovery_matches_live_state_after_compaction() {
        let config = StorageConfig::memory()
            .with_snapshot_interval(3)
            .with_gc(true);
        let mut store = DurableLedger::open(&config, 0).unwrap();
        let mut live = test_peer();
        let keys = ["doc".to_string()];
        for n in 1..=7 {
            commit_and_persist(&mut live, &mut store, vec![endorsed_tx(n, &keys)]);
        }
        assert_eq!(store.latest_snapshot().unwrap().last_block, 6);
        // Compact away the covered prefix; recovery must now install
        // the snapshot and replay only block 7.
        assert!(store.compact_up_to(u64::MAX).unwrap() > 0);
        let recovery = store
            .recover(
                FabricValidator::new(),
                EndorsementPolicy::all_of(["org1", "org2"]),
            )
            .unwrap();
        assert!(recovery.used_snapshot);
        assert_eq!(recovery.replayed_blocks, 1);
        let mut recovered = recovery.peer;
        assert_eq!(recovered.state(), live.state());
        assert_eq!(recovered.chain().tip_hash(), live.chain().tip_hash());
        assert_eq!(recovered.chain().height(), live.chain().height());
        // The recovered chain resumes above the snapshot: its history
        // is the live history above block 6.
        let above_snapshot: Vec<_> = live
            .chain()
            .history("doc")
            .into_iter()
            .filter(|e| e.height.block_num > 6)
            .collect();
        assert_eq!(above_snapshot.len(), 1);
        assert_eq!(recovered.chain().history("doc"), above_snapshot);

        // Both peers process the next block identically, including
        // duplicate detection from the restored id set.
        let dup = live.chain().block(3).unwrap().transactions[0].clone();
        let txs = vec![endorsed_tx(99, &keys), dup];
        let block = Block::assemble(live.chain().height(), live.chain().tip_hash(), txs);
        let staged_live = live.process_block(block.clone());
        let staged_rec = recovered.process_block(block);
        assert_eq!(
            staged_live.block.validation_codes,
            vec![ValidationCode::Valid, ValidationCode::DuplicateTxId]
        );
        assert_eq!(
            staged_rec.block.validation_codes,
            staged_live.block.validation_codes
        );
        live.commit(staged_live).unwrap();
        recovered.commit(staged_rec).unwrap();
        assert_eq!(recovered.state(), live.state());
        assert_eq!(recovered.chain().tip_hash(), live.chain().tip_hash());
    }

    /// The cadence keys off *finalized* height: a block staged by
    /// `process_block` but not yet committed and appended must not
    /// trigger the interval-2 snapshot. Once it is appended, the
    /// snapshot captures the committed ledger at that height.
    #[test]
    fn snapshot_cadence_keys_off_finalized_height_not_arrival() {
        let config = StorageConfig::memory().with_snapshot_interval(2);
        // Raw blocks as an ordering service would publish them; the
        // peer re-links and re-seals each.
        let blocks: Vec<Block> = (1..=2)
            .map(|n| Block::assemble(n, [0; 32], vec![endorsed_tx(n, &["doc".to_string()])]))
            .collect();

        let mut store = DurableLedger::open(&config, 1).unwrap();
        let mut peer = test_peer();
        let staged1 = peer.process_block(blocks[0].clone());
        let tip1 = peer.commit(staged1).unwrap().clone();
        store.append_block(&tip1).unwrap();
        assert_eq!(store.finalized_tip(), 1);
        let staged2 = peer.process_block(blocks[1].clone());
        assert!(!store.snapshot_due(2), "block 2 is staged, not finalized");
        let tip2 = peer.commit(staged2).unwrap().clone();
        assert!(!store.snapshot_due(2), "block 2 is committed, not appended");
        store.append_block(&tip2).unwrap();
        assert!(store.snapshot_due(2), "finalized: the cadence fires");
        store.put_snapshot(peer.ledger_snapshot()).unwrap();
        let snapshot = store.latest_snapshot().unwrap();
        assert_eq!(snapshot.last_block, 2);
        assert_eq!(snapshot.tip_hash, peer.chain().tip_hash());
        assert!(!store.snapshot_due(2), "one snapshot per height");
    }

    #[test]
    fn full_replay_preferred_over_snapshot_when_blocks_complete() {
        let config = StorageConfig::memory().with_snapshot_interval(2);
        let mut store = DurableLedger::open(&config, 0).unwrap();
        let mut live = test_peer();
        for n in 1..=4 {
            commit_and_persist(&mut live, &mut store, vec![endorsed_tx(n, &[])]);
        }
        assert!(store.latest_snapshot().is_some());
        // No compaction: blocks 1..=4 all retained, so replay wins and
        // the recovered ledger is byte-identical (full genesis chain).
        let recovery = store
            .recover(
                FabricValidator::new(),
                EndorsementPolicy::all_of(["org1", "org2"]),
            )
            .unwrap();
        assert!(!recovery.used_snapshot);
        assert_eq!(recovery.peer.snapshot(), live.snapshot());
    }

    #[test]
    fn aof_and_memory_recovery_agree_across_reopen() {
        let dir = temp_dir("agree");
        let aof_config = StorageConfig::append_only(&dir).with_snapshot_interval(4);
        let mem_config = StorageConfig::memory().with_snapshot_interval(4);
        let mut live = test_peer();
        let keys = ["doc".to_string(), "cart".to_string()];
        {
            let mut aof = DurableLedger::open(&aof_config, 3).unwrap();
            let mut mem = DurableLedger::open(&mem_config, 3).unwrap();
            for n in 1..=6 {
                let block = Block::assemble(
                    live.chain().height(),
                    live.chain().tip_hash(),
                    vec![endorsed_tx(n, &keys[..(n as usize % 2 + 1)])],
                );
                let staged = live.process_block(block);
                let tip = live.commit(staged).unwrap().clone();
                aof.append_block(&tip).unwrap();
                mem.append_block(&tip).unwrap();
                if aof.snapshot_due(tip.header.number) {
                    aof.put_snapshot(live.ledger_snapshot()).unwrap();
                }
                if mem.snapshot_due(tip.header.number) {
                    mem.put_snapshot(live.ledger_snapshot()).unwrap();
                }
            }
            let policy = EndorsementPolicy::all_of(["org1", "org2"]);
            let from_mem = mem.recover(FabricValidator::new(), policy.clone()).unwrap();
            assert_eq!(from_mem.peer.snapshot(), live.snapshot());
            // Drop the AOF handle; recovery below re-opens from disk.
        }
        let reopened = DurableLedger::open(&aof_config, 3).unwrap();
        assert_eq!(reopened.latest_snapshot().unwrap().last_block, 4);
        let recovery = reopened
            .recover(
                FabricValidator::new(),
                EndorsementPolicy::all_of(["org1", "org2"]),
            )
            .unwrap();
        assert!(!recovery.used_snapshot, "full run retained: replay wins");
        assert_eq!(recovery.peer.snapshot(), live.snapshot(), "byte-identical");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_config_recovers_after_simulated_crash() {
        let dir = temp_dir("fsync");
        let config = StorageConfig::append_only(&dir)
            .with_fsync(true)
            .with_snapshot_interval(3);
        let mut live = test_peer();
        {
            let mut store = DurableLedger::open(&config, 0).unwrap();
            for n in 1..=5 {
                commit_and_persist(&mut live, &mut store, vec![endorsed_tx(n, &[])]);
            }
            // Simulated crash: the handle drops with no clean shutdown.
        }
        let reopened = DurableLedger::open(&config, 0).unwrap();
        assert_eq!(reopened.latest_snapshot().unwrap().last_block, 3);
        let recovery = reopened
            .recover(
                FabricValidator::new(),
                EndorsementPolicy::all_of(["org1", "org2"]),
            )
            .unwrap();
        assert!(!recovery.used_snapshot, "full run retained: replay wins");
        assert_eq!(recovery.replayed_blocks, 5);
        assert_eq!(recovery.peer.snapshot(), live.snapshot(), "byte-identical");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn channel_stores_use_distinct_files() {
        let dir = temp_dir("channel");
        let config = StorageConfig::append_only(&dir);
        let mut default_peer = test_peer();
        let mut other_peer = test_peer();
        {
            let mut ch0 = DurableLedger::open_channel(&config, ChannelId::DEFAULT, 2).unwrap();
            let mut ch1 = DurableLedger::open_channel(&config, ChannelId(1), 2).unwrap();
            commit_and_persist(&mut default_peer, &mut ch0, vec![endorsed_tx(1, &[])]);
            for n in 1..=2 {
                commit_and_persist(&mut other_peer, &mut ch1, vec![endorsed_tx(10 + n, &[])]);
            }
        }
        // The default channel keeps the historical file name; channel 1
        // gets its own file, and each reopens to its own contents.
        assert!(dir.join("peer-2.aof").exists());
        assert!(dir.join("ch1-peer-2.aof").exists());
        let ch0 = DurableLedger::open_channel(&config, ChannelId::DEFAULT, 2).unwrap();
        let ch1 = DurableLedger::open_channel(&config, ChannelId(1), 2).unwrap();
        assert!(ch0.has_block(1) && !ch0.has_block(2));
        assert!(ch1.has_block(1) && ch1.has_block(2));
        assert_eq!(ch0.retained_blocks().len(), 1);
        assert_eq!(ch1.retained_blocks().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file in `dir`, by name.
    fn files_in(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().into_string().unwrap();
                (name, fs::read(entry.path()).unwrap())
            })
            .collect()
    }

    /// Recovers peer 0 from exactly `files` and checks its state and tip
    /// against `state` and `tip_hash`.
    fn assert_recovers(
        files: &BTreeMap<String, Vec<u8>>,
        state: &WorldState,
        tip_hash: Digest,
        at: &str,
    ) {
        let dir = temp_dir("crash-point");
        fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in files {
            fs::write(dir.join(name), bytes).unwrap();
        }
        let recovery = DurableLedger::open(&StorageConfig::append_only(&dir), 0)
            .unwrap()
            .recover(
                FabricValidator::new(),
                EndorsementPolicy::all_of(["org1", "org2"]),
            )
            .unwrap();
        assert_eq!(recovery.peer.state(), state, "{at}");
        assert_eq!(recovery.peer.chain().tip_hash(), tip_hash, "{at}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash after any file-system step of the segment lifecycle
    /// leaves files that recover the same ledger. The steps, in order:
    /// `append_block` writes a block record (torn at any byte, which
    /// recovers the ledger without that block); `put_snapshot` creates
    /// the next segment, then writes the snapshot into it (torn at any
    /// byte); `compact_up_to` goes through the segments oldest first,
    /// emptying a dead first segment in place, unlinking any other dead
    /// one, and rewriting a partly alive one through a temp file (torn
    /// at any byte) and a rename.
    /// Each prefix of those steps is rebuilt from the files before and
    /// after the call and recovered in a directory of its own. The GC
    /// floor lags the tip by one block, so compaction meets every kind
    /// of step.
    #[test]
    fn every_crash_point_of_the_segment_lifecycle_recovers_the_same_ledger() {
        let dir = temp_dir("lifecycle");
        let config = StorageConfig::append_only(&dir)
            .with_snapshot_interval(3)
            .with_gc(true);
        let mut store = DurableLedger::open(&config, 0).unwrap();
        let mut live = test_peer();
        let mut steps = BTreeMap::new();
        let recovers = |files: &BTreeMap<String, Vec<u8>>, live: &Peer<_>, at: &str| {
            assert_recovers(files, live.state(), live.chain().tip_hash(), at)
        };
        for n in 1..=8 {
            let block = Block::assemble(
                live.chain().height(),
                live.chain().tip_hash(),
                vec![endorsed_tx(n, &["doc".to_string()])],
            );
            let staged = live.process_block(block);
            let (state, tip_hash) = (live.state().clone(), live.chain().tip_hash());
            let tip = live.commit(staged).unwrap().clone();
            let before = files_in(&dir);
            store.append_block(&tip).unwrap();
            let after = files_in(&dir);
            let (name, bytes) = after
                .iter()
                .find(|(name, bytes)| before.get(*name) != Some(*bytes))
                .expect("the append grows a segment");
            for cut in before.get(name).map_or(0, Vec::len)..bytes.len() {
                let mut torn = before.clone();
                torn.insert(name.clone(), bytes[..cut].to_vec());
                let at = format!("block {n}, {cut} bytes");
                assert_recovers(&torn, &state, tip_hash, &at);
            }
            recovers(&after, &live, &format!("block {n}"));

            if store.snapshot_due(n) {
                let before = files_in(&dir);
                store.put_snapshot(live.ledger_snapshot()).unwrap();
                let after = files_in(&dir);
                let (name, bytes) = after
                    .iter()
                    .find(|(name, _)| !before.contains_key(*name))
                    .expect("the snapshot starts a segment");
                for cut in 0..=bytes.len() {
                    let mut torn = before.clone();
                    torn.insert(name.clone(), bytes[..cut].to_vec());
                    recovers(&torn, &live, &format!("snapshot {n}, {cut} bytes"));
                }
            }

            let before = files_in(&dir);
            store.compact_up_to(n - 1).unwrap();
            let after = files_in(&dir);
            let mut state = before.clone();
            let segment = |name: &String| {
                name.strip_prefix("peer-0.aof.")
                    .map_or(0u64, |n| n.parse().unwrap())
            };
            let mut names: Vec<&String> = before.keys().collect();
            names.sort_by_key(|name| segment(name));
            for name in names {
                let at = format!("compaction {n}, {name}");
                let step = match after.get(name) {
                    Some(bytes) if *bytes == before[name] => continue,
                    None => {
                        state.remove(name);
                        "unlink"
                    }
                    Some(bytes) if bytes.is_empty() && segment(name) == 0 => {
                        state.insert(name.clone(), Vec::new());
                        "empty"
                    }
                    Some(bytes) => {
                        for cut in 0..=bytes.len() {
                            let mut temp = state.clone();
                            temp.insert(format!("{name}.compact-tmp"), bytes[..cut].to_vec());
                            recovers(&temp, &live, &format!("{at}, temp at {cut}"));
                        }
                        state.insert(name.clone(), bytes.clone());
                        "rewrite"
                    }
                };
                recovers(&state, &live, &format!("{at}, {step}"));
                *steps.entry(step).or_insert(0) += 1;
            }
            assert_eq!(state, after, "the steps rebuild the files compaction left");
        }
        assert_eq!(steps.len(), 3, "every kind of step ran: {steps:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Property: over randomized CRDT write schedules, snapshot points
    /// and per-peer acknowledgement heights, a store compacted at the
    /// [`AckFrontier`] floor still recovers a peer with identical state
    /// and tip.
    #[test]
    fn gc_at_ack_floor_preserves_everything_above_it() {
        let key_pool: Vec<String> = (0..4).map(|k| format!("key{k}")).collect();
        gen::cases(12, |g| {
            let block_count = g.size(2, 8) as u64;
            let interval = g.size(1, 4) as u64;
            let config = StorageConfig::memory()
                .with_snapshot_interval(interval)
                .with_gc(true);
            let mut store = DurableLedger::open(&config, 0).unwrap();
            let mut live = test_peer();
            let mut nonce = 0u64;
            for _ in 0..block_count {
                let txs = (0..g.size(1, 3))
                    .map(|_| {
                        nonce += 1;
                        let picks = g.size(0, 2);
                        let keys: Vec<String> =
                            (0..picks).map(|_| g.pick(&key_pool).clone()).collect();
                        endorsed_tx(nonce, &keys)
                    })
                    .collect();
                commit_and_persist(&mut live, &mut store, txs);
            }

            // Random acknowledgements from a 3-peer cluster, each at
            // most the committed height.
            let mut frontier = AckFrontier::new();
            for peer in 0..3 {
                frontier.ack(peer, g.range(0, block_count + 1));
            }
            let floor = frontier.min_acked(3);
            assert!(floor <= block_count);

            // The durable store compacts at the floor (clamped to its
            // snapshot) and still recovers to the live ledger.
            store.compact_up_to(floor).unwrap();
            let recovery = store
                .recover(
                    FabricValidator::new(),
                    EndorsementPolicy::all_of(["org1", "org2"]),
                )
                .unwrap();
            assert_eq!(recovery.peer.state(), live.state());
            assert_eq!(recovery.peer.chain().tip_hash(), live.chain().tip_hash());
            assert_eq!(recovery.peer.chain().height(), live.chain().height());
        });
    }
}
