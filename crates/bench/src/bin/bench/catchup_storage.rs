//! Snapshot-based catch-up vs full block replay: the wire-byte cost of
//! repairing a peer that missed most of the chain.
//!
//! A peer crashes right after the first block and restarts after the
//! whole stream is published. Without snapshots (a storage-free run's
//! replicas keep in-memory stores that take none) the anti-entropy
//! layer can only replay the missing block suffix — cost linear in
//! chain length *and* transaction size. With durable storage, helpers
//! hold periodic `LedgerSnapshot`s, and the catch-up negotiation
//! ships `(snapshot, frontier delta, post-snapshot suffix)` whenever
//! that is strictly cheaper in bytes. For a CRDT workload the merged
//! document grows far slower than the endorsed transaction log, so the
//! saving widens with chain length; the bench asserts the snapshot
//! path wins from 100 blocks on.
//!
//! Protocol, per chain length:
//!
//! 1. Build an orderer-style block stream of all-conflicting CRDT
//!    transactions on one hot key.
//! 2. Replay it through two gossip networks with an identical crash
//!    schedule — one storage-free (replay catch-up), one with
//!    in-memory durable storage snapshotting every 10 blocks — and
//!    compare the restarted peer's catch-up episode byte accounting.
//! 3. Verify both networks converge every replica's world state to the
//!    ideal-FIFO reference, byte for byte.
//! 4. At the longest chain, run the same schedule against the
//!    append-only-file backend and assert it lands on exactly the
//!    same per-peer ledgers as the in-memory backend.
//!
//! Emits `BENCH_catchup_storage.json`.

use std::sync::atomic::{AtomicU64, Ordering};

use fabriccrdt::CrdtValidator;
use fabriccrdt_bench::{obj, report, HarnessOptions};
use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::config::{CrashSpec, FaultConfig, PipelineConfig, Topology};
use fabriccrdt_fabric::metrics::CatchUpEpisode;
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::storage::StorageConfig;
use fabriccrdt_gossip::GossipNetwork;
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_sim::time::SimTime;

const SEED_DOC: &[u8] = br#"{"readings":[]}"#;
const CHAIN_LENGTHS: [usize; 3] = [25, 50, 100];
const SNAPSHOT_INTERVAL: u64 = 10;
const CRASHED_PEER: usize = 3;

/// A fully endorsed CRDT transaction on the shared hot key.
fn endorsed_tx(nonce: u64) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record("hot", Some(Height::new(0, 0))); // stale on purpose
    rwset.writes.put_crdt(
        "hot".to_string(),
        format!(r#"{{"readings":["r{nonce}"]}}"#).into_bytes(),
    );
    let mut tx = Transaction {
        id: TxId::derive(&client, nonce, "cc"),
        client,
        chaincode: "cc".into(),
        rwset,
        endorsements: Vec::new(),
    };
    let payload = tx.response_payload();
    for org in ["org1", "org2", "org3"] {
        let kp = KeyPair::derive(Identity::new("peer0", org));
        tx.endorsements.push(Endorsement {
            endorser: kp.identity().clone(),
            signature: kp.sign(&payload),
        });
    }
    tx
}

fn block_stream(blocks: usize, per_block: usize) -> Vec<Block> {
    let mut nonce = 0u64;
    (1..=blocks as u64)
        .map(|number| {
            let txs = (0..per_block)
                .map(|_| {
                    nonce += 1;
                    endorsed_tx(nonce)
                })
                .collect();
            Block::assemble(number, [0; 32], txs)
        })
        .collect()
}

/// The ideal-FIFO reference: one peer committing the stream in order.
fn reference_state(blocks: &[Block]) -> Vec<u8> {
    let mut peer = Peer::new(CrdtValidator::new(), Topology::paper().default_policy());
    peer.seed_state("hot", SEED_DOC.to_vec());
    for block in blocks {
        let staged = peer.process_block(block.clone());
        peer.commit(staged).unwrap();
    }
    peer.snapshot().state
}

/// The fault schedule: the observed peer misses all but the first
/// block and restarts 50 ms after the last publish.
fn faults(chain: usize) -> FaultConfig {
    FaultConfig {
        crashes: vec![CrashSpec {
            peer: CRASHED_PEER,
            at: SimTime::from_millis(150),
            restart_at: SimTime::from_millis(100 * chain as u64 + 50),
        }],
        ..FaultConfig::none()
    }
}

/// Runs the stream through a network built from `config` and returns
/// the restarted peer's completed catch-up episode plus the network.
fn run_stream(
    config: &PipelineConfig,
    blocks: &[Block],
) -> (GossipNetwork<CrdtValidator>, CatchUpEpisode) {
    let mut network = GossipNetwork::new(config, CrdtValidator::new);
    network.seed_state("hot", SEED_DOC);
    for (i, block) in blocks.iter().enumerate() {
        network.publish(SimTime::from_millis(100 * (i as u64 + 1)), block.clone());
    }
    network.drain();
    assert!(
        network.fully_converged(),
        "heights: {:?}",
        network.committed_heights()
    );
    let episode = network
        .metrics()
        .catch_up
        .iter()
        .find(|e| e.peer == CRASHED_PEER && e.completed_at().is_some())
        .copied()
        .expect("the restarted peer completes a catch-up episode");
    (network, episode)
}

/// A fresh scratch directory for the append-only-file backend.
fn temp_dir() -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fabriccrdt-bench-catchup-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

struct Cell {
    blocks: usize,
    txs: usize,
    replay_bytes: u64,
    snapshot_bytes: u64,
    used_snapshot: bool,
    saving_ratio: f64,
}

pub fn run(options: &HarnessOptions) -> Result<(), String> {
    let per_block = (options.config.total_txs / 100).clamp(2, 10);

    println!("Catch-up cost: full block replay vs durable snapshot transfer");
    println!(
        "workload: all-conflicting CRDT txs on one hot key, {per_block} txs/block, \
         snapshot every {SNAPSHOT_INTERVAL} blocks, peer {CRASHED_PEER} crashes \
         after block 1 and restarts after the stream (seed {})",
        options.config.seed
    );
    println!(
        "{:>7} {:>6} {:>14} {:>16} {:>9} {:>10}",
        "blocks", "txs", "replay bytes", "snapshot bytes", "saving", "mode"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &chain in &CHAIN_LENGTHS {
        let blocks = block_stream(chain, per_block);
        let reference = reference_state(&blocks);
        let base = PipelineConfig::paper(25, options.config.seed)
            .with_gossip()
            .with_faults(faults(chain));

        let (replay_network, replay_episode) = run_stream(&base, &blocks);
        let stored_config = base
            .clone()
            .with_storage(StorageConfig::memory().with_snapshot_interval(SNAPSHOT_INTERVAL));
        let (stored_network, stored_episode) = run_stream(&stored_config, &blocks);

        for network in [&replay_network, &stored_network] {
            for i in 0..network.peer_count() {
                let snap = network.snapshot(i).expect("peer up after drain");
                assert_eq!(snap.state, reference, "peer {i} state diverged");
            }
        }

        let saving_ratio =
            stored_episode.bytes_shipped as f64 / replay_episode.bytes_shipped as f64;
        println!(
            "{:>7} {:>6} {:>14} {:>16} {:>8.1}% {:>10}",
            chain,
            chain * per_block,
            replay_episode.bytes_shipped,
            stored_episode.bytes_shipped,
            (1.0 - saving_ratio) * 100.0,
            if stored_episode.used_snapshot() {
                "snapshot"
            } else {
                "replay"
            },
        );
        cells.push(Cell {
            blocks: chain,
            txs: chain * per_block,
            replay_bytes: replay_episode.bytes_shipped,
            snapshot_bytes: stored_episode.bytes_shipped,
            used_snapshot: stored_episode.used_snapshot(),
            saving_ratio,
        });
    }

    // The headline claim: at a 100-block chain the snapshot path is
    // chosen and strictly cheaper than replaying the suffix.
    let at_100 = cells
        .iter()
        .find(|c| c.blocks >= 100)
        .expect("the 100-block cell ran");
    assert!(
        at_100.used_snapshot,
        "at {} blocks the negotiation must pick the snapshot",
        at_100.blocks
    );
    assert!(
        at_100.snapshot_bytes < at_100.replay_bytes,
        "snapshot catch-up shipped {} bytes, replay {}",
        at_100.snapshot_bytes,
        at_100.replay_bytes
    );

    // Backend equivalence at the longest chain: the append-only file
    // store must land on exactly the ledgers the memory store does.
    let longest = *CHAIN_LENGTHS.last().expect("chain lengths nonempty");
    let blocks = block_stream(longest, per_block);
    let base = PipelineConfig::paper(25, options.config.seed)
        .with_gossip()
        .with_faults(faults(longest));
    let dir = temp_dir();
    let aof_config = base
        .clone()
        .with_storage(StorageConfig::append_only(&dir).with_snapshot_interval(SNAPSHOT_INTERVAL));
    let (aof_network, _) = run_stream(&aof_config, &blocks);
    let mem_config =
        base.with_storage(StorageConfig::memory().with_snapshot_interval(SNAPSHOT_INTERVAL));
    let (mem_network, _) = run_stream(&mem_config, &blocks);
    for i in 0..aof_network.peer_count() {
        assert_eq!(
            aof_network.snapshot(i).expect("aof peer up"),
            mem_network.snapshot(i).expect("mem peer up"),
            "peer {i}: AOF and memory backends diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("append-only-file backend byte-identical to memory at {longest} blocks");

    // ---- BENCH_catchup_storage.json --------------------------------
    let cells_json = cells.iter().map(|c| {
        obj([
            ("blocks", (c.blocks as f64).into()),
            ("txs", (c.txs as f64).into()),
            ("replay_bytes", (c.replay_bytes as f64).into()),
            ("snapshot_bytes", (c.snapshot_bytes as f64).into()),
            ("used_snapshot", c.used_snapshot.into()),
            ("bytes_ratio", c.saving_ratio.into()),
        ])
    });
    let json = obj([
        ("bench", "catchup_storage".into()),
        ("seed", (options.config.seed as f64).into()),
        ("txs_per_block", (per_block as f64).into()),
        ("snapshot_interval", (SNAPSHOT_INTERVAL as f64).into()),
        ("crashed_peer", (CRASHED_PEER as f64).into()),
        (
            "snapshot_saving_at_100_blocks",
            (1.0 - at_100.saving_ratio).into(),
        ),
        ("cells", Value::list(cells_json)),
    ]);
    let last_cell = cells.len() - 1;
    report(
        "BENCH_catchup_storage.json",
        &json,
        &[
            "snapshot_saving_at_100_blocks",
            "cells.0.replay_bytes",
            "cells.0.snapshot_bytes",
            &format!("cells.{last_cell}.used_snapshot"),
        ],
    )?;
    println!("wrote BENCH_catchup_storage.json ({} cells)", cells.len());
    Ok(())
}
