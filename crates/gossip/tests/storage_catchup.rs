//! Integration tests of durable peer storage under gossip: crash
//! recovery from in-memory and append-only-file backends, snapshot
//! catch-up byte accounting, frontier-driven GC, and the
//! abandoned-episode accounting for crashes that interrupt a catch-up.

use std::sync::atomic::{AtomicU64, Ordering};

use fabriccrdt::CrdtValidator;
use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::config::{
    CrashSpec, FaultConfig, LinkFaults, PartitionSpec, PipelineConfig, Topology,
};
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::storage::StorageConfig;
use fabriccrdt_gossip::GossipNetwork;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_sim::gen::{self, Gen};
use fabriccrdt_sim::latency::LatencyModel;
use fabriccrdt_sim::time::SimTime;

const SEED_DOC: &[u8] = br#"{"readings":[]}"#;

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

/// An orderer-style raw block stream, numbered from 1.
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

/// The ideal-FIFO outcome: one peer committing the stream in order.
fn reference_snapshot(blocks: &[Block]) -> fabriccrdt_fabric::peer::PeerSnapshot {
    let mut peer = Peer::new(CrdtValidator::new(), Topology::paper().default_policy());
    peer.seed_state("hot", SEED_DOC.to_vec());
    for block in blocks {
        let staged = peer.process_block(block.clone());
        peer.commit(staged).unwrap();
    }
    peer.snapshot()
}

fn seeded_network(config: &PipelineConfig) -> GossipNetwork<CrdtValidator> {
    let mut network = GossipNetwork::new(config, CrdtValidator::new);
    network.seed_state("hot", SEED_DOC);
    network
}

/// Publishes the stream at a 100 ms cadence and drains the network.
fn run_stream(network: &mut GossipNetwork<CrdtValidator>, blocks: &[Block]) {
    for (i, block) in blocks.iter().enumerate() {
        network.publish(SimTime::from_millis(100 * (i as u64 + 1)), block.clone());
    }
    network.drain();
}

/// Every peer's world state must match the ideal-FIFO reference byte
/// for byte; chains are only compared on peers that never installed a
/// snapshot (an installed snapshot legitimately truncates the chain).
fn assert_states_match_reference(network: &GossipNetwork<CrdtValidator>, blocks: &[Block]) {
    assert!(
        network.fully_converged(),
        "heights: {:?}",
        network.committed_heights_on(0)
    );
    let reference = reference_snapshot(blocks);
    for i in 0..network.peer_count() {
        let snap = network.snapshot_on(0, i).expect("peer up after drain");
        assert_eq!(snap.state, reference.state, "peer {i} state diverged");
    }
}

/// A fresh scratch directory for append-only-file backends.
fn temp_dir(label: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fabriccrdt-gossip-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn crash(peer: usize, at_ms: u64, restart_ms: u64) -> CrashSpec {
    CrashSpec {
        peer,
        at: SimTime::from_millis(at_ms),
        restart_at: SimTime::from_millis(restart_ms),
    }
}

/// Regression (satellite): a peer that crashes *while catching up* used
/// to silently drop the in-flight episode, understating catch-up churn
/// under repeated failures. The episode must now be recorded as
/// abandoned — and the post-recovery episode must still complete.
#[test]
fn crash_mid_catch_up_records_abandoned_episode() {
    // Peer 3 is cut off from everyone (including the orderer) for most
    // of the run, so its 450 ms restart starts a catch-up that cannot
    // progress; the second crash at 600 ms interrupts it.
    let faults = FaultConfig {
        crashes: vec![crash(3, 150, 450), crash(3, 600, 700)],
        partitions: vec![PartitionSpec {
            at: SimTime::from_millis(140),
            heal_at: SimTime::from_millis(900),
            minority: vec![3],
        }],
        ..FaultConfig::none()
    };
    let config = PipelineConfig::paper(25, 23)
        .with_gossip()
        .with_faults(faults);
    let blocks = block_stream(8, 4);
    let mut network = seeded_network(&config);
    run_stream(&mut network, &blocks);
    assert_states_match_reference(&network, &blocks);

    let metrics = network.metrics_on(0);
    let abandoned: Vec<_> = metrics
        .catch_up
        .iter()
        .filter(|e| e.peer == 3 && e.is_abandoned())
        .collect();
    assert_eq!(abandoned.len(), 1, "exactly one episode dies in the crash");
    assert_eq!(abandoned[0].from, SimTime::from_millis(450));
    assert_eq!(abandoned[0].ended_at(), SimTime::from_millis(600));
    assert_eq!(
        abandoned[0].completed_at(),
        None,
        "an abandoned episode never completes"
    );
    let completed = metrics
        .catch_up
        .iter()
        .find(|e| e.peer == 3 && e.completed_at().is_some())
        .expect("the second recovery completes a catch-up");
    assert!(completed.from >= SimTime::from_millis(700));
    // The abandoned episode must not poison the worst-case statistic.
    let worst = metrics.worst_catch_up().expect("completed episodes exist");
    assert!(!worst.is_abandoned());
}

/// With durable storage, a restarted peer recovers from its own store
/// (not an in-memory saved ledger) and converges byte-identically; the
/// final run is draw-for-draw identical to the storage-free baseline.
#[test]
fn memory_storage_fault_sweep_matches_no_storage_baseline() {
    gen::cases(20, |g| {
        let blocks = block_stream(g.size(3, 9), g.size(1, 5));
        let base = PipelineConfig::paper(25, g.u64())
            .with_gossip()
            .with_faults(arb_faults(g));

        let mut baseline = seeded_network(&base);
        run_stream(&mut baseline, &blocks);

        let stored_config = base
            .clone()
            .with_storage(StorageConfig::memory().with_snapshot_interval(3));
        let mut stored = seeded_network(&stored_config);
        run_stream(&mut stored, &blocks);

        assert_states_match_reference(&stored, &blocks);
        // The snapshot/replay negotiation draws no randomness, so the
        // two runs consume the PRNG identically and land on the same
        // message totals and per-peer states.
        assert_eq!(
            baseline.metrics_on(0).messages_sent,
            stored.metrics_on(0).messages_sent,
            "storage must not perturb the PRNG draw sequence"
        );
        for i in 0..stored.peer_count() {
            let a = baseline.snapshot_on(0, i).expect("baseline peer up");
            let b = stored.snapshot_on(0, i).expect("stored peer up");
            assert_eq!(a.state, b.state, "peer {i} state diverged");
            if stored.metrics_on(0).snapshot_transfers == 0 {
                assert_eq!(a.chain, b.chain, "peer {i} chain diverged");
            }
        }
    });
}

/// Append-only-file recovery sweep: across random crash schedules, an
/// AOF-backed network converges to states byte-identical to both the
/// reference replay and a memory-backed run of the same seed — the
/// backend choice is invisible above the store.
#[test]
fn aof_and_memory_backends_converge_identically_under_crashes() {
    gen::cases(8, |g| {
        let blocks = block_stream(g.size(3, 7), g.size(1, 4));
        let at = g.range(120, 400);
        let faults = FaultConfig {
            crashes: vec![crash(g.range(0, 6) as usize, at, at + g.range(50, 400))],
            ..FaultConfig::none()
        };
        let base = PipelineConfig::paper(25, g.u64())
            .with_gossip()
            .with_faults(faults);
        let interval = g.range(2, 5);

        let dir = temp_dir("sweep");
        let aof_config = base
            .clone()
            .with_storage(StorageConfig::append_only(&dir).with_snapshot_interval(interval));
        let mut aof = seeded_network(&aof_config);
        run_stream(&mut aof, &blocks);

        let mem_config = base
            .clone()
            .with_storage(StorageConfig::memory().with_snapshot_interval(interval));
        let mut mem = seeded_network(&mem_config);
        run_stream(&mut mem, &blocks);

        assert_states_match_reference(&aof, &blocks);
        for i in 0..aof.peer_count() {
            assert_eq!(
                aof.snapshot_on(0, i).expect("aof peer up"),
                mem.snapshot_on(0, i).expect("mem peer up"),
                "peer {i}: AOF and memory backends diverged"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// A long outage over a long chain: the restarted peer must be served a
/// snapshot (strictly cheaper in bytes than replaying the suffix), and
/// the episode's byte accounting must show the saving against the
/// storage-free replay baseline.
#[test]
fn snapshot_catch_up_ships_fewer_bytes_than_replay() {
    let faults = FaultConfig {
        crashes: vec![crash(3, 150, 3050)],
        ..FaultConfig::none()
    };
    let base = PipelineConfig::paper(25, 29)
        .with_gossip()
        .with_faults(faults);
    let blocks = block_stream(30, 3);

    let mut replay_run = seeded_network(&base);
    run_stream(&mut replay_run, &blocks);
    let replay_episode = replay_run
        .metrics_on(0)
        .catch_up
        .iter()
        .find(|e| e.peer == 3 && e.completed_at().is_some())
        .copied()
        .expect("storage-free run catches up by replay");
    assert!(!replay_episode.used_snapshot());
    assert!(replay_episode.bytes_shipped > 0);

    let stored_config = base
        .clone()
        .with_storage(StorageConfig::memory().with_snapshot_interval(5));
    let mut stored = seeded_network(&stored_config);
    run_stream(&mut stored, &blocks);
    assert_states_match_reference(&stored, &blocks);

    let metrics = stored.metrics_on(0);
    assert!(metrics.snapshot_transfers >= 1, "no snapshot was served");
    assert!(metrics.snapshot_bytes > 0);
    let episode = metrics
        .catch_up
        .iter()
        .find(|e| e.peer == 3 && e.completed_at().is_some())
        .expect("stored run completes catch-up");
    assert!(
        episode.used_snapshot(),
        "a 29-block gap must be served by snapshot"
    );
    assert!(
        episode.bytes_shipped < replay_episode.bytes_shipped,
        "snapshot catch-up shipped {} bytes, replay {}",
        episode.bytes_shipped,
        replay_episode.bytes_shipped
    );
    // The restarted peer adopted the donor snapshot into its own store.
    let adopted = stored
        .durable_snapshot_on(0, 3)
        .expect("peer 3 holds a durable snapshot");
    assert!(adopted.last_block >= 5);
}

/// Frontier-driven GC: once every replica acknowledges a height, the
/// cluster floor advances and peers compact their stores at it —
/// without disturbing the committed state or convergence.
#[test]
fn gc_sweep_prunes_at_the_acknowledged_floor_without_divergence() {
    gen::cases(10, |g| {
        let blocks = block_stream(g.size(4, 9), g.size(1, 4));
        let config = PipelineConfig::paper(25, g.u64())
            .with_gossip()
            .with_faults(arb_faults(g))
            .with_storage(
                StorageConfig::memory()
                    .with_snapshot_interval(g.range(2, 4))
                    .with_gc(true),
            );
        let mut network = seeded_network(&config);
        run_stream(&mut network, &blocks);
        assert_states_match_reference(&network, &blocks);
        // Fully converged and fully acknowledged: the floor is the
        // whole published chain.
        assert_eq!(network.acked_floor_on(0), network.published_count_on(0));
    });
}

/// A fully endorsed CRDT transaction appending an explicit reading
/// value (sized by the caller) to the shared hot key.
fn endorsed_tx_on_key(nonce: u64, key: &str, reading: &str) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record(key, Some(Height::new(0, 0)));
    rwset.writes.put_crdt(
        key.to_string(),
        format!(r#"{{"readings":["{reading}"]}}"#).into_bytes(),
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

/// Regression (satellite): a helper whose in-memory chain base moved up
/// (it recovered through its own durable snapshot) used to be unable to
/// serve replay below that base even though its store still retained
/// the blocks — forcing every lagging peer it helped onto the
/// snapshot path. Anti-entropy must fall back to reading the suffix
/// from the helper's `LedgerStore`.
///
/// Setup (40 ms cadence so every block commits before the first 500 ms
/// anti-entropy tick, block by block): peer 1 crashes at height 1 and
/// peer 5 at height 2, pinning the frontier floor; peer 1 recovers
/// mid-stream, advancing the floor to 2 while commits are still
/// running, so every live peer compacts its store down to
/// `blocks 3.. + snapshots`. Helper peer 3 — holding
/// `snap(4) + snap(8) + blocks 3..10` — then crashes and recovers from
/// its own store: a snapshot-path recovery (blocks 3..10 are not
/// contiguous from 1), leaving its in-memory chain based at block 9
/// while the store still retains 3..10. Peer 5 finally restarts at
/// height 2 inside a partition where peer 3 is the only reachable
/// helper and the orderer is unreachable. Blocks 1–2 carry fat CRDT
/// payloads that persist in the world state (making every snapshot
/// expensive) while blocks 3..10 are small — so the byte negotiation
/// must pick replay of 3..10, which only the helper's *store* can
/// serve.
#[test]
fn snapshot_recovered_helper_serves_replay_from_its_store() {
    let faults = FaultConfig {
        crashes: vec![
            crash(1, 58, 180),  // pins the floor at 1, then releases it
            crash(5, 95, 2000), // the lagging peer, pinned at height 2
            crash(3, 450, 550), // the helper; recovers via its snapshot
        ],
        partitions: vec![PartitionSpec {
            at: SimTime::from_millis(500),
            heal_at: SimTime::from_millis(3000),
            minority: vec![3, 5],
        }],
        ..FaultConfig::none()
    };
    let config = PipelineConfig::paper(25, 17)
        .with_gossip()
        .with_faults(faults)
        .with_storage(
            StorageConfig::memory()
                .with_snapshot_interval(4)
                .with_gc(true),
        );
    let fat = "x".repeat(24_000);
    let blocks: Vec<Block> = (1..=10u64)
        .map(|n| {
            let reading = if n <= 2 {
                format!("r{n}-{fat}")
            } else {
                format!("r{n}")
            };
            let key = format!("k{n}");
            Block::assemble(n, [0; 32], vec![endorsed_tx_on_key(n, &key, &reading)])
        })
        .collect();
    let mut network = seeded_network(&config);
    for (i, block) in blocks.iter().enumerate() {
        network.publish(SimTime::from_millis(40 * (i as u64 + 1)), block.clone());
    }
    network.drain();
    assert_states_match_reference(&network, &blocks);

    // The wedge actually existed: the helper's chain was rebased onto
    // its own snap(8), so blocks 3..8 could only have come from its
    // store.
    let helper = network.peer_on(0, 3).expect("helper up after drain");
    assert!(
        helper.chain().block(8).is_none(),
        "helper chain was not truncated; the scenario lost its wedge"
    );
    assert!(helper.chain().block(9).is_some());

    let episode = network
        .metrics_on(0)
        .catch_up
        .iter()
        .find(|e| e.peer == 5 && e.completed_at().is_some())
        .expect("the lagging peer completes its catch-up");
    assert!(
        !episode.used_snapshot(),
        "catch-up must be served by store-backed replay, not a snapshot"
    );
    assert!(episode.bytes_shipped > 0);
}

fn arb_faults(g: &mut Gen) -> FaultConfig {
    let mut faults = FaultConfig {
        link: LinkFaults {
            drop: g.f64_in(0.0, 0.45),
            duplicate: g.f64_in(0.0, 0.25),
            extra_delay: if g.flip() {
                LatencyModel::Exponential {
                    mean_secs: g.f64_in(0.0005, 0.003),
                }
            } else {
                LatencyModel::zero()
            },
        },
        crashes: Vec::new(),
        partitions: Vec::new(),
    };
    if g.flip() {
        let at = SimTime::from_millis(g.range(50, 500));
        faults.crashes.push(CrashSpec {
            peer: g.range(0, 6) as usize,
            at,
            restart_at: at + SimTime::from_millis(g.range(50, 500)),
        });
    }
    if g.flip() {
        let minority: Vec<usize> = (0..6).filter(|_| g.prob(0.35)).collect();
        let minority = if minority.is_empty() || minority.len() == 6 {
            vec![g.range(0, 6) as usize]
        } else {
            minority
        };
        let at = SimTime::from_millis(g.range(50, 400));
        faults.partitions.push(PartitionSpec {
            at,
            heal_at: at + SimTime::from_millis(g.range(50, 600)),
            minority,
        });
    }
    faults
}
