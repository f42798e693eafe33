//! A golden for the faulted, fully replicated deployment: 2 channels ×
//! (6-peer gossip + 3-node Raft + append-only files) with a gossip peer
//! crash, a Raft leader kill and duplicating links on both layers — the
//! benchmark's `replicated-durable` shape and size (1 280 transactions,
//! 26 blocks per channel, one snapshot catch-up each; 2 s in a debug
//! build). Every replica's ledger bytes, every store file and every
//! deterministic counter and simulated-time sample of the two
//! replication layers are pinned, so a change to how blocks travel
//! through Raft or gossip (who owns them, who copies them) must leave
//! all of it untouched. Bytes and timing are pinned apart: a change to
//! what a snapshot or block holds moves the ledger digest and the byte
//! counters (catch-up bytes included), never the simulated-time digest.
//! A legitimate protocol change re-records the literals it moves and
//! says so in CHANGES.md.

use std::sync::Arc;

use fabriccrdt_channel::fabriccrdt_multi_channel;
use fabriccrdt_crypto::hex;
use fabriccrdt_crypto::sha256::Sha256;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::channel::MultiChannelConfig;
use fabriccrdt_fabric::config::{CrashSpec, FaultConfig, PipelineConfig, RaftConfig};
use fabriccrdt_fabric::metrics::CatchUpOutcome;
use fabriccrdt_fabric::storage::StorageConfig;
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::channels::ChannelWorkload;
use fabriccrdt_workload::iot::IotChaincode;

const CHANNELS: usize = 2;
const RATE_TPS: f64 = 300.0;
const SEED_DOC: &[u8] = br#"{"readings":[]}"#;

/// `replicated-durable`'s fault schedule over `span` seconds of
/// traffic — gossip peer 3 down 20 → 60 %, the pre-elected Raft leader
/// down 40 → 70 % — plus duplicating links, so the second schedule of a
/// gossip push and of a Raft message both run.
fn config(span: f64, dir: &std::path::Path) -> MultiChannelConfig {
    let crash = |peer, from: f64, to: f64| CrashSpec {
        peer,
        at: SimTime::from_secs_f64(span * from),
        restart_at: SimTime::from_secs_f64(span * to),
    };
    let mut raft = RaftConfig::calibrated(3);
    raft.faults.crashes.push(crash(0, 0.4, 0.7));
    raft.faults.link.duplicate = 0.1;
    let mut faults = FaultConfig::none();
    faults.crashes.push(crash(3, 0.2, 0.6));
    faults.link.duplicate = 0.2;
    let base = PipelineConfig::paper(25, 42)
        .with_gossip()
        .with_faults(faults)
        .with_raft_config(raft)
        .with_storage(
            StorageConfig::append_only(dir)
                .with_snapshot_interval(10)
                .with_gc(true),
        );
    MultiChannelConfig::uniform(base, CHANNELS)
}

#[test]
fn faulted_replicated_run_matches_the_recorded_golden() {
    let dir = std::env::temp_dir().join(format!("fabriccrdt-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let workload = ChannelWorkload {
        txs_per_client: 160,
        ..ChannelWorkload::paper_defaults(CHANNELS)
    };
    let txs = workload.txs_per_channel();
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    let mut net = fabriccrdt_multi_channel(config(txs as f64 / RATE_TPS, &dir), registry);
    let mut schedules = Vec::new();
    for generated in workload.generate() {
        for key in generated.seed_keys {
            net.seed_state(generated.channel, key, SEED_DOC.to_vec());
        }
        schedules.push(generated.schedule);
    }
    let rollup = net.run(schedules);
    assert_eq!(rollup.total_successful(), CHANNELS * txs);
    net.verify_converged();

    // Every replica's ledger, then every store segment, in a fixed order.
    let mut ledgers = Sha256::new();
    let mut counters = Vec::new();
    let mut samples = Sha256::new();
    {
        let network = net.network();
        for c in 0..CHANNELS {
            let pipeline_peer = net.simulation(c).peer().snapshot();
            ledgers.update(&pipeline_peer.state);
            ledgers.update(&pipeline_peer.chain);
            for peer in 0..network.peer_count() {
                let replica = network.snapshot_on(c, peer).expect("every replica is up");
                ledgers.update(&replica.state);
                ledgers.update(&replica.chain);
            }
        }
    }
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the stores live here")
        .map(|entry| entry.expect("readable entry").path())
        .collect();
    files.sort();
    // A store is a run of segments, `<store>.aof` then `<store>.aof.<n>`:
    // one run per channel × peer, and no temp file a compaction left.
    let mut runs = std::collections::BTreeSet::new();
    for path in &files {
        let name = path.file_name().expect("named").to_string_lossy();
        assert!(!name.contains("compact-tmp"), "stray temp file {name}");
        let (run, segment) = name.split_once(".aof").expect("a store segment");
        let numbered = segment
            .strip_prefix('.')
            .is_some_and(|n| n.parse::<u64>().is_ok());
        assert!(segment.is_empty() || numbered, "not a segment: {name}");
        runs.insert(run.to_owned());
    }
    assert_eq!(runs.len(), CHANNELS * 6, "one run per channel × peer");
    for path in &files {
        ledgers.update(path.file_name().expect("named").as_encoded_bytes());
        ledgers.update(&std::fs::read(path).expect("store file reads back"));
    }

    for channel in &rollup.channels {
        let d = channel.metrics.dissemination.as_ref().expect("gossip ran");
        let o = channel.metrics.ordering.as_ref().expect("raft ran");
        // The schedule bites on every layer the change touches.
        assert!(d.messages_duplicated > 0 && !d.catch_up.is_empty());
        assert!(o.leader_changes >= 1 && o.submission_retries > 0);
        // Per catch-up episode: who caught up and the bytes it took. The
        // bytes are counters, not timing, so a change to what a snapshot
        // holds moves them here and leaves the timing digest alone.
        let catch_up_bytes: Vec<[u64; 3]> = d
            .catch_up
            .iter()
            .map(|episode| {
                let snapshot_bytes = match episode.outcome {
                    CatchUpOutcome::Snapshot { snapshot_bytes, .. } => snapshot_bytes,
                    _ => 0,
                };
                [episode.peer as u64, episode.bytes_shipped, snapshot_bytes]
            })
            .collect();
        counters.push((
            [
                d.messages_sent,
                d.redundant_messages,
                d.messages_dropped,
                d.messages_duplicated,
                d.anti_entropy_transfers,
                d.anti_entropy_blocks,
                d.anti_entropy_bytes,
                d.snapshot_transfers,
                d.snapshot_bytes,
                d.catch_up.len() as u64,
            ],
            [
                o.elections_started,
                o.leader_changes,
                o.final_term,
                o.submission_retries,
                o.messages_sent,
                o.messages_dropped,
                o.commit_latency.len() as u64,
            ],
            catch_up_bytes,
        ));
        // Simulated timing: every block arrival, Raft commit latency and
        // catch-up episode (rejoin, end, how it ended), to the microsecond.
        for sample in d.propagation.iter().chain(&o.commit_latency) {
            samples.update(&sample.as_micros().to_be_bytes());
        }
        for episode in &d.catch_up {
            let kind: u8 = match episode.outcome {
                CatchUpOutcome::Replay { .. } => 0,
                CatchUpOutcome::Snapshot { .. } => 1,
                CatchUpOutcome::Abandoned { .. } => 2,
            };
            samples.update(&episode.from.as_micros().to_be_bytes());
            samples.update(&episode.ended_at().as_micros().to_be_bytes());
            samples.update(&[kind]);
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        hex::encode(&ledgers.finalize()),
        "3c052be6897e97d9f45d93f2d88ae6bf0e0a63bb6c75beaa386976c768846396",
        "a replica's ledger or store file changed"
    );
    assert_eq!(
        counters,
        [
            (
                [450, 467, 0, 108, 1, 1, 18618, 1, 8438, 1],
                [1, 1, 2, 126, 449, 0, 26],
                vec![[3, 18618, 8438]]
            ),
            (
                [450, 459, 0, 103, 1, 1, 18618, 1, 8438, 1],
                [1, 1, 2, 130, 446, 0, 26],
                vec![[3, 18618, 8438]]
            ),
        ],
        "a dissemination or ordering counter changed"
    );
    assert_eq!(
        hex::encode(&samples.finalize()),
        "d745ae77f12257f132f66ca9049106947ef03a0e0fe46dbc7847687a182ca089",
        "a simulated-time sample changed"
    );
}
