//! Partition-and-heal experiment for the gossip dissemination layer.
//!
//! The paper's experiments assume every peer sees every block (ideal
//! FIFO delivery). This experiment stresses the assumption that makes
//! FabricCRDT safe to run over Fabric's *real* dissemination substrate
//! (§4.4 of the Fabric paper: leader pull, push gossip, anti-entropy):
//! because Algorithm 1 merges CRDT write sets deterministically, every
//! replica seals every block's commit record identically, so a partitioned minority
//! that catches up via anti-entropy state transfer lands on
//! **byte-identical** ledgers.
//!
//! Protocol:
//!
//! 1. Run the FabricCRDT pipeline under ideal delivery and log the
//!    orderer's block stream (the workload: 300 all-conflicting CRDT
//!    transactions on one hot key).
//! 2. Replay that stream through two standalone gossip networks — one
//!    fault-free, one where peers 4 and 5 are partitioned from the
//!    majority and the orderer for a window mid-run — and drain both.
//! 3. Verify all six replicas of each network converge to ledgers that
//!    are byte-identical to each other *and* to the pipeline's peer.
//! 4. Report dissemination metrics: propagation percentiles, redundancy
//!    ratio, and the catch-up episodes the heal triggered.

use std::sync::Arc;

use fabriccrdt::CrdtValidator;
use fabriccrdt_bench::HarnessOptions;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::config::{FaultConfig, PartitionSpec, PipelineConfig};
use fabriccrdt_fabric::metrics::DisseminationMetrics;
use fabriccrdt_fabric::simulation::{Simulation, TxRequest};
use fabriccrdt_gossip::GossipNetwork;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::iot::IotChaincode;

const SEED_DOC: &[u8] = br#"{"readings":[]}"#;
const TXS: usize = 300;
const PARTITION_AT_MS: u64 = 300;
const HEAL_AT_MS: u64 = 1_200;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig::paper(25, 29)
}

fn schedule() -> Vec<(SimTime, TxRequest)> {
    IotChaincode::hot_key_schedule("device1", TXS, 300.0)
}

/// Replays the logged block stream through a gossip network built from
/// `config`, drains it, and returns the final metrics.
fn replay(
    config: &PipelineConfig,
    log: &[(SimTime, Block)],
) -> (GossipNetwork<CrdtValidator>, DisseminationMetrics) {
    let mut network = GossipNetwork::new(config, CrdtValidator::new);
    network.seed_state("device1", SEED_DOC);
    for (cut_at, block) in log {
        network.publish(*cut_at, block.clone());
    }
    network.drain();
    let metrics = network.take_metrics();
    (network, metrics)
}

fn report(label: &str, network: &GossipNetwork<CrdtValidator>, metrics: &DisseminationMetrics) {
    println!("--- {label} ---");
    let propagation = metrics.propagation_summary();
    println!(
        "  propagation latency: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, max {:.2} ms ({} deliveries)",
        propagation.percentile(50.0).unwrap_or(0.0) * 1e3,
        propagation.percentile(95.0).unwrap_or(0.0) * 1e3,
        propagation.percentile(99.0).unwrap_or(0.0) * 1e3,
        propagation.max().unwrap_or(0.0) * 1e3,
        propagation.count(),
    );
    println!(
        "  messages: {} sent, {} redundant (ratio {:.3}), {} dropped, {} duplicated",
        metrics.messages_sent,
        metrics.redundant_messages,
        metrics.redundancy_ratio(),
        metrics.messages_dropped,
        metrics.messages_duplicated,
    );
    println!(
        "  anti-entropy: {} transfers carrying {} blocks",
        metrics.anti_entropy_transfers, metrics.anti_entropy_blocks,
    );
    if metrics.catch_up.is_empty() {
        println!("  catch-up episodes: none");
    } else {
        for episode in &metrics.catch_up {
            let end = if episode.is_abandoned() {
                "abandoned (crash)"
            } else if episode.used_snapshot() {
                "caught up via snapshot"
            } else {
                "caught up via replay"
            };
            println!(
                "  catch-up: peer {} behind at {:.1} ms, {end} at {:.1} ms ({:.1} ms, {} bytes shipped)",
                episode.peer,
                episode.from.as_millis_f64(),
                episode.ended_at().as_millis_f64(),
                episode.duration().as_millis_f64(),
                episode.bytes_shipped,
            );
        }
    }
    println!(
        "  committed heights: {:?} (published {})",
        network.committed_heights(),
        network.published_count(),
    );
}

/// Asserts every replica's serialized ledger equals the reference
/// snapshot, byte for byte.
fn assert_byte_identical(
    label: &str,
    network: &GossipNetwork<CrdtValidator>,
    reference: &fabriccrdt_fabric::peer::PeerSnapshot,
) {
    assert!(network.fully_converged(), "{label}: not converged");
    for index in 0..network.peer_count() {
        let snapshot = network.snapshot(index).expect("peer is up after drain");
        assert_eq!(
            snapshot.state, reference.state,
            "{label}: peer {index} world state diverged"
        );
        assert_eq!(
            snapshot.chain, reference.chain,
            "{label}: peer {index} chain diverged"
        );
    }
    println!(
        "  reconvergence: all {} ledgers byte-identical ✓",
        network.peer_count()
    );
}

pub fn run(_: &HarnessOptions) -> Result<(), String> {
    println!("Partition-and-heal: gossip dissemination under FabricCRDT");
    println!(
        "workload: {TXS} conflicting CRDT txs on one key; partition peers [4, 5] \
         during [{PARTITION_AT_MS} ms, {HEAL_AT_MS} ms)\n"
    );

    // 1. Pipeline run under ideal delivery; log the block stream.
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    let mut sim = Simulation::new(pipeline_config(), CrdtValidator::new(), registry);
    sim.seed_state("device1", SEED_DOC.to_vec());
    sim.enable_block_log();
    let run = sim.run(schedule());
    let log = sim.take_block_log();
    let reference = sim.peer().snapshot();
    println!(
        "pipeline: {} committed over {} blocks, end at {:.1} ms\n",
        run.successful(),
        run.blocks_committed,
        run.end_time.as_millis_f64(),
    );

    // 2a. Fault-free gossip replay.
    let baseline_config = pipeline_config().with_gossip();
    let (baseline_net, baseline) = replay(&baseline_config, &log);
    report("gossip, no faults", &baseline_net, &baseline);
    assert_byte_identical("no faults", &baseline_net, &reference);
    println!();

    // 2b. Partition peers 4 and 5 mid-run, heal later.
    let partition = FaultConfig {
        partitions: vec![PartitionSpec {
            at: SimTime::from_millis(PARTITION_AT_MS),
            heal_at: SimTime::from_millis(HEAL_AT_MS),
            minority: vec![4, 5],
        }],
        ..FaultConfig::none()
    };
    let faulty_config = pipeline_config().with_gossip().with_faults(partition);
    let (faulty_net, faulty) = replay(&faulty_config, &log);
    report("gossip, partition + heal", &faulty_net, &faulty);
    assert_byte_identical("partition + heal", &faulty_net, &reference);

    let worst = faulty
        .worst_catch_up()
        .expect("the heal triggers catch-up episodes");
    assert!(
        worst.from >= SimTime::from_millis(HEAL_AT_MS),
        "catch-up starts at the heal"
    );
    println!(
        "\nworst catch-up after heal: peer {} in {:.1} ms",
        worst.peer,
        worst.duration().as_millis_f64(),
    );
    Ok(())
}
