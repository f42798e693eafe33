//! Running the FabricCRDT pipeline over the gossip dissemination layer
//! with fault injection.
//!
//! The default simulation hands every orderer-cut block to the
//! committing peer over an ideal FIFO channel. This example swaps in
//! the `fabriccrdt-gossip` delivery layer — leader pull from the
//! orderer, push gossip among peers, pull-based anti-entropy (Fabric
//! §4.4) — and injects faults: lossy links, a peer crash with restart,
//! and a network partition that heals mid-run.
//!
//! The punchline is the paper's determinism argument carried to the
//! dissemination layer: every replica re-seals every block identically
//! (Algorithm 1 is deterministic), so no matter how blocks reach a peer
//! — pushed raw, re-requested from the orderer, or state-transferred as
//! committed blocks after a heal — all replicas end on **byte-identical
//! ledgers**, and every transaction still commits.
//!
//! This demo is a thin wrapper around the integration test
//! `crates/gossip/tests/partition_pipeline.rs`, which asserts the same
//! scenario (all 250 commits, faults observed and repaired,
//! determinism) on every CI run.
//!
//! Run with: `cargo run --release --example gossip_partition`

use std::sync::Arc;

use fabriccrdt_repro::channel::assemble;
use fabriccrdt_repro::fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_repro::fabric::config::{
    CrashSpec, FaultConfig, LinkFaults, PartitionSpec, PipelineConfig,
};
use fabriccrdt_repro::fabriccrdt::CrdtValidator;
use fabriccrdt_repro::sim::latency::LatencyModel;
use fabriccrdt_repro::sim::time::SimTime;
use fabriccrdt_repro::workload::iot::IotChaincode;

fn main() {
    // Fault schedule: every peer-to-peer push has a 20 % drop and 5 %
    // duplication chance; peer 2 crashes at 250 ms and restarts at
    // 700 ms (its ledger survives, its in-flight buffer does not);
    // peers 4 and 5 are cut off from the majority *and* the orderer
    // between 400 ms and 1 s.
    let faults = FaultConfig {
        link: LinkFaults {
            drop: 0.20,
            duplicate: 0.05,
            extra_delay: LatencyModel::Constant(SimTime::ZERO),
        },
        crashes: vec![CrashSpec {
            peer: 2,
            at: SimTime::from_millis(250),
            restart_at: SimTime::from_millis(700),
        }],
        partitions: vec![PartitionSpec {
            at: SimTime::from_millis(400),
            heal_at: SimTime::from_millis(1_000),
            minority: vec![4, 5],
        }],
    };

    let config = PipelineConfig::paper(25, 7)
        .with_gossip()
        .with_faults(faults);

    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    let mut sim = assemble(config, registry, CrdtValidator::new);
    sim.seed_state("device1", br#"{"readings":[]}"#.to_vec());

    // 250 all-conflicting CRDT transactions on one hot key at 300 tx/s.
    let schedule = IotChaincode::hot_key_schedule("device1", 250, 300.0);

    let metrics = sim.run(schedule);
    println!(
        "pipeline: {}/{} committed over {} blocks (every CRDT tx merges — \
         faults cost latency, not correctness)",
        metrics.successful(),
        metrics.submitted(),
        metrics.blocks_committed,
    );
    assert_eq!(metrics.successful(), 250);

    let dissemination = metrics
        .dissemination
        .expect("the gossip layer reports dissemination metrics");
    let propagation = dissemination.propagation_summary();
    println!(
        "dissemination: p50 {:.2} ms, p99 {:.2} ms to reach a peer; \
         {} pushes sent, {} dropped, {} duplicated (redundancy {:.2})",
        propagation.percentile(50.0).unwrap_or(0.0) * 1e3,
        propagation.percentile(99.0).unwrap_or(0.0) * 1e3,
        dissemination.messages_sent,
        dissemination.messages_dropped,
        dissemination.messages_duplicated,
        dissemination.redundancy_ratio(),
    );
    println!(
        "anti-entropy repaired the faults: {} transfers carrying {} blocks",
        dissemination.anti_entropy_transfers, dissemination.anti_entropy_blocks,
    );
    for episode in &dissemination.catch_up {
        println!(
            "  peer {} fell behind at {:.0} ms, caught up {:.1} ms later",
            episode.peer,
            episode.from.as_millis_f64(),
            episode.duration().as_millis_f64(),
        );
    }
}
