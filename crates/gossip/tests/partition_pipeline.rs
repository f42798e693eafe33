//! The full FabricCRDT pipeline over gossip dissemination under a
//! combined fault schedule — lossy links, a mid-run crash/restart, and
//! a partition that heals. This is the integration-test promotion of
//! `examples/gossip_partition.rs` (kept as a thin demo wrapper): every
//! CRDT transaction must still commit, and the dissemination metrics
//! must show the faults actually happened and were repaired.

use std::sync::Arc;

use fabriccrdt::CrdtValidator;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::config::{
    CrashSpec, FaultConfig, LinkFaults, PartitionSpec, PipelineConfig,
};
use fabriccrdt_fabric::metrics::RunMetrics;
use fabriccrdt_fabric::simulation::{Simulation, SingleOrderer, TxRequest};
use fabriccrdt_gossip::{GossipDelivery, GossipNetwork};
use fabriccrdt_sim::latency::LatencyModel;
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::iot::IotChaincode;

const TXS: usize = 250;
const RATE_TPS: f64 = 300.0;

/// The example's fault schedule: 20 % drop / 5 % duplication on every
/// gossip hop, peer 2 down 250–700 ms, peers 4–5 partitioned off
/// 400 ms–1 s.
fn faults() -> FaultConfig {
    FaultConfig {
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
    }
}

fn run(seed: u64) -> RunMetrics {
    let config = PipelineConfig::paper(25, seed)
        .with_gossip()
        .with_faults(faults());
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    let network = GossipNetwork::new(&config, CrdtValidator::new);
    let delivery = Box::new(GossipDelivery::new(network));
    let ordering = Box::new(SingleOrderer::from_config(&config));
    let mut sim =
        Simulation::with_layers(config, CrdtValidator::new(), registry, delivery, ordering);
    sim.seed_state("device1", br#"{"readings":[]}"#.to_vec());

    // All-conflicting CRDT transactions on one hot key.
    let schedule: Vec<(SimTime, TxRequest)> = (0..TXS)
        .map(|i| {
            let json = format!(r#"{{"deviceID":"device1","readings":["r{i}"]}}"#);
            (
                SimTime::from_secs_f64(i as f64 / RATE_TPS),
                TxRequest::new(
                    "iot-crdt",
                    IotChaincode::args(&["device1".into()], &["device1".into()], &json),
                ),
            )
        })
        .collect();
    sim.run(schedule)
}

#[test]
fn faulty_gossip_commits_every_crdt_transaction() {
    let metrics = run(7);
    assert_eq!(metrics.submitted(), TXS);
    // The paper's punchline carried through faults: CRDT merges mean
    // faults cost latency, never correctness.
    assert_eq!(metrics.successful(), TXS);
    assert!(metrics.blocks_committed >= (TXS / 25) as u64);
}

#[test]
fn dissemination_metrics_reflect_the_fault_schedule() {
    let metrics = run(7);
    let d = metrics
        .dissemination
        .expect("the gossip layer reports dissemination metrics");
    // A 20 % drop rate over hundreds of pushes must lose some.
    assert!(d.messages_sent > 0);
    assert!(d.messages_dropped > 0, "lossy links dropped nothing?");
    assert!(d.messages_duplicated > 0, "5% duplication produced none?");
    // The crashed peer and the partitioned minority must have been
    // repaired by anti-entropy, and every catch-up must complete.
    assert!(d.anti_entropy_transfers > 0, "no anti-entropy repairs ran");
    assert!(d.anti_entropy_blocks > 0);
    for episode in &d.catch_up {
        assert!(
            episode.ended_at() >= episode.from,
            "catch-up episode ends before it starts"
        );
    }
}

#[test]
fn faulty_gossip_run_is_deterministic() {
    let a = run(7);
    let b = run(7);
    assert_eq!(a.records, b.records);
    assert_eq!(a.blocks_committed, b.blocks_committed);
    assert_eq!(a.end_time, b.end_time);
    let (da, db) = (a.dissemination.unwrap(), b.dissemination.unwrap());
    assert_eq!(da.messages_sent, db.messages_sent);
    assert_eq!(da.messages_dropped, db.messages_dropped);
}
