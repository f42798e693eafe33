//! The assembler honours every layer a configuration names: on each of
//! the four {ideal, gossip} × {single, Raft} shapes it is bit-identical
//! to the hand-built `Simulation::with_layers` pipeline, and the
//! gossip + Raft shape commits everything and converges.

use std::sync::Arc;

use fabriccrdt::CrdtValidator;
use fabriccrdt_channel::assemble;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::config::{CrashSpec, FaultConfig, PipelineConfig, RaftConfig};
use fabriccrdt_fabric::metrics::RunMetrics;
use fabriccrdt_fabric::peer::PeerSnapshot;
use fabriccrdt_fabric::simulation::{
    DeliveryLayer, IdealFifoDelivery, OrderingBackend, Simulation, SingleOrderer, TxRequest,
};
use fabriccrdt_gossip::{GossipDelivery, GossipNetwork};
use fabriccrdt_ordering::RaftOrderingBackend;
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::iot::IotChaincode;

const TXS: usize = 120;
const SEED_DOC: &[u8] = br#"{"readings":[]}"#;

fn registry() -> ChaincodeRegistry {
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    registry
}

/// All-conflicting CRDT transactions on one hot key at 300 tx/s.
fn schedule() -> Vec<(SimTime, TxRequest)> {
    let key = ["device1".to_owned()];
    (0..TXS)
        .map(|i| {
            let json = format!(r#"{{"deviceID":"device1","readings":["r{i}"]}}"#);
            (
                SimTime::from_secs_f64(i as f64 / 300.0),
                TxRequest::new("iot-crdt", IotChaincode::args(&key, &key, &json)),
            )
        })
        .collect()
}

fn run(mut sim: Simulation<CrdtValidator>) -> (RunMetrics, PeerSnapshot) {
    sim.seed_state("device1", SEED_DOC.to_vec());
    let metrics = sim.run(schedule());
    (metrics, sim.peer().snapshot())
}

/// A gossip peer crash and a Raft leader kill, so neither layer can
/// pass by standing idle.
fn faults() -> (FaultConfig, RaftConfig) {
    let gossip = FaultConfig {
        crashes: vec![CrashSpec {
            peer: 2,
            at: SimTime::from_millis(50),
            restart_at: SimTime::from_millis(300),
        }],
        ..FaultConfig::none()
    };
    let mut raft = RaftConfig::calibrated(3);
    raft.faults.crashes.push(CrashSpec {
        peer: 0,
        at: SimTime::from_millis(200),
        restart_at: SimTime::from_millis(900),
    });
    (gossip, raft)
}

fn shapes() -> [PipelineConfig; 4] {
    let base = PipelineConfig::paper(25, 9);
    let (gossip_faults, raft) = faults();
    let gossip = base.clone().with_gossip().with_faults(gossip_faults);
    [
        base.clone(),
        gossip.clone(),
        base.with_raft_config(raft.clone()),
        gossip.with_raft_config(raft),
    ]
}

#[test]
fn assembler_is_bit_identical_to_hand_built_layers_on_all_four_shapes() {
    for config in shapes() {
        let shape = (config.gossip.is_some(), config.ordering.is_some());
        let delivery: Box<dyn DeliveryLayer> = if shape.0 {
            let network = GossipNetwork::new(&config, CrdtValidator::new);
            Box::new(GossipDelivery::new(network))
        } else {
            Box::new(IdealFifoDelivery::new())
        };
        let ordering: Box<dyn OrderingBackend> = if shape.1 {
            Box::new(RaftOrderingBackend::new(&config))
        } else {
            Box::new(SingleOrderer::from_config(&config))
        };
        let by_hand = run(Simulation::with_layers(
            config.clone(),
            CrdtValidator::new(),
            registry(),
            delivery,
            ordering,
        ));
        let assembled = run(assemble(config, registry(), CrdtValidator::new));

        assert_eq!(
            assembled.0, by_hand.0,
            "(gossip, raft) = {shape:?}: metrics"
        );
        assert!(
            assembled.1 == by_hand.1,
            "(gossip, raft) = {shape:?}: ledger"
        );
        // The layers the configuration names really ran — and only those.
        assert_eq!(assembled.0.dissemination.is_some(), shape.0);
        assert_eq!(assembled.0.ordering.is_some(), shape.1);
        assert_eq!(assembled.0.successful(), TXS);
    }
}

#[test]
fn gossip_plus_raft_commits_everything_and_converges() {
    let [.., config] = shapes();
    let (metrics, ledger) = run(assemble(config.clone(), registry(), CrdtValidator::new));

    assert_eq!(metrics.successful(), TXS);
    let ordering = metrics.ordering.as_ref().expect("raft metrics");
    assert!(
        ordering.leader_changes >= 1,
        "the leader kill forces failover"
    );
    let dissemination = metrics.dissemination.as_ref().expect("gossip metrics");
    assert!(
        !dissemination.catch_up.is_empty(),
        "the crashed peer catches up after its restart"
    );

    // The same deployment built by hand: every replica of its gossip
    // network ends on the assembled pipeline's ledger.
    let mut twin = Simulation::with_layers(
        config.clone(),
        CrdtValidator::new(),
        registry(),
        Box::new(GossipDelivery::new(GossipNetwork::new(
            &config,
            CrdtValidator::new,
        ))),
        Box::new(RaftOrderingBackend::new(&config)),
    );
    twin.seed_state("device1", SEED_DOC.to_vec());
    assert_eq!(twin.run(schedule()), metrics);
    let network = twin
        .delivery::<GossipDelivery<CrdtValidator>>()
        .expect("the twin delivers over gossip")
        .network();
    for peer in 0..network.peer_count() {
        assert!(
            network.snapshot(peer).as_ref() == Some(&ledger),
            "replica {peer} diverged from the pipeline peer"
        );
    }
}
