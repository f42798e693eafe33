//! Cross-crate integration tests: full pipeline runs exercising the
//! crypto, jsoncrdt, ledger, sim, fabric, core and workload crates
//! together.

use std::sync::Arc;

use fabriccrdt_repro::fabric::chaincode::{
    Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub,
};
use fabriccrdt_repro::fabric::config::PipelineConfig;
use fabriccrdt_repro::fabric::simulation::TxRequest;
use fabriccrdt_repro::fabriccrdt::{fabric_simulation, fabriccrdt_simulation};
use fabriccrdt_repro::jsoncrdt::json::Value;
use fabriccrdt_repro::ledger::block::ValidationCode;
use fabriccrdt_repro::sim::time::SimTime;
use fabriccrdt_repro::workload::experiment::{ExperimentConfig, SystemKind};
use fabriccrdt_repro::workload::iot::IotChaincode;

fn iot_registry(crdt: bool) -> (ChaincodeRegistry, &'static str) {
    let mut registry = ChaincodeRegistry::new();
    if crdt {
        registry.deploy(Arc::new(IotChaincode::crdt()));
        (registry, "iot-crdt")
    } else {
        registry.deploy(Arc::new(IotChaincode::plain()));
        (registry, "iot")
    }
}

fn hot_key_schedule(chaincode: &str, n: usize, rate: f64) -> Vec<(SimTime, TxRequest)> {
    (0..n)
        .map(|i| {
            let json = format!(r#"{{"deviceID":"d1","readings":["r{i}"]}}"#);
            (
                SimTime::from_secs_f64(i as f64 / rate),
                TxRequest::new(
                    chaincode,
                    IotChaincode::args(&["d1".into()], &["d1".into()], &json),
                ),
            )
        })
        .collect()
}

/// The headline claim, end to end: same all-conflicting workload,
/// FabricCRDT commits everything with every update preserved, Fabric
/// rejects most.
#[test]
fn headline_no_failures_no_update_loss() {
    let n = 400;

    let (registry, name) = iot_registry(true);
    let mut crdt = fabriccrdt_simulation(PipelineConfig::paper(25, 42), registry);
    crdt.seed_state("d1", br#"{"deviceID":"d1","readings":[]}"#.to_vec());
    let crdt_metrics = crdt.run(hot_key_schedule(name, n, 300.0));

    assert_eq!(crdt_metrics.successful(), n, "no failure requirement");
    // No update loss: the committed document holds every divergent
    // reading that was concurrent in some block. The committed doc after
    // the run must contain the last block's merged readings; stronger:
    // every reading committed in the block it was merged in. We check
    // the global stronger property via the blockchain below.
    let chain = crdt.peer().chain();
    chain.verify_integrity().expect("chain integrity");
    // Every submitted reading appears in some committed block's write
    // set (merged values accumulate per block).
    let mut seen = std::collections::HashSet::new();
    for block in chain.iter() {
        for (i, tx) in block.transactions.iter().enumerate() {
            if let Some(entry) = tx.rwset.writes.get("d1") {
                if let Ok(doc) = Value::from_bytes(block.value_of(i, "d1", entry)) {
                    if let Some(readings) = doc.get("readings").and_then(Value::as_list) {
                        for r in readings {
                            seen.insert(r.as_str().unwrap().to_owned());
                        }
                    }
                }
            }
        }
    }
    for i in 0..n {
        assert!(seen.contains(&format!("r{i}")), "reading r{i} lost");
    }

    let (registry, name) = iot_registry(false);
    let mut fabric = fabric_simulation(PipelineConfig::paper(400, 42), registry);
    fabric.seed_state("d1", br#"{"deviceID":"d1","readings":[]}"#.to_vec());
    let fabric_metrics = fabric.run(hot_key_schedule(name, n, 300.0));
    assert!(
        fabric_metrics.successful() < n / 5,
        "Fabric rejects most: {}",
        fabric_metrics.successful()
    );
}

/// The blockchain hash chain stays verifiable even though FabricCRDT
/// re-seals merged blocks.
#[test]
fn merged_chain_integrity() {
    let (registry, name) = iot_registry(true);
    let mut sim = fabriccrdt_simulation(PipelineConfig::paper(10, 1), registry);
    sim.seed_state("d1", br#"{"readings":[]}"#.to_vec());
    sim.run(hot_key_schedule(name, 100, 500.0));
    let chain = sim.peer().chain();
    assert!(chain.height() > 5);
    chain.verify_integrity().expect("hash chain verifies");
    // Every non-genesis block carries filled validation codes.
    for block in chain.iter().skip(1) {
        assert_eq!(block.validation_codes.len(), block.transactions.len());
    }
}

/// Within one block, all conflicting CRDT transactions end up with the
/// identical converged write value (paper Listing 2: "The write-set of
/// Transaction 2 is identical to the write-set of Transaction 1").
#[test]
fn converged_write_sets_identical_within_block() {
    let (registry, name) = iot_registry(true);
    let mut sim = fabriccrdt_simulation(PipelineConfig::paper(50, 2), registry);
    sim.seed_state("d1", br#"{"readings":[]}"#.to_vec());
    sim.run(hot_key_schedule(name, 50, 2000.0));
    let chain = sim.peer().chain();
    for block in chain.iter().skip(1) {
        let values: Vec<&[u8]> = block
            .transactions
            .iter()
            .enumerate()
            .filter_map(|(i, tx)| {
                let write = tx.rwset.writes.get("d1")?;
                Some(block.value_of(i, "d1", write))
            })
            .collect();
        assert!(values.iter().all(|v| Value::from_bytes(v).is_ok()));
        for pair in values.windows(2) {
            assert_eq!(pair[0], pair[1], "block {}", block.header.number);
        }
    }
}

/// Multi-phase runs on the same network: state persists, ids stay
/// unique, later phases read earlier phases' commits.
#[test]
fn multi_phase_runs_share_ledger_state() {
    let (registry, name) = iot_registry(true);
    let mut sim = fabriccrdt_simulation(PipelineConfig::paper(25, 3), registry);
    sim.seed_state("d1", br#"{"readings":[]}"#.to_vec());
    let phase1 = sim.run(hot_key_schedule(name, 30, 300.0));
    assert_eq!(phase1.successful(), 30);
    let after_phase1 = sim.peer().chain().height();

    let phase2 = sim.run(hot_key_schedule(name, 30, 300.0));
    assert_eq!(phase2.successful(), 30, "fresh nonces, no duplicate ids");
    assert!(sim.peer().chain().height() > after_phase1);
    sim.peer().chain().verify_integrity().unwrap();
}

/// A chaincode that rejects the proposal produces a failed request that
/// never reaches the orderer.
#[test]
fn failing_proposals_never_reach_ordering() {
    struct AlwaysFails;
    impl Chaincode for AlwaysFails {
        fn name(&self) -> &str {
            "fails"
        }
        fn invoke(
            &self,
            _stub: &mut ChaincodeStub<'_>,
            _args: &[String],
        ) -> Result<(), ChaincodeError> {
            Err(ChaincodeError::new("business rule violated"))
        }
    }
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(AlwaysFails));
    let mut sim = fabriccrdt_simulation(PipelineConfig::paper(25, 4), registry);
    let metrics = sim.run(vec![
        (SimTime::ZERO, TxRequest::new("fails", vec![])),
        (SimTime::from_millis(1), TxRequest::new("fails", vec![])),
    ]);
    assert_eq!(metrics.successful(), 0);
    assert_eq!(metrics.failed(), 2);
    assert_eq!(metrics.blocks_committed, 0);
}

/// The experiment runner agrees with a hand-built simulation for the
/// same parameters (same seed, same workload family).
#[test]
fn experiment_runner_end_to_end() {
    let result = ExperimentConfig {
        total_txs: 200,
        ..ExperimentConfig::paper_defaults()
    }
    .run();
    assert_eq!(result.successful, 200);
    assert_eq!(result.failed, 0);
    assert!(result.throughput_tps > 50.0);
    assert!(result.avg_latency_secs.unwrap() > 0.0);

    let fabric = ExperimentConfig {
        total_txs: 200,
        ..ExperimentConfig::paper_defaults().for_system(SystemKind::Fabric)
    }
    .run();
    assert!(fabric.successful < 40);
}

/// Mixed CRDT / non-CRDT blocks: merges and MVCC coexist (Figure 2).
#[test]
fn mixed_blocks_validate_both_paths() {
    struct Plain;
    impl Chaincode for Plain {
        fn name(&self) -> &str {
            "plain"
        }
        fn invoke(
            &self,
            stub: &mut ChaincodeStub<'_>,
            args: &[String],
        ) -> Result<(), ChaincodeError> {
            stub.get_state(&args[0]);
            stub.put_state(&args[0], b"x".to_vec());
            Ok(())
        }
    }
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    registry.deploy(Arc::new(Plain));

    let mut sim = fabriccrdt_simulation(PipelineConfig::paper(25, 5), registry);
    sim.seed_state("doc", br#"{"readings":[]}"#.to_vec());
    sim.seed_state("counter", b"0".to_vec());

    let mut schedule = Vec::new();
    for i in 0u64..100 {
        let at = SimTime::from_millis(i * 3);
        if i % 2 == 0 {
            let json = format!(r#"{{"readings":["r{i}"]}}"#);
            schedule.push((
                at,
                TxRequest::new(
                    "iot-crdt",
                    IotChaincode::args(&["doc".into()], &["doc".into()], &json),
                ),
            ));
        } else {
            schedule.push((at, TxRequest::new("plain", vec!["counter".into()])));
        }
    }
    let metrics = sim.run(schedule);
    let merged = metrics
        .records
        .iter()
        .filter(|r| r.code == Some(ValidationCode::ValidMerged))
        .count();
    let mvcc_failed = metrics.failures_with(ValidationCode::MvccConflict);
    assert_eq!(merged, 50, "all CRDT transactions merge");
    assert!(mvcc_failed > 0, "hot-key plain transactions still fail");
}

/// Determinism across identical full runs, including the committed
/// world state, not just the metrics.
#[test]
fn full_runs_are_bit_identical() {
    let run = || {
        let (registry, name) = iot_registry(true);
        let mut sim = fabriccrdt_simulation(PipelineConfig::paper(25, 77), registry);
        sim.seed_state("d1", br#"{"readings":[]}"#.to_vec());
        let metrics = sim.run(hot_key_schedule(name, 150, 300.0));
        let state: Vec<(String, Vec<u8>)> = sim
            .peer()
            .state()
            .iter()
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect();
        (metrics.end_time, metrics.successful(), state)
    };
    assert_eq!(run(), run());
}
