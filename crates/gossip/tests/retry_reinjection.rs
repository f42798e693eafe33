//! Abort-and-retry through the gossip dissemination layer: a retried
//! transaction is re-endorsed and re-ordered as a fresh submission, so
//! its replacement block must flow through gossip like any other — the
//! retry loop lives above the delivery seam and needs no gossip-side
//! plumbing. These tests pin that down: retries fire, some succeed,
//! every transaction ends with exactly one verdict, and the retry
//! counters stay silent when no policy is configured.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub};
use fabriccrdt_fabric::config::{PipelineConfig, RetryPolicy};
use fabriccrdt_fabric::simulation::{Simulation, SingleOrderer, TxRequest};
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_gossip::{GossipDelivery, GossipNetwork};
use fabriccrdt_sim::time::SimTime;

/// Read-modify-write chaincode: args = [key, value].
struct Rmw;

impl Chaincode for Rmw {
    fn name(&self) -> &str {
        "rmw"
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        stub.get_state(&args[0]);
        stub.put_state(&args[0], args[1].clone().into_bytes());
        Ok(())
    }
}

fn registry() -> ChaincodeRegistry {
    let mut reg = ChaincodeRegistry::new();
    reg.deploy(Arc::new(Rmw));
    reg
}

/// A vanilla-Fabric pipeline over this crate's gossip delivery layer.
fn gossip_simulation(config: PipelineConfig) -> Simulation<FabricValidator> {
    let network = GossipNetwork::new(&config, FabricValidator::new);
    let delivery = Box::new(GossipDelivery::new(Rc::new(RefCell::new(network)), 0));
    let ordering = Box::new(SingleOrderer::from_config(&config));
    Simulation::with_layers(
        config,
        FabricValidator::new(),
        registry(),
        delivery,
        ordering,
    )
}

/// Hot-key contention: bursts of RMWs on one key guarantee MVCC
/// conflicts in every block, so the retry loop has work to do.
fn contended_schedule(n: usize) -> Vec<(SimTime, TxRequest)> {
    (0..n)
        .map(|i| {
            let key = if i % 4 == 0 {
                format!("k{i}")
            } else {
                "hot".into()
            };
            (
                SimTime::from_secs_f64(i as f64 / 250.0),
                TxRequest::new("rmw", vec![key, format!("v{i}")]),
            )
        })
        .collect()
}

#[test]
fn retries_reinject_through_gossip_delivery() {
    let config = PipelineConfig::paper(10, 31)
        .with_gossip()
        .with_retry_policy(RetryPolicy::calibrated(2));
    let mut sim = gossip_simulation(config);
    sim.seed_state("hot", b"0".to_vec());
    let metrics = sim.run(contended_schedule(120));

    assert_eq!(metrics.submitted(), 120);
    assert_eq!(
        metrics.successful() + metrics.failed(),
        120,
        "a retried transaction lost its verdict in the gossip pipeline"
    );
    assert!(
        metrics.retry.retries > 0,
        "hot-key contention must trigger retries"
    );
    assert!(
        metrics.retry.retry_success > 0,
        "backed-off retries land in later, less contended blocks"
    );
    assert_eq!(
        metrics.retry.retry_latency.len() as u64,
        metrics.retry.retry_success,
        "one retry latency sample per transaction that succeeded on retry"
    );
    assert!(metrics.retry.wasted_validation_work > 0);
    assert!(
        metrics.dissemination.is_some(),
        "the gossip layer really ran"
    );
}

#[test]
fn no_retry_policy_keeps_counters_silent() {
    let config = PipelineConfig::paper(10, 31).with_gossip();
    let mut sim = gossip_simulation(config);
    sim.seed_state("hot", b"0".to_vec());
    let metrics = sim.run(contended_schedule(120));

    assert_eq!(metrics.retry.retries, 0);
    assert_eq!(metrics.retry.retry_success, 0);
    assert!(metrics.retry.retry_latency.is_empty());
    assert!(
        metrics.retry.wasted_validation_work > 0,
        "failed transactions count their wasted endorsement/validation work \
         even without a retry policy"
    );
    assert!(metrics.failed() > 0);
}
