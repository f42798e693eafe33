//! Pipeline-level equivalence of the ordering backends:
//!
//! - the explicit [`SingleOrderer`] backend is bit-for-bit identical to
//!   the default constructor (the trait seam adds nothing);
//! - the Raft backend with zero faults and zero-latency consensus
//!   links replays the default backend bit-for-bit (same records, same
//!   ledger bytes) — consensus collapses to the single orderer when
//!   nothing fails;
//! - under a leader-kill schedule the pipeline still commits every
//!   transaction, with at least one re-election on the books.

use std::sync::Arc;

use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub};
use fabriccrdt_fabric::config::{CrashSpec, PipelineConfig, RaftConfig};
use fabriccrdt_fabric::simulation::{
    IdealFifoDelivery, OrderingBackend, Simulation, SingleOrderer, TxRequest,
};
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_ordering::RaftOrderingBackend;
use fabriccrdt_sim::latency::LatencyModel;
use fabriccrdt_sim::time::SimTime;

/// Write-only chaincode: args = [key, value].
struct WriteOnly;

impl Chaincode for WriteOnly {
    fn name(&self) -> &str {
        "writeonly"
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        stub.put_state(&args[0], args[1].clone().into_bytes());
        Ok(())
    }
}

fn registry() -> ChaincodeRegistry {
    let mut reg = ChaincodeRegistry::new();
    reg.deploy(Arc::new(WriteOnly));
    reg
}

/// A vanilla-Fabric pipeline over ideal FIFO delivery, ordered by
/// `backend`.
fn ordered_by(
    config: PipelineConfig,
    backend: Box<dyn OrderingBackend>,
) -> Simulation<FabricValidator> {
    let delivery = Box::new(IdealFifoDelivery::new());
    Simulation::with_layers(
        config,
        FabricValidator::new(),
        registry(),
        delivery,
        backend,
    )
}

fn schedule(n: usize, rate_tps: f64) -> Vec<(SimTime, TxRequest)> {
    (0..n)
        .map(|i| {
            (
                SimTime::from_secs_f64(i as f64 / rate_tps),
                TxRequest::new("writeonly", vec![format!("k{i}"), format!("v{i}")]),
            )
        })
        .collect()
}

#[test]
fn explicit_single_orderer_matches_default_bitwise() {
    let config = PipelineConfig::paper(10, 42);

    let mut default_sim = Simulation::new(config.clone(), FabricValidator::new(), registry());
    let default_metrics = default_sim.run(schedule(120, 250.0));

    let backend = Box::new(SingleOrderer::from_config(&config));
    let mut seam_sim = ordered_by(config, backend);
    let seam_metrics = seam_sim.run(schedule(120, 250.0));

    assert_eq!(default_metrics.records, seam_metrics.records);
    assert_eq!(default_metrics.end_time, seam_metrics.end_time);
    assert_eq!(
        default_metrics.blocks_committed,
        seam_metrics.blocks_committed
    );
    let a = default_sim.peer().snapshot();
    let b = seam_sim.peer().snapshot();
    assert_eq!(a.state, b.state, "world-state bytes diverged");
    assert_eq!(a.chain, b.chain, "chain bytes diverged");
}

#[test]
fn faultless_raft_matches_single_orderer_bitwise() {
    let mut config = PipelineConfig::paper(10, 7);
    // Zero-latency consensus links: replication round-trips complete
    // within the cut instant, so blocks reach the delivery layer at
    // exactly the moments the single orderer releases them and the
    // pipeline's PRNG draw order is untouched.
    let mut raft = RaftConfig::calibrated(5);
    raft.link = LatencyModel::zero();
    config.ordering = Some(raft);

    let mut reference = Simulation::new(config.clone(), FabricValidator::new(), registry());
    let reference_metrics = reference.run(schedule(150, 300.0));

    let backend = Box::new(RaftOrderingBackend::new(&config));
    let mut raft_sim = ordered_by(config, backend);
    let raft_metrics = raft_sim.run(schedule(150, 300.0));

    assert_eq!(reference_metrics.records, raft_metrics.records);
    assert_eq!(reference_metrics.end_time, raft_metrics.end_time);
    assert_eq!(
        reference_metrics.blocks_committed,
        raft_metrics.blocks_committed
    );
    let a = reference.peer().snapshot();
    let b = raft_sim.peer().snapshot();
    assert_eq!(a.state, b.state, "world-state bytes diverged");
    assert_eq!(a.chain, b.chain, "chain bytes diverged");

    let ordering = raft_metrics.ordering.expect("raft backend reports metrics");
    assert_eq!(ordering.elections_started, 0, "no elections without faults");
    assert_eq!(ordering.leader_changes, 0);
    assert_eq!(ordering.final_term, 1);
    assert_eq!(
        ordering.commit_latency.len() as u64,
        raft_metrics.blocks_committed
    );
}

#[test]
fn leader_kill_recovers_without_losing_transactions() {
    let mut config = PipelineConfig::paper(10, 11);
    let mut raft = RaftConfig::calibrated(5);
    // Kill the pre-elected leader mid-run; bring it back later.
    raft.faults.crashes.push(CrashSpec {
        peer: 0,
        at: SimTime::from_millis(400),
        restart_at: SimTime::from_millis(1400),
    });
    config.ordering = Some(raft);

    let backend = Box::new(RaftOrderingBackend::new(&config));
    let mut sim = ordered_by(config, backend);
    let metrics = sim.run(schedule(300, 300.0));

    assert_eq!(metrics.submitted(), 300);
    assert_eq!(
        metrics.successful(),
        300,
        "failover lost or failed transactions"
    );
    let ordering = metrics.ordering.expect("raft backend reports metrics");
    assert!(
        ordering.elections_started >= 1,
        "the leader kill must force a re-election"
    );
    assert!(ordering.leader_changes >= 1);
    assert!(
        ordering.submission_retries >= 1,
        "the leaderless window must trigger client retries"
    );
    sim.peer()
        .chain()
        .verify_integrity()
        .expect("chain verifies");
}
