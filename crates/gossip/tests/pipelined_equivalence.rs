//! Pipelined-validation equivalence over gossip fault schedules.
//!
//! The cross-block pipelined commit path (pre-validate block N+1 on
//! the worker pool while block N finalizes; reads settled by the MVCC
//! check at finalize) may only change wall-clock time,
//! never outcomes. This sweep drives the full gossip network — lossy
//! links, crash/restart windows, healing partitions — over 50 seeded
//! fault schedules and asserts that a `Pipelined { workers: 4 }` run
//! is indistinguishable from the `Sequential` seed path: identical
//! [`RunMetrics`] (work-derived simulated times included) and
//! byte-identical ledgers on *every* replica, not just the observer.
//!
//! The Raft half of this sweep (pipelined validation under ordering
//! crash/failover schedules) lives in
//! `crates/ordering/tests/pipeline_equivalence.rs`.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use fabriccrdt::CrdtValidator;
use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub};
use fabriccrdt_fabric::config::{CrashSpec, FaultConfig, PartitionSpec, PipelineConfig};
use fabriccrdt_fabric::metrics::RunMetrics;
use fabriccrdt_fabric::peer::PeerSnapshot;
use fabriccrdt_fabric::pipeline::ValidationPipeline;
use fabriccrdt_fabric::simulation::{Simulation, SingleOrderer, TxRequest};
use fabriccrdt_gossip::{GossipDelivery, GossipNetwork};
use fabriccrdt_sim::gen::{self, Gen};
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::iot::IotChaincode;

/// Read-modify-write chaincode: args = [key, value]. Non-CRDT reads
/// on a contended key make MVCC outcomes sensitive to block
/// formation.
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

/// The paper topology's replica count (3 orgs x 2 peers).
const PEERS: usize = 6;

fn registry() -> ChaincodeRegistry {
    let mut reg = ChaincodeRegistry::new();
    reg.deploy(Arc::new(IotChaincode::crdt()));
    reg.deploy(Arc::new(Rmw));
    reg
}

/// A randomized gossip fault schedule: optional lossy/duplicating
/// links, up to two crash/restart windows, and up to one healing
/// minority partition — all inside the traffic window.
fn arb_faults(g: &mut Gen, horizon_ms: u64) -> FaultConfig {
    let mut faults = FaultConfig::none();
    if g.prob(0.5) {
        faults.link.drop = g.f64_in(0.0, 0.25);
    }
    if g.prob(0.3) {
        faults.link.duplicate = g.f64_in(0.0, 0.10);
    }
    // Crash windows target distinct peers: overlapping crash/restart
    // windows on one peer are outside the lane's fault model.
    let first = g.range(0, PEERS as u64) as usize;
    for k in 0..g.size(0, 2) {
        let at = SimTime::from_millis(g.range(1, horizon_ms));
        faults.crashes.push(CrashSpec {
            peer: (first + k) % PEERS,
            at,
            restart_at: at + SimTime::from_millis(g.range(50, 600)),
        });
    }
    if g.flip() {
        let at = SimTime::from_millis(g.range(1, horizon_ms));
        let minority: Vec<usize> = (0..PEERS).filter(|_| g.prob(0.3)).take(2).collect();
        if !minority.is_empty() {
            faults.partitions.push(PartitionSpec {
                at,
                heal_at: at + SimTime::from_millis(g.range(100, 800)),
                minority,
            });
        }
    }
    faults
}

/// Hot-key CRDT merges (the paper's workload) interleaved with
/// MVCC-contended RMW writes on a second hot key.
fn arb_schedule(g: &mut Gen) -> Vec<(SimTime, TxRequest)> {
    let n = g.size(30, 70);
    let rate = g.f64_in(150.0, 350.0);
    (0..n)
        .map(|i| {
            let request = if g.prob(0.5) {
                let json = format!(r#"{{"deviceID":"device1","readings":["r{i}"]}}"#);
                TxRequest::new(
                    "iot-crdt",
                    IotChaincode::args(&["device1".into()], &["device1".into()], &json),
                )
            } else {
                TxRequest::new("rmw", vec!["hot".into(), format!("v{i}")])
            };
            (SimTime::from_secs_f64(i as f64 / rate), request)
        })
        .collect()
}

/// Runs the gossip pipeline with a handle on the network, so after the
/// drain every replica's ledger bytes can be read back — the observer
/// peer alone would hide a divergence on a non-observed replica.
fn run_with(
    pipeline: ValidationPipeline,
    block_size: usize,
    seed: u64,
    faults: &FaultConfig,
    schedule: &[(SimTime, TxRequest)],
) -> (RunMetrics, Vec<Option<PeerSnapshot>>) {
    let mut config = PipelineConfig::paper(block_size, seed)
        .with_gossip()
        .with_faults(faults.clone());
    config.validation = pipeline;
    let network = Rc::new(RefCell::new(GossipNetwork::new(
        &config,
        CrdtValidator::new,
    )));
    let delivery = Box::new(GossipDelivery::new(network.clone(), 0));
    let ordering = Box::new(SingleOrderer::from_config(&config));
    let mut sim =
        Simulation::with_layers(config, CrdtValidator::new(), registry(), delivery, ordering);
    sim.seed_state("device1", br#"{"readings":[]}"#.to_vec());
    sim.seed_state("hot", b"0".to_vec());
    let metrics = sim.run(schedule.to_vec());
    let snapshots = {
        let mut network = network.borrow_mut();
        network.drain();
        (0..network.peer_count())
            .map(|peer| network.snapshot_on(0, peer))
            .collect()
    };
    (metrics, snapshots)
}

/// 50 seeded fault schedules: the pipelined commit path replays the
/// sequential one bit for bit on every replica.
#[test]
fn pipelined_gossip_matches_sequential_over_seeded_fault_sweep() {
    gen::cases(50, |g| {
        let seed = g.u64();
        let block_size = g.size(5, 25);
        let schedule = arb_schedule(g);
        let horizon_ms = 1 + (schedule.len() as u64 * 1000) / 150;
        let faults = arb_faults(g, horizon_ms);

        let (seq_metrics, seq_snapshots) = run_with(
            ValidationPipeline::Sequential,
            block_size,
            seed,
            &faults,
            &schedule,
        );
        let (pip_metrics, pip_snapshots) = run_with(
            ValidationPipeline::pipelined(4),
            block_size,
            seed,
            &faults,
            &schedule,
        );

        assert_eq!(
            seq_metrics, pip_metrics,
            "seed {seed}: metrics diverged under pipelining"
        );
        assert_eq!(seq_snapshots.len(), pip_snapshots.len());
        for (peer, (seq, pip)) in seq_snapshots.iter().zip(&pip_snapshots).enumerate() {
            assert_eq!(
                seq, pip,
                "seed {seed}: replica {peer} ledger diverged under pipelining"
            );
        }
        // The drain leaves every replica byte-identical, so the sweep
        // compares real ledgers, not six copies of `None`.
        assert!(
            seq_snapshots.iter().all(Option::is_some),
            "seed {seed}: a replica was still down after the drain"
        );
    });
}
