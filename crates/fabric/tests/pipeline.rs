//! End-to-end tests of the EOV pipeline with the vanilla Fabric
//! validator.

use std::sync::Arc;

use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub};
use fabriccrdt_fabric::config::{BlockCutConfig, OrderingPolicy, PipelineConfig, RetryPolicy};
use fabriccrdt_fabric::latency::LatencyConfig;
use fabriccrdt_fabric::metrics::{RetryMetrics, RunMetrics};
use fabriccrdt_fabric::simulation::{DeliveryLayer, Simulation, SingleOrderer, TxRequest};
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;

/// Read-modify-write chaincode on a single key: args = [key, value].
struct RmwChaincode;

impl Chaincode for RmwChaincode {
    fn name(&self) -> &str {
        "rmw"
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        if args.len() != 2 {
            return Err(ChaincodeError::new("need key and value"));
        }
        stub.get_state(&args[0]);
        stub.put_state(&args[0], args[1].clone().into_bytes());
        Ok(())
    }
}

/// Write-only chaincode: args = [key, value].
struct WriteOnlyChaincode;

impl Chaincode for WriteOnlyChaincode {
    fn name(&self) -> &str {
        "writeonly"
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        stub.put_state(&args[0], args[1].clone().into_bytes());
        Ok(())
    }
}

/// Auditing chaincode: counts a key's history entries, emits an event.
struct AuditChaincode;

impl Chaincode for AuditChaincode {
    fn name(&self) -> &str {
        "audit"
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        let versions = stub.get_history_for_key(&args[0]).len();
        stub.put_state(
            &format!("audit-{}", args[0]),
            versions.to_string().into_bytes(),
        );
        stub.set_event("audited", args[0].clone().into_bytes());
        Ok(())
    }
}

fn registry() -> ChaincodeRegistry {
    let mut reg = ChaincodeRegistry::new();
    reg.deploy(Arc::new(RmwChaincode));
    reg.deploy(Arc::new(WriteOnlyChaincode));
    reg.deploy(Arc::new(AuditChaincode));
    reg
}

fn config(block_size: usize, seed: u64) -> PipelineConfig {
    PipelineConfig::paper(block_size, seed)
}

fn schedule(n: usize, rate_tps: f64, f: impl Fn(usize) -> TxRequest) -> Vec<(SimTime, TxRequest)> {
    (0..n)
        .map(|i| (SimTime::from_secs_f64(i as f64 / rate_tps), f(i)))
        .collect()
}

fn run(
    block_size: usize,
    seed: u64,
    seeds: &[(&str, &[u8])],
    sched: Vec<(SimTime, TxRequest)>,
) -> RunMetrics {
    let mut sim = Simulation::new(config(block_size, seed), FabricValidator::new(), registry());
    for (k, v) in seeds {
        sim.seed_state(*k, v.to_vec());
    }
    sim.run(sched)
}

#[test]
fn disjoint_keys_all_commit() {
    let metrics = run(
        10,
        1,
        &[],
        schedule(100, 200.0, |i| {
            TxRequest::new("writeonly", vec![format!("k{i}"), "v".into()])
        }),
    );
    assert_eq!(metrics.submitted(), 100);
    assert_eq!(metrics.successful(), 100);
    assert!(metrics.blocks_committed >= 10);
}

#[test]
fn all_conflicting_mostly_fail_on_fabric() {
    let metrics = run(
        25,
        2,
        &[("hot", b"0")],
        schedule(500, 300.0, |_| {
            TxRequest::new("rmw", vec!["hot".into(), "v".into()])
        }),
    );
    assert_eq!(metrics.submitted(), 500);
    // The vast majority fail with MVCC conflicts (paper §7.3: Fabric
    // commits only very few when all transactions conflict).
    assert!(
        metrics.successful() < 100,
        "successes = {}",
        metrics.successful()
    );
    assert!(metrics.successful() >= 1);
    assert_eq!(
        metrics.failures_with(ValidationCode::MvccConflict),
        metrics.submitted() - metrics.successful()
    );
}

#[test]
fn write_only_transactions_never_fail() {
    let metrics = run(
        25,
        3,
        &[],
        schedule(300, 300.0, |_| {
            TxRequest::new("writeonly", vec!["same-key".into(), "v".into()])
        }),
    );
    // §3: write transactions have empty read sets and cannot conflict.
    assert_eq!(metrics.successful(), 300);
}

#[test]
fn latency_is_hundreds_of_milliseconds_uncongested() {
    let metrics = run(
        25,
        4,
        &[],
        schedule(200, 100.0, |i| {
            TxRequest::new("writeonly", vec![format!("k{i}"), "v".into()])
        }),
    );
    let avg = metrics
        .avg_latency_secs()
        .expect("run committed transactions");
    // §1: "on the order of hundreds of milliseconds to seconds".
    assert!(avg > 0.02 && avg < 2.0, "avg latency {avg}s");
}

#[test]
fn block_timeout_flushes_stragglers() {
    // 3 transactions with a block size of 100: only the 2 s timeout can
    // cut the block.
    let metrics = run(
        100,
        5,
        &[],
        schedule(3, 100.0, |i| {
            TxRequest::new("writeonly", vec![format!("k{i}"), "v".into()])
        }),
    );
    assert_eq!(metrics.successful(), 3);
    assert_eq!(metrics.blocks_committed, 1);
    // Commit happens after the timeout.
    assert!(metrics.end_time >= SimTime::from_secs(2));
}

#[test]
fn deterministic_across_runs() {
    let make = || {
        run(
            25,
            7,
            &[("hot", b"0")],
            schedule(200, 300.0, |i| {
                if i % 2 == 0 {
                    TxRequest::new("rmw", vec!["hot".into(), format!("v{i}")])
                } else {
                    TxRequest::new("writeonly", vec![format!("k{i}"), "v".into()])
                }
            }),
        )
    };
    let a = make();
    let b = make();
    assert_eq!(a.successful(), b.successful());
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.blocks_committed, b.blocks_committed);
    let codes_a: Vec<_> = a.records.iter().map(|r| r.code).collect();
    let codes_b: Vec<_> = b.records.iter().map(|r| r.code).collect();
    assert_eq!(codes_a, codes_b);
}

#[test]
fn different_seeds_change_timings_not_logic() {
    let m1 = run(
        10,
        100,
        &[],
        schedule(50, 100.0, |i| {
            TxRequest::new("writeonly", vec![format!("k{i}"), "v".into()])
        }),
    );
    let m2 = run(
        10,
        101,
        &[],
        schedule(50, 100.0, |i| {
            TxRequest::new("writeonly", vec![format!("k{i}"), "v".into()])
        }),
    );
    assert_eq!(m1.successful(), m2.successful());
    assert_ne!(m1.end_time, m2.end_time);
}

#[test]
fn chain_integrity_holds_after_run() {
    let mut sim = Simulation::new(config(10, 8), FabricValidator::new(), registry());
    sim.seed_state("hot", b"0".to_vec());
    // Drive the simulation manually so we can inspect the peer after.
    let sched = schedule(40, 200.0, |_| {
        TxRequest::new("rmw", vec!["hot".into(), "v".into()])
    });
    // `run` consumes the simulation; rebuild to check state instead via
    // metrics plus a fresh run that exposes the peer.
    let metrics = sim.run(sched);
    assert_eq!(metrics.submitted(), 40);
}

#[test]
fn larger_blocks_fewer_blocks() {
    let small = run(
        5,
        10,
        &[],
        schedule(100, 500.0, |i| {
            TxRequest::new("writeonly", vec![format!("k{i}"), "v".into()])
        }),
    );
    let large = run(
        50,
        10,
        &[],
        schedule(100, 500.0, |i| {
            TxRequest::new("writeonly", vec![format!("k{i}"), "v".into()])
        }),
    );
    assert!(small.blocks_committed > large.blocks_committed);
    assert_eq!(small.successful(), large.successful());
}

#[test]
fn block_cut_config_respected() {
    let cfg = BlockCutConfig::with_max_tx(7);
    assert_eq!(cfg.max_tx_count, 7);
}

/// Two runs on one network: the second run's records, events and retry
/// counters are its own, while the ledger carries over.
#[test]
fn history_and_events_flow_through_the_pipeline() {
    let mut sim = Simulation::new(
        config(5, 33).with_retry_policy(RetryPolicy::immediate(10)),
        FabricValidator::new(),
        registry(),
    );
    sim.seed_state("hot", b"0".to_vec());
    // Phase 1: three writes to the same key across separate blocks,
    // four read-modify-writes of one hot key that conflict and retry,
    // and an audit whose event fires.
    let mut phase1: Vec<(SimTime, TxRequest)> = (0..3)
        .map(|i| {
            (
                SimTime::from_millis(i * 400), // one per block (size 5, slow)
                TxRequest::new("writeonly", vec!["asset".into(), format!("v{i}")]),
            )
        })
        .collect();
    phase1.extend((0..4).map(|i| {
        (
            SimTime::from_millis(i),
            TxRequest::new("rmw", vec!["hot".into(), format!("h{i}")]),
        )
    }));
    phase1.push((SimTime::ZERO, TxRequest::new("audit", vec!["hot".into()])));
    let phase1 = sim.run(phase1);
    assert_eq!(phase1.successful(), 8);
    assert!(phase1.retry.retries > 0 && phase1.retry.retry_success > 0);
    assert_eq!(phase1.events.len(), 1);
    assert_eq!(sim.peer().chain().history("asset").len(), 3);
    let height = sim.peer().chain().height();

    // Phase 2: the audit chaincode reads the history and emits an event.
    let phase2 = sim.run(vec![(
        SimTime::ZERO,
        TxRequest::new("audit", vec!["asset".into()]),
    )]);
    assert_eq!(phase2.records.len(), 1);
    assert_eq!(phase2.successful(), 1);
    assert_eq!(phase2.retry, RetryMetrics::default());
    assert_eq!(phase2.events.len(), 1);
    assert_eq!(phase2.events[0].request, 0);
    assert_eq!(phase2.events[0].name, "audited");
    assert_eq!(phase2.events[0].payload, b"asset");
    // The audit counted the three committed versions.
    assert_eq!(sim.peer().state().value("audit-asset"), Some(&b"3"[..]));
    assert!(sim.peer().chain().height() > height);
}

/// A dissemination layer that returns an earlier time for the second
/// block than for the first.
struct OvertakingDelivery {
    calls: u64,
}

impl DeliveryLayer for OvertakingDelivery {
    fn deliver(
        &mut self,
        now: SimTime,
        _block: &Block,
        _latency: &LatencyConfig,
        _rng: &mut SimRng,
    ) -> SimTime {
        self.calls += 1;
        match self.calls {
            1 => now + SimTime::from_secs(10),
            _ => now,
        }
    }
}

/// Block delivery is FIFO per channel whatever the layer returns: the
/// second block waits for the first.
#[test]
fn the_pipeline_delivers_blocks_in_cut_order() {
    let config = config(1, 8);
    let ordering = Box::new(SingleOrderer::from_config(&config));
    let delivery = Box::new(OvertakingDelivery { calls: 0 });
    let mut sim = Simulation::with_layers(
        config,
        FabricValidator::new(),
        registry(),
        delivery,
        ordering,
    );
    let metrics = sim.run(
        (0..2)
            .map(|i| {
                let request = TxRequest::new("writeonly", vec![format!("k{i}"), "v".into()]);
                (SimTime::from_secs(i), request)
            })
            .collect(),
    );
    assert_eq!(metrics.successful(), 2);
    let [first, second] = [0, 1].map(|i| metrics.records[i].committed_at.unwrap());
    assert!(first >= SimTime::from_secs(10), "{first:?}");
    assert!(second >= first, "{second:?} before {first:?}");
}

#[test]
fn events_not_delivered_for_failed_transactions() {
    let mut sim = Simulation::new(config(25, 34), FabricValidator::new(), registry());
    // The audit chaincode always sets an event; corrupt its endorsement
    // so the transaction fails — the event must not fire.
    let metrics = sim.run(vec![(
        SimTime::ZERO,
        TxRequest::new("audit", vec!["x".into()]).with_corrupt_endorsement(),
    )]);
    assert_eq!(metrics.successful(), 0);
    assert!(metrics.events.is_empty());
}

#[test]
fn client_retries_eventually_commit_conflicting_transactions() {
    let base_sched = || {
        schedule(120, 300.0, |_| {
            TxRequest::new("rmw", vec!["hot".into(), "v".into()])
        })
    };

    // Without retries: most conflict.
    let mut sim = Simulation::new(config(25, 31), FabricValidator::new(), registry());
    sim.seed_state("hot", b"0".to_vec());
    let no_retries = sim.run(base_sched());
    assert!(no_retries.successful() < 40);
    assert_eq!(no_retries.retry.retries, 0);

    // With a generous retry budget: clients grind the workload through,
    // at the cost of many resubmissions and far higher latency.
    let mut sim = Simulation::new(
        config(25, 31).with_retry_policy(RetryPolicy::immediate(50)),
        FabricValidator::new(),
        registry(),
    );
    sim.seed_state("hot", b"0".to_vec());
    let with_retries = sim.run(base_sched());
    assert!(
        with_retries.successful() > no_retries.successful() * 2,
        "retries recover successes: {} vs {}",
        with_retries.successful(),
        no_retries.successful()
    );
    assert!(with_retries.retry.retries > 100, "retries cost round trips");
    assert!(
        with_retries.avg_latency_secs().unwrap() > no_retries.avg_latency_secs().unwrap(),
        "retry latency spans multiple pipeline rounds"
    );

    // Golden recorded from this schedule under the removed
    // `client_retries = 50` knob (immediate resubmission, no PRNG
    // draw): `immediate` must add no delay and draw nothing, or every
    // later latency sample (and with it the ledger) shifts. The counts
    // are the knob's; the ledger digest was re-recorded four times,
    // when signatures became MACs of the payload digest and the Merkle
    // leaf began with that digest, when the leaf came to cover the bytes
    // a block stores, when a block came to hold each converged value
    // once, and when that value moved into a hashed commit record beside
    // the transactions as cut (DESIGN.md §4.17).
    let snapshot = sim.peer().snapshot();
    let ledger = fabriccrdt_crypto::digest(&[snapshot.state, snapshot.chain].concat());
    assert_eq!(
        (
            with_retries.submitted(),
            with_retries.successful(),
            with_retries.retry.retries,
            with_retries.end_time.as_micros(),
        ),
        (120, 65, 4466, 15_313_924)
    );
    assert_eq!(
        fabriccrdt_crypto::hex::encode(&ledger),
        "19885088932afcb1aea005692174f36734481fcd2bec5699f5b130ffed0e688d"
    );
}

#[test]
fn corrupted_endorsements_fail_policy_validation() {
    let mut sim = Simulation::new(config(10, 11), FabricValidator::new(), registry());
    let sched: Vec<(SimTime, TxRequest)> = (0..30)
        .map(|i| {
            let request = TxRequest::new("writeonly", vec![format!("k{i}"), "v".into()]);
            let request = if i % 3 == 0 {
                request.with_corrupt_endorsement()
            } else {
                request
            };
            (SimTime::from_secs_f64(i as f64 / 200.0), request)
        })
        .collect();
    let metrics = sim.run(sched);
    assert_eq!(metrics.successful(), 20);
    assert_eq!(
        metrics.failures_with(ValidationCode::EndorsementPolicyFailure),
        10
    );
    // Failed transactions never touched the state.
    assert!(sim.peer().state().value("k0").is_none());
    assert!(sim.peer().state().value("k1").is_some());
}

#[test]
fn reordering_network_end_to_end() {
    // Readers of a hot key mixed with blind writers: the reordering
    // orderer rescues readers that vanilla ordering would fail.
    let build_sched = || -> Vec<(SimTime, TxRequest)> {
        (0..200)
            .map(|i| {
                let request = if i % 2 == 0 {
                    TxRequest::new("writeonly", vec!["hot".into(), format!("v{i}")])
                } else {
                    TxRequest::new("rmw", vec![format!("priv-{i}"), "v".into()])
                    // reader of hot: rmw chaincode reads its first arg;
                    // use a custom mix below instead
                };
                (SimTime::from_secs_f64(i as f64 / 300.0), request)
            })
            .collect()
    };
    let mut vanilla = Simulation::new(config(50, 12), FabricValidator::new(), registry());
    vanilla.seed_state("hot", b"0".to_vec());
    let vanilla_metrics = vanilla.run(build_sched());

    let mut reordering = Simulation::new(
        config(50, 12).with_ordering_policy(OrderingPolicy::Reorder),
        FabricValidator::new(),
        registry(),
    );
    reordering.seed_state("hot", b"0".to_vec());
    let reorder_metrics = reordering.run(build_sched());

    // This mix has no read-write conflicts (writers blind, readers on
    // private keys), so both commit everything — the reordering pipeline
    // must not regress conflict-free workloads.
    assert_eq!(vanilla_metrics.successful(), 200);
    assert_eq!(reorder_metrics.successful(), 200);
    assert_eq!(
        reorder_metrics.failures_with(ValidationCode::EarlyAborted),
        0
    );
}
