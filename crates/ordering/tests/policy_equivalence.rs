//! Ordering-policy equivalence and early-abort failover semantics:
//!
//! - 50-seed sweep: `OrderingPolicy::Reorder` is byte-identical to the
//!   removed legacy reorder flag — pinned by golden ledger digests on
//!   both the single-orderer and Raft backends, under random Raft
//!   crash/failover schedules.
//! - Directed regression: early aborts from a Raft leader that crashes
//!   between block cut and entry commit are surfaced exactly once after
//!   failover — never double-counted, never silently lost — across a
//!   fine grid of crash times straddling the replication window.
//! - The adaptive policy survives failover: every transaction still
//!   receives exactly one verdict and the policy counters survive the
//!   leader handoff.

use std::collections::BTreeSet;
use std::sync::Arc;

use fabriccrdt_crypto::{hex, Identity, Sha256};
use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub};
use fabriccrdt_fabric::config::{CrashSpec, OrderingPolicy, PipelineConfig, RaftConfig};
use fabriccrdt_fabric::metrics::RunMetrics;
use fabriccrdt_fabric::peer::PeerSnapshot;
use fabriccrdt_fabric::simulation::{IdealFifoDelivery, OrderingBackend, Simulation, TxRequest};
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ordering::RaftOrderingBackend;
use fabriccrdt_sim::gen::{self, Gen};
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
    reg.deploy(Arc::new(WriteOnly));
    reg.deploy(Arc::new(Rmw));
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

/// Hot-key RMW conflicts mixed with disjoint writes, at a random rate.
fn arb_mixed_schedule(g: &mut Gen) -> Vec<(SimTime, TxRequest)> {
    let n = g.size(40, 100);
    let rate = g.f64_in(150.0, 350.0);
    (0..n)
        .map(|i| {
            let request = if g.prob(0.4) {
                TxRequest::new("rmw", vec!["hot".into(), format!("v{i}")])
            } else {
                TxRequest::new("writeonly", vec![format!("k{i}"), format!("v{i}")])
            };
            (SimTime::from_secs_f64(i as f64 / rate), request)
        })
        .collect()
}

/// A random Raft config, with a crash/failover on half the cases.
fn arb_raft(g: &mut Gen) -> RaftConfig {
    let mut raft = RaftConfig::calibrated(5);
    if g.flip() {
        let at = SimTime::from_millis(g.range(100, 600));
        raft.faults.crashes.push(CrashSpec {
            peer: g.range(0, 5) as usize,
            at,
            restart_at: at + SimTime::from_millis(g.range(100, 800)),
        });
    }
    raft
}

fn run_single(
    config: PipelineConfig,
    schedule: &[(SimTime, TxRequest)],
) -> (RunMetrics, PeerSnapshot) {
    let mut sim = Simulation::new(config, FabricValidator::new(), registry());
    sim.seed_state("hot", b"0".to_vec());
    let metrics = sim.run(schedule.to_vec());
    let snapshot = sim.peer().snapshot();
    (metrics, snapshot)
}

fn run_raft(
    config: PipelineConfig,
    schedule: &[(SimTime, TxRequest)],
) -> (RunMetrics, PeerSnapshot) {
    let backend = Box::new(RaftOrderingBackend::new(&config));
    let mut sim = ordered_by(config, backend);
    sim.seed_state("hot", b"0".to_vec());
    let metrics = sim.run(schedule.to_vec());
    let snapshot = sim.peer().snapshot();
    (metrics, snapshot)
}

/// 50-seed sweep (acceptance gate): `OrderingPolicy::Reorder` replays
/// the removed boolean reorder flag bit for bit on both backends, with
/// Raft fault schedules in the mix. The flag's own runs are gone with
/// it, so each backend's 50 ledgers (state then chain bytes, in case
/// order) are folded into one SHA-256 and pinned against the digest
/// the flag produced on the last commit that had it — re-recorded four
/// times, unchanged otherwise: when signatures became MACs of the
/// payload digest and the Merkle leaf began with that digest, when the
/// leaf came to cover the bytes a block stores, when a block came to
/// hold each converged value once, and when that value moved into a
/// hashed commit record beside the transactions as cut (DESIGN.md
/// §4.17).
#[test]
fn reorder_policy_matches_the_legacy_flag_goldens() {
    let mut single = Sha256::new();
    let mut raft = Sha256::new();
    gen::cases(50, |g| {
        let seed = g.u64();
        let schedule = arb_mixed_schedule(g);
        let block_size = g.size(5, 15);
        let base =
            PipelineConfig::paper(block_size, seed).with_ordering_policy(OrderingPolicy::Reorder);
        let raft_config = arb_raft(g);

        let (_, ledger) = run_single(base.clone(), &schedule);
        single.update(&ledger.state);
        single.update(&ledger.chain);

        let (_, ledger) = run_raft(base.with_raft_config(raft_config), &schedule);
        raft.update(&ledger.state);
        raft.update(&ledger.chain);
    });
    assert_eq!(
        hex::encode(&single.finalize()),
        "ada7f3f3cc148f5b3786a26aa313a0c8d228afaff6c0bfd702854066131c5902",
        "single orderer: Reorder diverged from the legacy flag"
    );
    assert_eq!(
        hex::encode(&raft.finalize()),
        "4b5d77a1ad51cd58961fa20a86ea84d6c0996d5b5e1741a403e12083dfbc9486",
        "raft: Reorder diverged from the legacy flag"
    );
}

fn rmw_tx(nonce: u64, key: &str) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record(key, Some(Height::new(1, 0)));
    rwset.writes.put(key.to_string(), vec![nonce as u8]);
    Transaction {
        id: TxId::derive(&client, nonce, "cc"),
        client,
        chaincode: "cc".into(),
        rwset,
        endorsements: Vec::new(),
    }
}

/// Directed regression (leader crash mid-batch): an RMW clique is cut
/// and reordered by the pre-elected leader, which crashes at a time
/// swept across the cut → replication → commit window. Whether the
/// entry was truncated (re-delivered by the successor) or preserved,
/// every transaction must surface exactly once — as a block commit or
/// an early abort, never both, never twice, never neither.
#[test]
fn leader_crash_mid_batch_surfaces_each_early_abort_exactly_once() {
    // The clique arrives by 5 ms (cut instant); calibrated ~1 ms links
    // put entry commit near 7 ms. 200 µs steps from before the cut to
    // well past the commit cover truncation and preservation both.
    for crash_at_us in (4_000..=9_000).step_by(200) {
        let mut raft = RaftConfig::calibrated(5);
        raft.faults.crashes.push(CrashSpec {
            peer: 0,
            at: SimTime::from_micros(crash_at_us),
            restart_at: SimTime::from_millis(700),
        });
        let config = PipelineConfig::paper(5, 17)
            .with_raft_config(raft)
            .with_ordering_policy(OrderingPolicy::Reorder);
        let mut cluster = RaftOrderingBackend::new(&config);

        // One 5-transaction RMW clique on a single key: reordering must
        // abort all but one member, whoever ends up cutting the block.
        let clique_ids: Vec<TxId> = (0..5)
            .map(|n| {
                let tx = rmw_tx(n, "hot");
                let id = tx.id;
                cluster.enqueue(SimTime::from_millis(1 + n), tx);
                id
            })
            .collect();
        // A post-recovery wave on disjoint keys: the cluster must still
        // make progress after the failover (and the restart).
        let wave_ids: Vec<TxId> = (10..15)
            .map(|n| {
                let tx = rmw_tx(n, &format!("w{n}"));
                let id = tx.id;
                cluster.enqueue(SimTime::from_millis(1000) + SimTime::from_millis(n), tx);
                id
            })
            .collect();

        // Step the cluster to quiescence, draining surfaced aborts at
        // every step so a double-surface across steps is visible too.
        let mut committed: Vec<TxId> = Vec::new();
        let mut aborted: Vec<TxId> = Vec::new();
        while let Some(at) = cluster.next_event_time() {
            for (_, block) in cluster.advance(at) {
                committed.extend(block.transactions.iter().map(|t| t.id));
            }
            aborted.extend(cluster.take_early_aborted().iter().map(|t| t.id));
        }

        // Exactly-once accounting over commits ∪ aborts.
        let mut seen: BTreeSet<TxId> = BTreeSet::new();
        for id in committed.iter().chain(&aborted) {
            assert!(
                seen.insert(*id),
                "crash at {crash_at_us} µs: transaction surfaced twice"
            );
        }
        let submitted: BTreeSet<TxId> = clique_ids.iter().chain(&wave_ids).copied().collect();
        assert_eq!(
            seen, submitted,
            "crash at {crash_at_us} µs: lost or invented transactions"
        );

        // The clique commits at least one member and aborts the rest;
        // the disjoint recovery wave commits in full.
        let clique_committed = committed
            .iter()
            .filter(|id| clique_ids.contains(id))
            .count();
        assert!(
            clique_committed >= 1,
            "crash at {crash_at_us} µs: the whole clique was aborted"
        );
        assert!(
            aborted.iter().all(|id| clique_ids.contains(id)),
            "crash at {crash_at_us} µs: aborted a disjoint-key transaction"
        );
        for id in &wave_ids {
            assert!(
                committed.contains(id),
                "crash at {crash_at_us} µs: recovery wave transaction lost"
            );
        }
    }
}

/// The adaptive policy under a leader crash: the run completes, every
/// transaction gets exactly one verdict, and the policy counters
/// survive the handoff (the successor inherits the master tracker).
#[test]
fn adaptive_policy_survives_failover() {
    let mut raft = RaftConfig::calibrated(5);
    raft.faults.crashes.push(CrashSpec {
        peer: 0,
        at: SimTime::from_millis(300),
        restart_at: SimTime::from_millis(1200),
    });
    let config = PipelineConfig::paper(10, 23)
        .with_raft_config(raft)
        .with_ordering_policy(OrderingPolicy::Adaptive);

    let schedule: Vec<(SimTime, TxRequest)> = (0..200)
        .map(|i| {
            let request = if i % 2 == 0 {
                TxRequest::new("rmw", vec!["hot".into(), format!("v{i}")])
            } else {
                TxRequest::new("writeonly", vec![format!("k{i}"), format!("v{i}")])
            };
            (SimTime::from_secs_f64(i as f64 / 250.0), request)
        })
        .collect();

    let backend = Box::new(RaftOrderingBackend::new(&config));
    let mut sim = ordered_by(config, backend);
    sim.seed_state("hot", b"0".to_vec());
    let metrics = sim.run(schedule);

    assert_eq!(metrics.submitted(), 200);
    assert_eq!(
        metrics.successful() + metrics.failed(),
        200,
        "failover left transactions without a verdict"
    );
    let ordering = metrics.ordering.as_ref().expect("raft metrics");
    assert!(
        ordering.leader_changes >= 1,
        "the crash must force failover"
    );
    let policy = metrics
        .conflict_policy
        .expect("adaptive run reports policy counters");
    // Cut attempts truncated by the failover never commit, so decisions
    // can exceed committed blocks — but never fall short.
    assert!(
        policy.batches_reordered + policy.batches_fifo >= metrics.blocks_committed,
        "committed blocks without a recorded policy decision"
    );
    sim.peer()
        .chain()
        .verify_integrity()
        .expect("chain verifies");
}
