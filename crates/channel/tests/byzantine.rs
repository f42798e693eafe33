//! The pipeline under byzantine attack schedules.
//!
//! Each run is a one-channel deployment built through the front door
//! (`fabriccrdt_multi_channel`), so it honours every field of its
//! `PipelineConfig`. 100 generated schedules drive the FabricCRDT
//! gossip pipeline; every case asserts the three safety properties the
//! threat model promises (DESIGN.md §4.13): honest commits are
//! unaffected, honest replicas stay byte-identical, and every injected
//! forgery is screened out (and accounted for) at ingress. Fixed cases
//! pin down the detection semantics, the honest-run equivalence, and
//! the same guarantees under Raft ordering.

use std::sync::Arc;

use fabriccrdt_channel::fabriccrdt_multi_channel;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::channel::MultiChannelConfig;
use fabriccrdt_fabric::config::{
    AdversaryConfig, AttackSpec, PipelineConfig, RaftConfig, TamperMode,
};
use fabriccrdt_fabric::metrics::{AdversaryMetrics, RunMetrics};
use fabriccrdt_fabric::peer::PeerSnapshot;
use fabriccrdt_fabric::simulation::TxRequest;
use fabriccrdt_sim::gen::{self, Gen};
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::IotChaincode;

const TXS: usize = 8;
const BLOCK_SIZE: usize = 4;
const PEERS: usize = 6; // Topology::paper(): 3 orgs × 2 peers

fn registry() -> ChaincodeRegistry {
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    registry
}

/// The paper's all-conflicting CRDT hot-key workload, small enough to
/// run 100 times in the sweep.
fn schedule() -> Vec<(SimTime, TxRequest)> {
    (0..TXS)
        .map(|i| {
            let key = "hot".to_owned();
            let payload = format!(r#"{{"readings":["r{i}"]}}"#);
            (
                SimTime::from_millis(20 * (i as u64 + 1)),
                TxRequest::new(
                    "iot-crdt",
                    IotChaincode::args(
                        std::slice::from_ref(&key),
                        std::slice::from_ref(&key),
                        &payload,
                    ),
                ),
            )
        })
        .collect()
}

/// A run's metrics, with every replica's ledger after the lane drained
/// (`None` for a replica still down), in global peer order.
struct AdversarialRun {
    metrics: RunMetrics,
    snapshots: Vec<Option<PeerSnapshot>>,
}

impl AdversarialRun {
    fn adversary(&self) -> AdversaryMetrics {
        self.metrics.adversary.unwrap_or_default()
    }

    fn honest_replicas_identical(&self) -> bool {
        let Some(Some(first)) = self.snapshots.first() else {
            return false;
        };
        self.snapshots.iter().all(|s| s.as_ref() == Some(first))
    }
}

/// Runs the hot-key schedule on a one-channel deployment of `config`.
fn run_adversarial_pipeline(config: PipelineConfig) -> AdversarialRun {
    let mut net = fabriccrdt_multi_channel(MultiChannelConfig::uniform(config, 1), registry());
    net.seed_state(0, "hot", br#"{"readings":[]}"#.to_vec());
    let metrics = net.run(vec![schedule()]).channels.remove(0).metrics;
    let network = net.network();
    let snapshots = (0..network.peer_count())
        .map(|peer| network.snapshot_on(0, peer))
        .collect();
    AdversarialRun { metrics, snapshots }
}

/// Every tamper mode the adversary seam knows.
const ALL_MODES: [TamperMode; 5] = [
    TamperMode::FlipPayloadByte,
    TamperMode::DuplicateTx,
    TamperMode::ReorderTxs,
    TamperMode::ForgeTipHash,
    TamperMode::EquivocateValue,
];

/// Draws a random attack schedule: one to four attacks, each with a
/// random tamper mode, target height in `1..=max_height`, a random
/// non-empty victim set, an optional spoofed relay, and a small
/// injection delay. Every schedule is valid for any topology with
/// `n_peers` peers.
fn gen_attack_schedule(g: &mut Gen, n_peers: usize, max_height: u64) -> AdversaryConfig {
    let attacks = g.vec(1, 4, |g| {
        let mode = *g.pick(&ALL_MODES);
        let height = g.range(1, max_height + 1);
        let mut victims: Vec<usize> = (0..n_peers).filter(|_| g.prob(0.4)).collect();
        if victims.is_empty() {
            victims.push(g.range(0, n_peers as u64) as usize);
        }
        let via = g.flip().then(|| g.range(0, n_peers as u64) as usize);
        AttackSpec {
            height,
            mode,
            victims,
            via,
            delay: SimTime::from_millis(g.range(0, 50)),
        }
    });
    AdversaryConfig { attacks }
}

#[test]
fn hundred_schedule_byzantine_sweep() {
    let mut injected_total = 0u64;
    let mut equivocation_cases = 0usize;
    gen::cases(100, |g| {
        let seed = g.u64();
        let adversary = gen_attack_schedule(g, PEERS, 3);
        let config = PipelineConfig::paper(BLOCK_SIZE, seed)
            .with_gossip()
            .with_adversary(adversary);
        let run = run_adversarial_pipeline(config);

        assert_eq!(
            run.metrics.successful(),
            TXS,
            "forgery injection must not cost honest commits"
        );
        assert!(
            run.honest_replicas_identical(),
            "honest replicas diverged under attack"
        );
        let adv = run.adversary();
        if adv.forged_blocks_injected > 0 {
            // The chronologically first forgery cannot hide behind an
            // earlier quarantine, so at least one rejection is counted;
            // the rest are either rejected or dropped with their
            // quarantined relay.
            assert!(adv.rejected_blocks() >= 1, "no forgery was screened");
            assert!(
                adv.rejected_blocks() + adv.quarantine_drops >= adv.forged_blocks_injected,
                "injected forgeries unaccounted for: {adv:?}"
            );
        } else {
            assert_eq!(adv.rejected_blocks(), 0, "phantom rejections: {adv:?}");
        }
        injected_total += adv.forged_blocks_injected;
        if adv.equivocations_detected > 0 {
            equivocation_cases += 1;
        }
    });
    assert!(injected_total > 0, "the sweep never landed an attack");
    assert!(
        equivocation_cases > 0,
        "the sweep never produced equivocation evidence"
    );
}

/// Equivocation at height 1 through a spoofed relay, and a flipped
/// payload byte at height 2.
fn fixed_attacks() -> AdversaryConfig {
    AdversaryConfig {
        attacks: vec![
            AttackSpec {
                height: 1,
                mode: TamperMode::EquivocateValue,
                victims: vec![2, 4],
                via: Some(1),
                delay: SimTime::from_millis(3),
            },
            AttackSpec {
                height: 2,
                mode: TamperMode::FlipPayloadByte,
                victims: vec![3],
                via: None,
                delay: SimTime::from_millis(1),
            },
        ],
    }
}

#[test]
fn fixed_schedule_detects_equivocation_and_tampering() {
    let config = PipelineConfig::paper(BLOCK_SIZE, 42)
        .with_gossip()
        .with_adversary(fixed_attacks());
    let run = run_adversarial_pipeline(config);
    let adv = run.adversary();
    assert!(adv.forged_blocks_injected >= 3, "all three forgeries fire");
    assert!(
        adv.equivocations_detected >= 1,
        "divergent sealed payloads at one height are equivocation evidence: {adv:?}"
    );
    assert!(adv.forged_rejected >= 1, "resealed forgeries rejected");
    assert!(adv.tampered_rejected >= 1, "stale data hash rejected");
    assert_eq!(run.metrics.successful(), TXS);
    assert!(run.honest_replicas_identical());
}

#[test]
fn quiescent_adversary_reproduces_the_honest_run() {
    let honest = run_adversarial_pipeline(PipelineConfig::paper(BLOCK_SIZE, 7).with_gossip());
    assert_eq!(honest.metrics.adversary, None, "no seam, no counters");

    let quiescent = run_adversarial_pipeline(
        PipelineConfig::paper(BLOCK_SIZE, 7)
            .with_gossip()
            .with_adversary(AdversaryConfig::none()),
    );
    let adv = quiescent.adversary();
    assert_eq!(adv, Default::default(), "quiescent seam counts nothing");

    // Everything except the adversary field is bit-identical: the seam
    // itself costs no PRNG draws and no simulated time.
    let mut scrubbed = quiescent.metrics.clone();
    scrubbed.adversary = None;
    assert_eq!(scrubbed, honest.metrics);
    for (a, b) in honest.snapshots.iter().zip(&quiescent.snapshots) {
        assert_eq!(a, b, "ledger bytes must match the honest run");
    }
}

/// The fixed schedule under Raft ordering: the deployment honours
/// `PipelineConfig::ordering`, so the cluster orders the run; every
/// honest commit lands, the replicas stay byte-identical and the
/// forgeries are screened at ingress.
#[test]
fn raft_ordered_byzantine_run_keeps_replicas_identical() {
    let config = PipelineConfig::paper(BLOCK_SIZE, 42)
        .with_gossip()
        .with_raft_config(RaftConfig::calibrated(5))
        .with_adversary(fixed_attacks());
    let run = run_adversarial_pipeline(config);
    assert!(run.metrics.ordering.is_some(), "the Raft cluster ordered");
    assert_eq!(run.metrics.successful(), TXS);
    assert!(run.honest_replicas_identical());
    let adv = run.adversary();
    assert!(adv.forged_blocks_injected >= 3, "all three forgeries fire");
    assert!(adv.equivocations_detected >= 1, "{adv:?}");
    assert!(
        adv.forged_rejected >= 1 && adv.tampered_rejected >= 1,
        "{adv:?}"
    );
}
