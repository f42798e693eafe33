//! Adversarial resilience: byzantine faults and offline-peer merge
//! storms.
//!
//! The paper's evaluation (§7) measures honest networks; this bench
//! measures what the reproduction *survives*. Each run is a one-channel
//! deployment built through the front door
//! ([`fabriccrdt_multi_channel`]), so it honours every field of its
//! [`PipelineConfig`] (the attack and fault schedules, gossip, Raft
//! ordering), and reads back every replica's ledger once the lane has
//! drained:
//!
//! 1. **Byzantine orderer/network** — a fixed attack schedule
//!    (equivocating sealed payloads, flipped bytes, duplicated and
//!    reordered transactions, forged tip hashes) injected into the
//!    gossip layer while the paper's all-conflicting CRDT workload
//!    runs. Asserts: every honest commit lands, every replica ends
//!    byte-identical, equivocation evidence is recorded.
//! 2. **Merge storm** — a peer crash window during traffic measures
//!    gossip catch-up (the storm's reconvergence time), then the
//!    client's offline backlog is submitted as a rejoin burst.
//!
//! A client's hostile input is its write value; Algorithm 1's property
//! tests (`crates/core/tests/properties.rs`) cover it.
//!
//! Emits `BENCH_adversarial.json`.

use std::sync::Arc;

use fabriccrdt_bench::{obj, report, HarnessOptions};
use fabriccrdt_channel::fabriccrdt_multi_channel;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::channel::MultiChannelConfig;
use fabriccrdt_fabric::config::{
    AdversaryConfig, AttackSpec, CrashSpec, FaultConfig, PipelineConfig, TamperMode,
};
use fabriccrdt_fabric::metrics::{AdversaryMetrics, CatchUpEpisode, RunMetrics};
use fabriccrdt_fabric::peer::PeerSnapshot;
use fabriccrdt_fabric::simulation::TxRequest;
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::offline::{offline_payloads, rejoin_schedule};
use fabriccrdt_workload::IotChaincode;

const BLOCK_SIZE: usize = 25; // FabricCRDT's best (§7.3)
const TX_GAP: SimTime = SimTime::from_millis(15);

fn registry() -> ChaincodeRegistry {
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    registry
}

/// A run's metrics, with every replica's ledger after the lane drained
/// (`None` for a replica still down), in global peer order.
struct AdversarialRun {
    metrics: RunMetrics,
    snapshots: Vec<Option<PeerSnapshot>>,
}

impl AdversarialRun {
    /// The adversary counters (zeroed when the run had no adversary
    /// schedule).
    fn adversary(&self) -> AdversaryMetrics {
        self.metrics.adversary.unwrap_or_default()
    }

    /// Whether every replica finished up and byte-identical — the
    /// honest network's safety property under attack.
    fn honest_replicas_identical(&self) -> bool {
        let Some(Some(first)) = self.snapshots.first() else {
            return false;
        };
        self.snapshots.iter().all(|s| s.as_ref() == Some(first))
    }

    /// Peer `peer`'s longest completed catch-up episode: what it took
    /// gossip anti-entropy to bring the crashed peer back.
    fn merge_storm_report(&self, peer: usize) -> Option<&CatchUpEpisode> {
        self.metrics
            .dissemination
            .as_ref()?
            .catch_up
            .iter()
            .filter(|e| e.peer == peer && !e.is_abandoned())
            .max_by_key(|e| e.duration())
    }
}

/// Runs `schedule` on a one-channel FabricCRDT deployment of `config`
/// over the CRDT base document.
fn run_pipeline(config: PipelineConfig, schedule: Vec<(SimTime, TxRequest)>) -> AdversarialRun {
    let mut net = fabriccrdt_multi_channel(MultiChannelConfig::uniform(config, 1), registry());
    net.seed_state(0, "hot", br#"{"readings":[]}"#.to_vec());
    let metrics = net.run(vec![schedule]).channels.remove(0).metrics;
    let network = net.network();
    let snapshots = (0..network.peer_count())
        .map(|peer| network.snapshot_on(0, peer))
        .collect();
    AdversarialRun { metrics, snapshots }
}

/// The paper's all-conflicting CRDT hot-key workload.
fn schedule(txs: usize) -> Vec<(SimTime, TxRequest)> {
    let key = "hot".to_owned();
    (0..txs)
        .map(|i| {
            let payload = format!(r#"{{"readings":["r{i}"]}}"#);
            (
                TX_GAP.scale(i as u64 + 1),
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

/// A schedule hitting every tamper mode across the first blocks, with
/// victims spread over the topology and one spoofed relay.
fn attack_schedule() -> AdversaryConfig {
    let modes = [
        TamperMode::EquivocateValue,
        TamperMode::FlipPayloadByte,
        TamperMode::DuplicateTx,
        TamperMode::ReorderTxs,
        TamperMode::ForgeTipHash,
    ];
    AdversaryConfig {
        attacks: modes
            .iter()
            .enumerate()
            .map(|(i, &mode)| AttackSpec {
                height: i as u64 + 1,
                mode,
                victims: vec![(i + 1) % 6, (i + 3) % 6],
                via: (i % 2 == 0).then_some(i % 6),
                delay: SimTime::from_millis(2 + i as u64),
            })
            .collect(),
    }
}

fn run_byzantine(txs: usize, seed: u64) -> AdversarialRun {
    let config = PipelineConfig::paper(BLOCK_SIZE, seed)
        .with_gossip()
        .with_adversary(attack_schedule());
    run_pipeline(config, schedule(txs))
}

/// Network-scale merge storm: peer 3 is offline (crashed) for the
/// middle half of the run while traffic keeps committing, then rejoins
/// and catches up; after the traffic, the client's own offline backlog
/// is submitted as a rejoin burst.
fn run_merge_storm(txs: usize, seed: u64) -> (AdversarialRun, usize) {
    let traffic_end = TX_GAP.scale(txs as u64 + 1);
    let faults = FaultConfig {
        crashes: vec![CrashSpec {
            peer: 3,
            at: TX_GAP.scale(txs as u64 / 4),
            restart_at: TX_GAP.scale(3 * txs as u64 / 4),
        }],
        ..FaultConfig::none()
    };
    let backlog = offline_payloads("d3", 16);
    let mut full = schedule(txs);
    full.extend(rejoin_schedule(
        "hot",
        &backlog,
        traffic_end,
        SimTime::from_millis(2),
    ));
    let total = full.len();
    let config = PipelineConfig::paper(BLOCK_SIZE, seed)
        .with_gossip()
        .with_faults(faults);
    (run_pipeline(config, full), total)
}

pub fn run(options: &HarnessOptions) -> Result<(), String> {
    let txs = (options.config.total_txs / 25).clamp(40, 400);
    let seed = options.config.seed;

    println!("Adversarial resilience: byzantine faults, fuzzing, merge storms");
    println!(
        "workload: all-conflicting CRDT hot key, {txs} txs, block size {BLOCK_SIZE}, seed {seed}"
    );

    // ---- 1. byzantine attack schedule ------------------------------
    print!("byzantine schedule (5 tamper modes)... ");
    let byz = run_byzantine(txs, seed);
    let adv: AdversaryMetrics = byz.adversary();
    let converged = byz.honest_replicas_identical();
    assert_eq!(
        byz.metrics.successful(),
        txs,
        "forgery injection must not cost honest commits"
    );
    assert!(converged, "honest replicas diverged under attack");
    if adv.forged_blocks_injected < 5 {
        return Err(format!(
            "every attack fires: {} of 5 forged blocks injected over {txs} txs; \
             a larger --txs runs a longer chain",
            adv.forged_blocks_injected
        ));
    }
    assert!(
        adv.equivocations_detected > 0,
        "equivocation evidence must be recorded: {adv:?}"
    );
    assert!(
        adv.rejected_blocks() + adv.quarantine_drops >= adv.forged_blocks_injected,
        "forgeries unaccounted for: {adv:?}"
    );
    println!(
        "ok — injected {}, tampered rejected {}, forged rejected {}, \
         equivocations {}, quarantined peers {}",
        adv.forged_blocks_injected,
        adv.tampered_rejected,
        adv.forged_rejected,
        adv.equivocations_detected,
        adv.quarantined_peers,
    );

    // ---- 2. network-level merge storm ------------------------------
    print!("merge storm (peer offline for half the run + rejoin burst)... ");
    let (storm_run, storm_txs) = run_merge_storm(txs, seed);
    assert_eq!(storm_run.metrics.successful(), storm_txs);
    assert!(
        storm_run.honest_replicas_identical(),
        "offline peer failed to reconverge"
    );
    let episode = storm_run
        .merge_storm_report(3)
        .expect("the crashed peer records a completed catch-up episode");
    let catch_up_secs = episode.duration().as_secs_f64();
    println!(
        "ok — caught up in {catch_up_secs:.3} sim secs, {} bytes shipped, snapshot: {}",
        episode.bytes_shipped,
        episode.used_snapshot()
    );

    // ---- BENCH_adversarial.json ------------------------------------
    let json = obj([
        ("bench", "adversarial".into()),
        ("seed", (seed as f64).into()),
        ("total_txs", (txs as f64).into()),
        ("block_size", (BLOCK_SIZE as f64).into()),
        (
            "forged_blocks_injected",
            (adv.forged_blocks_injected as f64).into(),
        ),
        ("tampered_rejected", (adv.tampered_rejected as f64).into()),
        ("forged_rejected", (adv.forged_rejected as f64).into()),
        (
            "equivocations_detected",
            (adv.equivocations_detected as f64).into(),
        ),
        ("quarantined_peers", (adv.quarantined_peers as f64).into()),
        ("quarantine_drops", (adv.quarantine_drops as f64).into()),
        ("honest_replicas_converged", converged.into()),
        ("merge_storm_catch_up_secs", catch_up_secs.into()),
        (
            "merge_storm_bytes_shipped",
            (episode.bytes_shipped as f64).into(),
        ),
        ("merge_storm_used_snapshot", episode.used_snapshot().into()),
    ]);
    report(
        "BENCH_adversarial.json",
        &json,
        &[
            "equivocations_detected",
            "tampered_rejected",
            "forged_rejected",
            "honest_replicas_converged",
            "merge_storm_catch_up_secs",
        ],
    )?;
    println!("wrote BENCH_adversarial.json");
    Ok(())
}
