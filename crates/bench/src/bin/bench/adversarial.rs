//! Adversarial resilience: byzantine faults and offline-peer merge
//! storms.
//!
//! The paper's evaluation (§7) measures honest networks; this bench
//! measures what the reproduction *survives*, via the
//! `fabriccrdt-adversary` harness:
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

use fabriccrdt_adversary::{merge_storm_report, run_adversarial_pipeline, AdversarialRun};
use fabriccrdt_bench::{obj, report, HarnessOptions};
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::config::{
    AdversaryConfig, AttackSpec, CrashSpec, FaultConfig, PipelineConfig, TamperMode,
};
use fabriccrdt_fabric::metrics::AdversaryMetrics;
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

fn seeds() -> Vec<(String, Vec<u8>)> {
    vec![("hot".to_owned(), br#"{"readings":[]}"#.to_vec())]
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
        ..AdversaryConfig::none()
    }
}

fn run_byzantine(txs: usize, seed: u64) -> AdversarialRun {
    let config = PipelineConfig::paper(BLOCK_SIZE, seed)
        .with_gossip()
        .with_adversary(attack_schedule());
    run_adversarial_pipeline(config, registry(), &seeds(), schedule(txs))
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
    (
        run_adversarial_pipeline(config, registry(), &seeds(), full),
        total,
    )
}

pub fn run(options: &HarnessOptions) {
    let txs = (options.total_txs / 25).clamp(40, 400);
    let seed = options.seed;

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
    assert!(adv.forged_blocks_injected >= 5, "every attack fires");
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
    let episode = merge_storm_report(&storm_run, 3)
        .expect("the crashed peer records a completed catch-up episode");
    println!(
        "ok — caught up in {:.3} sim secs, {} bytes shipped, snapshot: {}",
        episode.catch_up_secs, episode.bytes_shipped, episode.used_snapshot
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
        ("merge_storm_catch_up_secs", episode.catch_up_secs.into()),
        (
            "merge_storm_bytes_shipped",
            (episode.bytes_shipped as f64).into(),
        ),
        ("merge_storm_used_snapshot", episode.used_snapshot.into()),
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
    )
    .unwrap_or_else(|message| crate::fail(message));
    println!("wrote BENCH_adversarial.json");
}
