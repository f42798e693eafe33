//! Multi-channel scaling: aggregate throughput of a sharded deployment.
//!
//! Fabric's horizontal-scaling story is channels — independent ledgers
//! with their own orderer and world state over one shared peer network
//! (Androulaki et al. §3.3). This bench sweeps channel count ×
//! clients-per-channel over the `fabriccrdt-channel` driver: every
//! channel runs the paper's all-conflicting CRDT hot-key workload
//! (§7.2) at `clients × 75 tx/s` on its own key space, over a gossip
//! network of its own, and the sweep reports *aggregate* TPS —
//! total committed transactions over the slowest channel's span.
//!
//! Invariants asserted every run:
//!
//! 1. The 1-channel deployment reproduces the seed single-channel
//!    gossip pipeline bit-for-bit (`RunMetrics` and ledger bytes).
//! 2. Every channel's gossip replicas reconverge to ledgers
//!    byte-identical to their channel's pipeline peer.
//! 3. Simulated-time aggregate TPS scales with channel count (each
//!    channel adds its own offered load and commits it).
//! 4. The cross-channel transfer primitive commits clean handoffs and
//!    aborts an injected endorsement failure.
//!
//! Every figure is simulated time; host time for this stack is `perf/`'s
//! `replicated-durable` workload.
//!
//! Emits `BENCH_multi_channel.json`.

use std::sync::Arc;

use fabriccrdt::CrdtValidator;
use fabriccrdt_bench::{obj, report, HarnessOptions};
use fabriccrdt_channel::{assemble, fabriccrdt_multi_channel};
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::channel::{ChannelId, MultiChannelConfig, TransferOutcome, TransferSpec};
use fabriccrdt_fabric::config::PipelineConfig;
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_workload::generator::shaped_payload;
use fabriccrdt_workload::{ChannelWorkload, IotChaincode, JsonShape};

const CHANNEL_COUNTS: [usize; 3] = [1, 2, 4];
const CLIENT_COUNTS: [usize; 2] = [2, 4];
const BLOCK_SIZE: usize = 25; // FabricCRDT's best (§7.3)

fn registry() -> ChaincodeRegistry {
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    registry
}

fn workload(channels: usize, clients: usize, txs_per_client: usize, seed: u64) -> ChannelWorkload {
    ChannelWorkload {
        clients_per_channel: clients,
        txs_per_client,
        seed,
        ..ChannelWorkload::paper_defaults(channels)
    }
}

struct Cell {
    channels: usize,
    clients: usize,
    total_txs: usize,
    successful: usize,
    aggregate_tps: f64,
    min_channel_tps: f64,
    max_channel_tps: f64,
    end_time_secs: f64,
}

/// Runs one sweep cell and checks convergence of every channel's
/// replica set.
fn run_cell(workload: &ChannelWorkload, seed: u64) -> Cell {
    let base = PipelineConfig::paper(BLOCK_SIZE, seed).with_gossip();
    let config = MultiChannelConfig::uniform(base, workload.channels);
    let mut net = fabriccrdt_multi_channel(config, registry());
    let seed_value = shaped_payload(JsonShape::paper_default(), "seed", usize::MAX)
        .to_compact_string()
        .into_bytes();
    let generated = workload.generate();
    for channel_schedule in &generated {
        for key in &channel_schedule.seed_keys {
            net.seed_state(channel_schedule.channel, key.clone(), seed_value.clone());
        }
    }
    let rollup = net.run(generated.into_iter().map(|s| s.schedule).collect());
    net.verify_converged();

    assert_eq!(
        rollup.total_successful(),
        workload.total_txs(),
        "FabricCRDT merges every conflict: all submissions commit"
    );
    let per_channel: Vec<f64> = rollup
        .channels
        .iter()
        .map(|c| c.metrics.successful_throughput_tps())
        .collect();
    Cell {
        channels: workload.channels,
        clients: workload.clients_per_channel,
        total_txs: workload.total_txs(),
        successful: rollup.total_successful(),
        aggregate_tps: rollup.aggregate_tps(),
        min_channel_tps: per_channel.iter().copied().fold(f64::INFINITY, f64::min),
        max_channel_tps: per_channel.iter().copied().fold(0.0, f64::max),
        end_time_secs: rollup.end_time().as_secs_f64(),
    }
}

/// Invariant 1: a 1-channel deployment is the seed pipeline,
/// bit-for-bit — same `RunMetrics`, same ledger bytes.
fn assert_single_channel_identity(clients: usize, txs_per_client: usize, seed: u64) {
    let workload = workload(1, clients, txs_per_client, seed);
    let generated = workload.generate();
    let seed_value = shaped_payload(JsonShape::paper_default(), "seed", usize::MAX)
        .to_compact_string()
        .into_bytes();

    let base = PipelineConfig::paper(BLOCK_SIZE, seed).with_gossip();
    let mut single = assemble(base.clone(), registry(), CrdtValidator::new);
    for key in &generated[0].seed_keys {
        single.seed_state(key.clone(), seed_value.clone());
    }
    let expected = single.run(generated[0].schedule.clone());

    let mut multi = fabriccrdt_multi_channel(MultiChannelConfig::uniform(base, 1), registry());
    for key in &generated[0].seed_keys {
        multi.seed_state(0, key.clone(), seed_value.clone());
    }
    let rollup = multi.run(vec![generated[0].schedule.clone()]);
    assert_eq!(
        rollup.channels[0].metrics, expected,
        "1-channel metrics must equal the seed pipeline's"
    );
    assert_eq!(
        multi.simulation(0).peer().snapshot(),
        single.peer().snapshot(),
        "1-channel ledger must be byte-identical to the seed pipeline's"
    );
}

/// Invariant 4: the cross-channel handoff commits clean transfers and
/// aborts the injected endorsement failure. Returns (committed,
/// aborted).
fn run_transfers(
    channels: usize,
    clients: usize,
    txs_per_client: usize,
    seed: u64,
) -> (usize, usize) {
    let workload = workload(channels, clients, txs_per_client, seed);
    let base = PipelineConfig::paper(BLOCK_SIZE, seed).with_gossip();
    let config = MultiChannelConfig::uniform(base, channels);
    let mut net = fabriccrdt_multi_channel(config, registry());
    let generated = workload.generate();
    let seed_value = shaped_payload(JsonShape::paper_default(), "seed", usize::MAX)
        .to_compact_string()
        .into_bytes();
    for channel_schedule in &generated {
        for key in &channel_schedule.seed_keys {
            net.seed_state(channel_schedule.channel, key.clone(), seed_value.clone());
        }
    }
    for c in 0..channels {
        net.seed_state(c, format!("asset-ch{c}"), br#"{"owner":"orig"}"#.to_vec());
    }
    net.run(generated.into_iter().map(|s| s.schedule).collect());

    // One handoff per adjacent channel pair; the last one is corrupted.
    let specs: Vec<TransferSpec> = (0..channels - 1)
        .map(|c| TransferSpec {
            key: format!("asset-ch{c}"),
            from: ChannelId(c as u32),
            to: ChannelId(c as u32 + 1),
            inject_failure: c == channels - 2,
            destination_down: false,
        })
        .collect();
    let reports = net.execute_transfers(&specs);
    net.verify_converged();
    let committed = reports
        .iter()
        .filter(|r| r.outcome == TransferOutcome::Committed)
        .count();
    let aborted = reports.len() - committed;
    assert_eq!(aborted, 1, "exactly the injected failure aborts");
    assert_eq!(committed, channels - 2, "every clean handoff commits");
    (committed, aborted)
}

pub fn run(options: &HarnessOptions) -> Result<(), String> {
    let txs_per_client = (options.config.total_txs / 100).clamp(10, 100);

    println!("Multi-channel scaling: aggregate TPS over a shared gossip network");
    println!(
        "workload: per-channel all-conflicting CRDT hot key, {txs_per_client} txs/client \
         at 75 tx/s each, block size {BLOCK_SIZE}, seed {}",
        options.config.seed
    );

    print!("checking 1-channel identity against the seed gossip pipeline... ");
    assert_single_channel_identity(
        *CLIENT_COUNTS.last().unwrap(),
        txs_per_client,
        options.config.seed,
    );
    println!("ok");

    println!(
        "{:>9} {:>8} {:>7} {:>10} {:>13} {:>10}",
        "channels", "clients", "txs", "sim secs", "aggregate tps", "ch tps"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for &channels in &CHANNEL_COUNTS {
        for &clients in &CLIENT_COUNTS {
            let cell = run_cell(
                &workload(channels, clients, txs_per_client, options.config.seed),
                options.config.seed,
            );
            println!(
                "{:>9} {:>8} {:>7} {:>10.2} {:>13.1} {:>10.1}",
                cell.channels,
                cell.clients,
                cell.total_txs,
                cell.end_time_secs,
                cell.aggregate_tps,
                cell.max_channel_tps,
            );
            cells.push(cell);
        }
    }

    // Invariant 3: simulated-time aggregate TPS scales with channel
    // count — N channels each commit their own offered load over the
    // same span, so the 4-channel deployment must clear well over twice
    // the 1-channel rate at equal clients.
    let clients = *CLIENT_COUNTS.last().unwrap();
    let tps_at = |n: usize| {
        cells
            .iter()
            .find(|c| c.channels == n && c.clients == clients)
            .expect("sweep cell ran")
            .aggregate_tps
    };
    let speedup = tps_at(4) / tps_at(1);
    assert!(
        speedup > 2.5,
        "4-channel aggregate TPS must scale: got {speedup:.2}x"
    );
    println!("aggregate TPS scaling at {clients} clients/channel: {speedup:.2}x (4 channels vs 1)");

    let (committed, aborted) = run_transfers(
        *CHANNEL_COUNTS.last().unwrap(),
        2,
        txs_per_client.min(20),
        options.config.seed,
    );
    println!("cross-channel transfers after the workload: {committed} committed, {aborted} aborted (injected)");

    // ---- BENCH_multi_channel.json ----------------------------------
    let cells_json = cells.iter().map(|c| {
        obj([
            ("channels", (c.channels as f64).into()),
            ("clients_per_channel", (c.clients as f64).into()),
            ("total_txs", (c.total_txs as f64).into()),
            ("successful", (c.successful as f64).into()),
            ("aggregate_tps", c.aggregate_tps.into()),
            ("min_channel_tps", c.min_channel_tps.into()),
            ("max_channel_tps", c.max_channel_tps.into()),
            ("sim_secs", c.end_time_secs.into()),
        ])
    });
    let json = obj([
        ("bench", "multi_channel".into()),
        ("seed", (options.config.seed as f64).into()),
        ("txs_per_client", (txs_per_client as f64).into()),
        ("rate_tps_per_client", 75.0.into()),
        ("block_size", (BLOCK_SIZE as f64).into()),
        ("single_channel_identity", true.into()),
        ("aggregate_tps_speedup_4ch", speedup.into()),
        ("transfers_committed", (committed as f64).into()),
        ("transfers_aborted", (aborted as f64).into()),
        ("cells", Value::list(cells_json)),
    ]);
    let last_cell = cells.len() - 1;
    report(
        "BENCH_multi_channel.json",
        &json,
        &[
            "aggregate_tps_speedup_4ch",
            "single_channel_identity",
            "transfers_committed",
            "cells.0.channels",
            "cells.0.clients_per_channel",
            &format!("cells.{last_cell}.aggregate_tps"),
        ],
    )?;
    println!("wrote BENCH_multi_channel.json ({} cells)", cells.len());
    Ok(())
}
