//! Leader-kill failover experiment for the Raft ordering service.
//!
//! The paper's pipeline assumes an always-up single orderer. This
//! experiment swaps in the `fabriccrdt-ordering` Raft cluster (five
//! nodes, pre-elected leader) and kills the leader mid-run: the cluster
//! must re-elect, the embedded block cutter must resume on the new
//! leader without losing or duplicating a single transaction, and the
//! throughput dip must be bounded by the election timeout.
//!
//! Protocol:
//!
//! 1. Baseline: the same workload through the default single orderer.
//! 2. Failover run: Raft ordering with the leader crashed at 40 % of
//!    the nominal run and restarted at 70 %.
//! 3. Report: throughput buckets around the kill, the commit stall
//!    (the longest gap between consecutive commits starting at or after
//!    the kill), commit-latency percentiles, and the Raft counters
//!    (elections, leader changes, client retries, message loss).
//! 4. Assert: every transaction still commits exactly once, and at
//!    least one re-election happened.

use std::sync::Arc;

use fabriccrdt::CrdtValidator;
use fabriccrdt_bench::HarnessOptions;
use fabriccrdt_channel::assemble;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::config::{CrashSpec, PipelineConfig, RaftConfig};
use fabriccrdt_fabric::metrics::RunMetrics;
use fabriccrdt_fabric::simulation::TxRequest;
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::iot::IotChaincode;

const NODES: usize = 5;
const RATE_TPS: f64 = 300.0;
const BUCKET_MS: u64 = 100;

fn schedule(txs: usize) -> Vec<(SimTime, TxRequest)> {
    IotChaincode::hot_key_schedule("device1", txs, RATE_TPS)
}

fn run_pipeline(config: PipelineConfig, txs: usize) -> RunMetrics {
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    let mut sim = assemble(config, registry, CrdtValidator::new);
    sim.seed_state("device1", br#"{"readings":[]}"#.to_vec());
    sim.run(schedule(txs))
}

/// Sorted commit times of every successful transaction.
fn commit_times(metrics: &RunMetrics) -> Vec<SimTime> {
    let mut times: Vec<SimTime> = metrics
        .records
        .iter()
        .filter_map(|r| r.committed_at)
        .collect();
    times.sort();
    times
}

/// The longest gap between consecutive commits that starts inside
/// `[from, until]`: the commit stall the leader kill caused (bounding
/// the search keeps the end-of-run batch-timeout flush out of it).
/// Returns `(stall_start, stall_duration)`.
fn commit_stall(times: &[SimTime], from: SimTime, until: SimTime) -> Option<(SimTime, SimTime)> {
    times
        .windows(2)
        .filter(|w| w[0] >= from && w[0] <= until)
        .map(|w| (w[0], w[1] - w[0]))
        .max_by_key(|&(_, gap)| gap)
}

fn report_run(label: &str, metrics: &RunMetrics) {
    println!("--- {label} ---");
    println!(
        "  {}/{} committed over {} blocks, end at {:.1} ms, {:.1} tps",
        metrics.successful(),
        metrics.submitted(),
        metrics.blocks_committed,
        metrics.end_time.as_millis_f64(),
        metrics.successful_throughput_tps(),
    );
    let latency = metrics.latency_summary();
    println!(
        "  end-to-end latency: p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms",
        latency.percentile(50.0).unwrap_or(0.0) * 1e3,
        latency.percentile(99.0).unwrap_or(0.0) * 1e3,
        latency.max().unwrap_or(0.0) * 1e3,
    );
}

pub fn run(options: &HarnessOptions) -> Result<(), String> {
    let txs = options.config.total_txs.min(10_000);
    let nominal = SimTime::from_secs_f64(txs as f64 / RATE_TPS);
    let crash_at = SimTime::from_micros(nominal.as_micros() * 2 / 5);
    let restart_at = SimTime::from_micros(nominal.as_micros() * 7 / 10);

    println!("Orderer failover: Raft ordering service under a leader kill");
    println!(
        "workload: {txs} CRDT txs at {RATE_TPS} tx/s; {NODES}-node Raft cluster; \
         leader killed at {:.0} ms, restarted at {:.0} ms\n",
        crash_at.as_millis_f64(),
        restart_at.as_millis_f64(),
    );

    // 1. Baseline: the default single orderer.
    let baseline = run_pipeline(PipelineConfig::paper(25, options.config.seed), txs);
    report_run("single orderer (baseline)", &baseline);
    println!();

    // 2. Failover run: kill the pre-elected leader (node 0) mid-run.
    let mut raft = RaftConfig::calibrated(NODES);
    raft.faults.crashes.push(CrashSpec {
        peer: 0,
        at: crash_at,
        restart_at,
    });
    let mut config = PipelineConfig::paper(25, options.config.seed);
    config.ordering = Some(raft);
    let failover = run_pipeline(config, txs);
    report_run("raft ordering, leader killed", &failover);

    let ordering = failover
        .ordering
        .as_ref()
        .expect("the raft backend reports ordering metrics");
    let commit = ordering.commit_latency_summary();
    println!(
        "  raft: {} election(s), {} leader change(s), final term {}, \
         {} client retries",
        ordering.elections_started,
        ordering.leader_changes,
        ordering.final_term,
        ordering.submission_retries,
    );
    println!(
        "  raft: {} consensus messages sent, {} dropped; \
         block commit latency p50 {:.2} ms, p99 {:.2} ms",
        ordering.messages_sent,
        ordering.messages_dropped,
        commit.percentile(50.0).unwrap_or(0.0) * 1e3,
        commit.percentile(99.0).unwrap_or(0.0) * 1e3,
    );

    // 3. Throughput dip and recovery around the kill.
    let bucket = SimTime::from_millis(BUCKET_MS);
    let series = failover.throughput_series(bucket);
    let times = commit_times(&failover);
    let window_end = crash_at + SimTime::from_secs(2);
    let (stall_start, stall) = commit_stall(&times, crash_at, window_end).ok_or_else(|| {
        format!("the run commits on both sides of the kill: {txs} txs end before it; raise --txs")
    })?;
    println!(
        "  largest commit gap in the 2 s after the kill: {:.1} ms \
         (commits paused {:.1}-{:.1} ms); note the pipeline's own \
         delivery latency hides part of the election — blocks emitted \
         before the kill keep committing during it",
        stall.as_millis_f64(),
        stall_start.as_millis_f64(),
        (stall_start + stall).as_millis_f64(),
    );

    let window_from =
        crash_at.as_micros().saturating_sub(3 * bucket.as_micros()) / bucket.as_micros();
    let window_to = ((crash_at + SimTime::from_millis(1_200)).as_micros() / bucket.as_micros())
        .min(series.counts().len() as u64);
    println!("  commits per {BUCKET_MS} ms bucket around the kill:");
    for i in window_from..window_to {
        let count = series.counts()[i as usize];
        let marker = if SimTime::from_millis(i * BUCKET_MS) <= crash_at
            && crash_at < SimTime::from_millis((i + 1) * BUCKET_MS)
        {
            "  <- leader killed"
        } else {
            ""
        };
        println!(
            "    [{:>5} ms] {:>3} {}{marker}",
            i * BUCKET_MS,
            count,
            "#".repeat(count as usize),
        );
    }

    let rows: Vec<Vec<String>> = (0u64..)
        .zip(series.counts())
        .map(|(i, count)| vec![(i * BUCKET_MS).to_string(), count.to_string()])
        .collect();
    options.write_csv(&["bucket_ms", "commits"], &rows)?;

    // 4. The failover invariants.
    assert_eq!(
        failover.successful(),
        txs,
        "failover lost or failed transactions"
    );
    assert_eq!(baseline.successful(), txs);
    assert!(
        ordering.elections_started >= 1,
        "the leader kill must force a re-election"
    );
    assert!(ordering.leader_changes >= 1);
    println!(
        "\nfailover invariants hold: all {txs} txs committed exactly once, \
         {} re-election(s) ✓",
        ordering.elections_started,
    );
    Ok(())
}
