//! Running the FabricCRDT pipeline over a Raft-replicated ordering
//! service and killing the leader mid-run.
//!
//! The default simulation orders transactions through a single,
//! always-up orderer. This example swaps in the `fabriccrdt-ordering`
//! backend — a five-node Raft cluster where only the leader embeds the
//! block cutter — and crashes the pre-elected leader while transactions
//! are in flight. The cluster re-elects (seeded randomized timeouts,
//! 150–300 ms), the new leader resumes cutting from the replicated log,
//! and clients re-route their held transactions.
//!
//! The punchline: consensus failover costs *latency*, never
//! correctness — every transaction still commits exactly once, and the
//! committed chain verifies end to end.
//!
//! A stricter version of this scenario (plus 100-seed safety sweeps)
//! runs in CI as `crates/ordering/tests/pipeline_equivalence.rs` and
//! `crates/ordering/tests/raft_safety.rs`.
//!
//! Run with: `cargo run --release --example raft_failover`

use std::sync::Arc;

use fabriccrdt_repro::channel::assemble;
use fabriccrdt_repro::fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_repro::fabric::config::{CrashSpec, PipelineConfig, RaftConfig};
use fabriccrdt_repro::fabriccrdt::CrdtValidator;
use fabriccrdt_repro::sim::time::SimTime;
use fabriccrdt_repro::workload::iot::IotChaincode;

fn main() {
    // Five Raft nodes with the paper-calibrated timeouts; node 0 starts
    // as the pre-elected leader, gets killed at 500 ms, and rejoins as
    // a follower at 1.5 s.
    let mut raft = RaftConfig::calibrated(5);
    raft.faults.crashes.push(CrashSpec {
        peer: 0,
        at: SimTime::from_millis(500),
        restart_at: SimTime::from_millis(1_500),
    });
    let config = PipelineConfig::paper(25, 11).with_raft_config(raft);

    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    let mut sim = assemble(config, registry, CrdtValidator::new);
    sim.seed_state("device1", br#"{"readings":[]}"#.to_vec());

    // 400 all-conflicting CRDT transactions on one hot key at 300 tx/s
    // — the kill lands mid-stream.
    let schedule = IotChaincode::hot_key_schedule("device1", 400, 300.0);

    let metrics = sim.run(schedule);
    println!(
        "pipeline: {}/{} committed over {} blocks, end at {:.1} ms",
        metrics.successful(),
        metrics.submitted(),
        metrics.blocks_committed,
        metrics.end_time.as_millis_f64(),
    );
    assert_eq!(metrics.successful(), 400, "failover must not lose txs");

    let ordering = metrics
        .ordering
        .expect("the raft backend reports ordering metrics");
    let commit = ordering.commit_latency_summary();
    println!(
        "raft: {} election(s), {} leader change(s), final term {}, \
         {} client retries while leaderless",
        ordering.elections_started,
        ordering.leader_changes,
        ordering.final_term,
        ordering.submission_retries,
    );
    println!(
        "raft: {} consensus messages ({} dropped); replication adds \
         p50 {:.2} ms, p99 {:.2} ms before a block ships",
        ordering.messages_sent,
        ordering.messages_dropped,
        commit.percentile(50.0).unwrap_or(0.0) * 1e3,
        commit.percentile(99.0).unwrap_or(0.0) * 1e3,
    );
    assert!(
        ordering.elections_started >= 1,
        "the kill forces a re-election"
    );
}
