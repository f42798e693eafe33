//! A new peer joins the network and catches up.
//!
//! Fabric peers bootstrap either by replaying the channel's blocks from
//! the ordering service or (since v2) from a ledger snapshot. The
//! reproduction supports both, and because FabricCRDT's merge path is
//! deterministic (§4.2's convergence requirement), a late-joining peer
//! lands on byte-identical state however it catches up:
//!
//! 1. run a FabricCRDT network for a while,
//! 2. bootstrap replica B by **snapshot** (`Peer::ledger_snapshot` /
//!    `restore_from_snapshot`),
//! 3. bootstrap replica C by **block replay** from the serialized chain,
//! 4. verify all three agree, then process one more block on each.
//!
//! Run with: `cargo run --release --example peer_catchup`

use std::sync::Arc;

use fabriccrdt_repro::fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_repro::fabric::config::{PipelineConfig, Topology};
use fabriccrdt_repro::fabric::peer::Peer;
use fabriccrdt_repro::fabriccrdt::{fabriccrdt_simulation, CrdtValidator};
use fabriccrdt_repro::ledger::codec;
use fabriccrdt_repro::workload::iot::IotChaincode;

fn main() {
    // --- 1. A FabricCRDT network processes 200 conflicting transactions.
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    let mut sim = fabriccrdt_simulation(PipelineConfig::paper(25, 29), registry);
    sim.seed_state("device1", br#"{"readings":[]}"#.to_vec());
    let schedule = IotChaincode::hot_key_schedule("device1", 200, 300.0);
    let metrics = sim.run(schedule);
    println!(
        "running network: {} committed over {} blocks",
        metrics.successful(),
        metrics.blocks_committed
    );
    let veteran = sim.peer();

    // --- 2. Replica B bootstraps from a snapshot.
    let snapshot = veteran.snapshot();
    println!(
        "snapshot: {} state bytes + {} chain bytes",
        snapshot.state.len(),
        snapshot.chain.len()
    );
    let replica_b = Peer::restore_from_snapshot(
        CrdtValidator::new(),
        Topology::paper().default_policy(),
        &veteran.ledger_snapshot(),
    );

    // --- 3. Replica C replays the serialized chain block by block.
    let chain = codec::decode_chain(&snapshot.chain).expect("chain decodes");
    let mut replica_c: Peer<CrdtValidator> =
        Peer::new(CrdtValidator::new(), Topology::paper().default_policy());
    replica_c.seed_state("device1", br#"{"readings":[]}"#.to_vec());
    for block in chain.iter().skip(1) {
        // Replay exactly what was committed: blocks carry the already
        // merged write sets and the recorded validation codes.
        replica_c
            .replay_block(block.clone())
            .expect("replay extends the chain");
    }

    // --- 4. All three replicas agree, byte for byte.
    assert_eq!(replica_b.state(), veteran.state(), "snapshot catch-up");
    assert_eq!(replica_c.state(), veteran.state(), "replay catch-up");
    assert_eq!(replica_b.chain().tip_hash(), veteran.chain().tip_hash());
    assert_eq!(replica_c.chain().tip_hash(), veteran.chain().tip_hash());
    println!("replica B (snapshot) and replica C (replay) match the veteran ✓");

    let stored = fabriccrdt_repro::jsoncrdt::json::Value::from_bytes(
        veteran.state().value("device1").unwrap(),
    )
    .unwrap();
    println!(
        "device1 document carries {} merged readings across the run",
        stored.get("readings").unwrap().as_list().unwrap().len()
    );
}
