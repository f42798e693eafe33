//! Late-joining peers catch up to byte-identical ledgers.
//!
//! Fabric peers bootstrap either from a ledger snapshot (v2) or by
//! replaying the channel's blocks. Both paths must land on exactly the
//! state of a peer that processed the whole run live — the invariant
//! the gossip layer's anti-entropy state transfer relies on. This is
//! the integration-test promotion of `examples/peer_catchup.rs`
//! (which demonstrates the same flow with the CRDT validator).

use std::sync::Arc;

use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub};
use fabriccrdt_fabric::config::{PipelineConfig, Topology};
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::simulation::{Simulation, TxRequest};
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::store::LedgerSnapshot;
use fabriccrdt_sim::time::SimTime;

/// Read-modify-write chaincode on a single key: args = [key, value].
struct RmwChaincode;

impl Chaincode for RmwChaincode {
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
    reg.deploy(Arc::new(RmwChaincode));
    reg
}

fn schedule(n: usize) -> Vec<(SimTime, TxRequest)> {
    (0..n)
        .map(|i| {
            let request = if i % 3 == 0 {
                // Conflicting traffic so blocks carry a mix of valid and
                // failed transactions — catch-up must preserve both.
                TxRequest::new("rmw", vec!["hot".into(), format!("v{i}")])
            } else {
                TxRequest::new("rmw", vec![format!("k{i}"), format!("v{i}")])
            };
            (SimTime::from_secs_f64(i as f64 / 300.0), request)
        })
        .collect()
}

/// A network that processed 200 transactions, a replica restored from
/// its ledger snapshot, and a replica that replayed its serialized chain —
/// then one more block of traffic applied to all three.
#[test]
fn snapshot_and_replay_bootstrap_match_the_veteran() {
    let mut sim = Simulation::new(
        PipelineConfig::paper(25, 29),
        FabricValidator::new(),
        registry(),
    );
    sim.seed_state("hot", b"0".to_vec());
    let metrics = sim.run(schedule(200));
    assert_eq!(metrics.submitted(), 200);
    assert!(metrics.blocks_committed >= 8);

    let veteran = sim.peer();
    let snapshot = veteran.snapshot();

    // Replica B bootstraps from the ledger snapshot: it resumes at the
    // tip and holds no block below it.
    let mut replica_b = Peer::restore_from_snapshot(
        FabricValidator::new(),
        Topology::paper().default_policy(),
        &veteran.ledger_snapshot(),
    );

    // Replica C replays the serialized chain block by block. Committed
    // blocks carry the recorded validation codes, so replay reproduces
    // exactly what the live peer decided.
    let chain = codec::decode_chain(&snapshot.chain).expect("chain decodes");
    let mut replica_c: Peer<FabricValidator> =
        Peer::new(FabricValidator::new(), Topology::paper().default_policy());
    replica_c.seed_state("hot", b"0".to_vec());
    for block in chain.iter().skip(1) {
        replica_c
            .replay_block(block.clone())
            .expect("replay extends the chain");
    }

    assert_eq!(replica_b.state(), veteran.state(), "snapshot catch-up");
    assert_eq!(replica_c.state(), veteran.state(), "replay catch-up");
    assert_eq!(replica_b.chain().tip_hash(), veteran.chain().tip_hash());
    assert_eq!(replica_c.chain().tip_hash(), veteran.chain().tip_hash());

    // Serialized ledgers are byte-identical, not merely equal.
    assert_eq!(replica_b.snapshot().state, snapshot.state);
    assert_eq!(replica_b.ledger_snapshot(), veteran.ledger_snapshot());
    assert_eq!(replica_c.snapshot().state, snapshot.state);
    assert_eq!(replica_c.snapshot().chain, snapshot.chain);

    // The caught-up replicas keep pace: run one more block of traffic
    // through the network and replay it onto both.
    let before = veteran.chain().height();
    let more = sim.run(vec![(
        SimTime::ZERO,
        TxRequest::new("rmw", vec!["fresh".into(), "after-catchup".into()]),
    )]);
    assert_eq!(more.successful(), 1);
    let veteran = sim.peer();
    for number in before..veteran.chain().height() {
        let block = veteran.chain().block(number).expect("new block").clone();
        replica_b.replay_block(block.clone()).expect("B follows");
        replica_c.replay_block(block).expect("C follows");
    }
    assert_eq!(replica_b.state(), veteran.state());
    assert_eq!(replica_c.state(), veteran.state());
    assert_eq!(replica_b.ledger_snapshot(), veteran.ledger_snapshot());
    assert_eq!(replica_c.snapshot(), veteran.snapshot());
}

/// A ledger snapshot restores the same replica whether it is handed
/// over as its root or goes through its bytes: same state, tip and ids,
/// and the same verdicts and ledger for the next block, a duplicate
/// transaction id included.
#[test]
fn a_snapshot_restores_the_same_replica_from_its_root_or_its_bytes() {
    let mut sim = Simulation::new(
        PipelineConfig::paper(25, 29),
        FabricValidator::new(),
        registry(),
    );
    sim.seed_state("hot", b"0".to_vec());
    sim.run(schedule(100));
    let snapshot = sim.peer().ledger_snapshot();
    let bytes = snapshot.to_bytes();
    assert_eq!(snapshot.encoded_len(), bytes.len());
    let decoded = LedgerSnapshot::from_bytes(&bytes).expect("its own bytes parse");
    assert_eq!(decoded, snapshot);
    let restore = |snapshot: &LedgerSnapshot| {
        let policy = Topology::paper().default_policy();
        Peer::restore_from_snapshot(FabricValidator::new(), policy, snapshot)
    };
    let mut replicas = [restore(&snapshot), restore(&decoded)];
    for replica in &replicas {
        assert_eq!(replica.state(), sim.peer().state());
        assert_eq!(replica.chain().tip_hash(), sim.peer().chain().tip_hash());
        assert_eq!(replica.ledger_snapshot(), snapshot, "tip and ids");
    }

    // The next block: fresh traffic as the orderer cut it, then a
    // transaction the snapshot already holds.
    let height = sim.peer().chain().height();
    let tip_hash = sim.peer().chain().tip_hash();
    let duplicate = sim.peer().chain().block(1).expect("block 1").transactions[0].clone();
    sim.run(vec![(
        SimTime::ZERO,
        TxRequest::new("rmw", vec!["fresh".into(), "after-restore".into()]),
    )]);
    let mut txs = sim
        .peer()
        .chain()
        .block(height)
        .expect("new block")
        .transactions
        .to_vec();
    txs.push(duplicate);
    let next = Block::assemble(height, tip_hash, txs);
    let [from_root, from_bytes] = &mut replicas;
    let (staged_root, staged_bytes) = (
        from_root.process_block(next.clone()),
        from_bytes.process_block(next),
    );
    let codes = &staged_root.block.validation_codes;
    assert_eq!(codes.last(), Some(&ValidationCode::DuplicateTxId));
    assert_eq!(&staged_bytes.block.validation_codes, codes);
    from_root.commit(staged_root).expect("extends the chain");
    from_bytes.commit(staged_bytes).expect("extends the chain");
    assert_eq!(from_bytes.snapshot(), from_root.snapshot());
    assert_eq!(from_bytes.ledger_snapshot(), from_root.ledger_snapshot());
    assert_eq!(
        from_root.state().value("fresh"),
        Some(&b"after-restore"[..])
    );
}

/// Replay rejects a block whose chain linkage does not fit — a
/// late-joining peer cannot be fed a forged continuation — and a
/// rejected block leaves the peer exactly as it was: state, chain and
/// committed ids.
#[test]
fn replay_rejects_out_of_sequence_blocks() {
    let mut sim = Simulation::new(
        PipelineConfig::paper(10, 5),
        FabricValidator::new(),
        registry(),
    );
    let metrics = sim.run(schedule(40));
    assert!(metrics.blocks_committed >= 3);

    let snapshot = sim.peer().snapshot();
    let chain = codec::decode_chain(&snapshot.chain).expect("chain decodes");
    let mut replica: Peer<FabricValidator> =
        Peer::new(FabricValidator::new(), Topology::paper().default_policy());
    replica
        .replay_block(chain.block(1).expect("block 1 exists").clone())
        .expect("block 1 extends genesis");

    // Both carry recorded codes and successful writes: a wrong number
    // (block 2 skipped), and the right number on a forged predecessor.
    let skipped = chain.block(3).expect("block 3 exists").clone();
    let mut relinked = chain.block(2).expect("block 2 exists").clone();
    relinked.header.previous_hash[0] ^= 0xff;
    for forged in [skipped, relinked] {
        assert!(forged.successful_count() > 0, "the block would write");
        let before = (replica.state().clone(), replica.ledger_snapshot());
        replica
            .replay_block(forged)
            .expect_err("a block that does not extend the chain is rejected");
        assert_eq!(replica.state(), &before.0);
        assert_eq!(replica.ledger_snapshot(), before.1, "tip, ids");
        assert_eq!(replica.chain().height(), 2);
    }
}
