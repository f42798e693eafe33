//! Who holds a sealed block, observed through its reference count, and
//! a directed crash schedule the seeded safety sweep only samples.

use super::*;
use fabriccrdt_crypto::Identity;
use fabriccrdt_fabric::config::{CrashSpec, PartitionSpec};
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::TxId;

fn tx(nonce: u64) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset.writes.put(format!("k{nonce}"), vec![nonce as u8]);
    Transaction {
        id: TxId::derive(&client, nonce, "cc"),
        client,
        chaincode: "cc".into(),
        rwset,
        endorsements: Vec::new(),
    }
}

/// A 3-node cluster cutting 25-transaction blocks, fed `txs`
/// submissions 5 ms apart.
fn fed_cluster(raft: RaftConfig, txs: u64) -> RaftOrderingBackend {
    let mut cluster =
        RaftOrderingBackend::new(&PipelineConfig::paper(25, 11).with_raft_config(raft));
    for i in 0..txs {
        cluster.enqueue(SimTime::from_millis(5 * i), tx(i));
    }
    cluster
}

#[test]
fn a_committed_block_is_one_allocation_across_the_three_logs() {
    let mut cluster = fed_cluster(RaftConfig::calibrated(3), 25);
    cluster.drain();
    let [(_, sealed)] = cluster.emitted() else {
        panic!("25 transactions cut exactly one block");
    };
    for node in 0..3 {
        let [entry] = cluster.committed_blocks(node)[..] else {
            panic!("node {node} committed exactly one block");
        };
        assert!(Arc::ptr_eq(entry, sealed), "node {node} holds its own copy");
    }
    // Three logs and the outbox log; the messages that carried it
    // have been delivered and dropped.
    assert_eq!(Arc::strong_count(sealed), 3 + 1);
}

#[test]
fn truncating_a_deposed_leaders_tail_frees_the_orphaned_block() {
    // The pre-elected leader is cut off from 100 to 700 ms: it seals
    // a block nobody else ever sees, the majority elects a new
    // leader that re-cuts those transactions, and the heal truncates
    // the orphan out of node 0's log.
    let mut raft = RaftConfig::calibrated(3);
    raft.faults.partitions.push(PartitionSpec {
        at: SimTime::from_millis(100),
        heal_at: SimTime::from_millis(700),
        minority: vec![0],
    });
    let mut cluster = fed_cluster(raft, 100);
    assert!(cluster.advance(SimTime::from_millis(130)).is_empty());
    let tail = cluster.nodes[0].log.last().expect("the 25th arrived");
    let orphan = Arc::downgrade(tail.block.as_ref().expect("a cut block"));
    assert_eq!(cluster.nodes[0].commit_index, 0);
    assert!(cluster.nodes[1].log.is_empty() && cluster.nodes[2].log.is_empty());

    cluster.drain();
    assert!(cluster.metrics().leader_changes >= 1);
    assert!(
        orphan.upgrade().is_none(),
        "truncation dropped the last reference"
    );
    // What committed instead is shared by all three logs and the
    // outbox log, entry by entry, and nothing was lost or doubled.
    let emitted = cluster.emitted();
    let ordered: usize = emitted.iter().map(|(_, b)| b.transactions.len()).sum();
    assert_eq!(ordered, 100);
    for node in 0..3 {
        let entries = cluster.committed_blocks(node);
        assert_eq!(entries.len(), emitted.len());
        for (entry, (_, sealed)) in entries.iter().zip(emitted) {
            assert!(Arc::ptr_eq(entry, sealed), "node {node} holds its own copy");
        }
    }
}

#[test]
fn overlapping_leader_crashes_and_a_short_follower_outage_lose_nothing() {
    // Node 0, the pre-elected leader, has two overlapping crash windows:
    // the second crash finds it down and the second restart finds it
    // up. Node 2 is down for less than one election window while node 0
    // still leads, so it rejoins without starting an election.
    let crash = |peer, at, restart_at| CrashSpec {
        peer,
        at: SimTime::from_millis(at),
        restart_at: SimTime::from_millis(restart_at),
    };
    let mut raft = RaftConfig::calibrated(3);
    raft.faults.crashes = vec![crash(0, 400, 800), crash(0, 600, 1000), crash(2, 140, 240)];
    let txs = 200;
    let mut cluster = fed_cluster(raft, txs);
    cluster.drain();

    let emitted = cluster.emitted();
    let mut ordered = HashSet::new();
    for (_, block) in emitted {
        for tx in &block.transactions {
            assert!(ordered.insert(tx.id), "a transaction was ordered twice");
        }
    }
    assert_eq!(ordered, (0..txs).map(|i| tx(i).id).collect());
    for node in 0..3 {
        let committed = cluster.committed_blocks(node);
        assert_eq!(committed.len(), emitted.len(), "node {node}");
        for (mine, (_, sealed)) in committed.iter().zip(emitted) {
            assert!(Arc::ptr_eq(mine, sealed), "node {node} diverged");
        }
    }
    // One change of leader, won after node 0 went down: the follower's
    // outage deposed nobody, though election timers it armed before the
    // crash were still due after its restart.
    let [first, second] = cluster.leadership() else {
        panic!("leaders: {:?}", cluster.leadership());
    };
    assert_eq!((first.term, first.node), (1, 0));
    assert!(
        second.node != 0 && second.at > SimTime::from_millis(400),
        "{second:?}"
    );
}
