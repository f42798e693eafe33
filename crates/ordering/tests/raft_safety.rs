//! Raft safety properties over randomized, seeded crash/partition
//! schedules (driven by the deterministic in-repo generator,
//! `fabriccrdt_sim::gen`):
//!
//! (a) at most one leader per term;
//! (b) the committed transaction sequence has no loss and no
//!     duplication — every submitted transaction is ordered exactly
//!     once, whatever leaders crash mid-batch;
//! (c) replicas converge: every node's committed log prefix holds
//!     byte-identical blocks, the emitted chain hash-links correctly,
//!     and replaying it through a peer yields the same world state as
//!     the single-orderer backend run on the same workload (with a
//!     fault-free schedule the block stream itself is bit-identical).

use std::collections::HashSet;

use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::config::{CrashSpec, PartitionSpec, PipelineConfig, RaftConfig};
use fabriccrdt_fabric::orderer::Orderer;
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::chain::Blockchain;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction};
use fabriccrdt_ledger::TxId;
use fabriccrdt_ordering::RaftOrderingBackend;
use fabriccrdt_sim::gen::{self, Gen};
use fabriccrdt_sim::time::SimTime;

const NODES: usize = 5;

fn policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of(vec!["org1".to_string()])
}

/// A properly endorsed blind write to a distinct key, so every
/// transaction commits and the final world state is insensitive to
/// block boundaries.
fn endorsed_tx(nonce: u64) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset
        .writes
        .put(format!("k{nonce}"), nonce.to_le_bytes().to_vec());
    let mut tx = Transaction {
        id: TxId::derive(&client, nonce, "cc"),
        client,
        chaincode: "cc".into(),
        rwset,
        endorsements: Vec::new(),
    };
    let peer = KeyPair::derive(Identity::new("peer0", "org1"));
    tx.endorsements.push(Endorsement {
        endorser: peer.identity().clone(),
        signature: peer.sign(&tx.response_payload()),
    });
    tx
}

/// A randomized fault schedule over the cluster: up to two crashes
/// (possibly of the initial leader, node 0) and up to one minority
/// partition, all inside the traffic window.
fn random_faults(g: &mut Gen, raft: &mut RaftConfig, horizon_ms: u64) {
    for _ in 0..g.size(0, 2) {
        let at = SimTime::from_millis(g.range(1, horizon_ms));
        let down_ms = g.range(50, 800);
        raft.faults.crashes.push(CrashSpec {
            peer: g.range(0, NODES as u64) as usize,
            at,
            restart_at: at + SimTime::from_millis(down_ms),
        });
    }
    if g.flip() {
        let at = SimTime::from_millis(g.range(1, horizon_ms));
        let mut minority: Vec<usize> = Vec::new();
        for node in 0..NODES {
            if minority.len() < 2 && g.flip() {
                minority.push(node);
            }
        }
        if !minority.is_empty() {
            raft.faults.partitions.push(PartitionSpec {
                at,
                heal_at: at + SimTime::from_millis(g.range(100, 900)),
                minority,
            });
        }
    }
    if g.prob(0.3) {
        raft.faults.link.drop = g.f64_in(0.0, 0.15);
    }
}

/// Replays a block stream through a committing peer.
fn replay(blocks: &[Block]) -> Peer<FabricValidator> {
    let mut peer = Peer::new(FabricValidator::new(), policy());
    for block in blocks {
        let staged = peer.process_block(block.clone());
        peer.commit(staged).expect("blocks arrive in chain order");
    }
    peer
}

/// The committed key → value map, without version heights (those
/// legitimately shift when failover moves block boundaries).
fn committed_values(peer: &Peer<FabricValidator>) -> Vec<(String, Vec<u8>)> {
    peer.state()
        .iter()
        .map(|(k, v)| (k.clone(), v.value.clone()))
        .collect()
}

#[test]
fn safety_over_seeded_fault_schedules() {
    gen::cases(100, |g| {
        let seed = g.u64();
        let n_txs = g.size(40, 80);
        let rate_tps = 200.0;
        let horizon_ms = (n_txs as f64 / rate_tps * 1000.0) as u64 + 500;

        let mut raft = RaftConfig::calibrated(NODES);
        // Half the cases boot cold (first election races from term 0).
        if g.flip() {
            raft.preelected_leader = None;
        }
        random_faults(g, &mut raft, horizon_ms);
        let fault_free = raft.faults.is_quiescent();

        let mut config = PipelineConfig::paper(g.size(5, 25), seed);
        config.ordering = Some(raft);

        let schedule: Vec<(SimTime, Transaction)> = (0..n_txs)
            .map(|i| {
                (
                    SimTime::from_secs_f64(i as f64 / rate_tps),
                    endorsed_tx(i as u64),
                )
            })
            .collect();

        let mut cluster = RaftOrderingBackend::new(&config);
        for (at, tx) in &schedule {
            cluster.enqueue(*at, tx.clone());
        }
        cluster.drain();

        // (a) At most one leader per term.
        let mut terms_won = HashSet::new();
        for event in cluster.leadership() {
            assert!(
                terms_won.insert(event.term),
                "seed {seed}: two leaders won term {}",
                event.term
            );
        }

        // (b) No loss, no duplication: every submitted transaction is
        // ordered exactly once.
        let emitted: Vec<Block> = cluster
            .emitted()
            .iter()
            .map(|(_, b)| Block::clone(b))
            .collect();
        let mut seen = HashSet::new();
        for block in &emitted {
            for tx in &block.transactions {
                assert!(seen.insert(tx.id), "seed {seed}: transaction ordered twice");
            }
        }
        for (_, tx) in &schedule {
            assert!(
                seen.contains(&tx.id),
                "seed {seed}: transaction lost by failover"
            );
        }
        assert_eq!(seen.len(), n_txs, "seed {seed}: phantom transactions");

        // (c) Convergence. The emitted stream is a valid hash chain...
        let mut chain = Blockchain::new();
        chain.append(Block::genesis()).expect("genesis");
        for block in &emitted {
            chain.append(block.clone()).expect("emitted blocks chain");
        }
        chain.verify_integrity().expect("emitted chain verifies");
        // ...every replica's committed prefix is a prefix of it,
        // byte-identical block by block...
        for node in 0..cluster.node_count() {
            let committed = cluster.committed_blocks(node);
            assert!(
                committed.len() <= emitted.len(),
                "seed {seed}: node {node} committed past the cluster"
            );
            for (mine, cluster_block) in committed.iter().zip(&emitted) {
                assert_eq!(
                    mine.hash(),
                    cluster_block.hash(),
                    "seed {seed}: node {node} diverged"
                );
                assert_eq!(mine.as_ref(), cluster_block, "seed {seed}: hash collision?");
            }
        }
        // ...and replaying it yields the same committed values as the
        // single-orderer backend on the same workload.
        let mut single = Orderer::new(config.block_cut);
        let mut reference = Vec::new();
        let mut last_timeout = None;
        for (at, tx) in &schedule {
            let (block, timeout) = single.receive(tx.clone(), *at);
            reference.extend(block);
            if let Some(t) = timeout {
                last_timeout = Some(t);
            }
        }
        if let Some(t) = last_timeout {
            reference.extend(single.timeout_fired(t));
        }
        let raft_peer = replay(&emitted);
        let single_peer = replay(&reference);
        assert_eq!(
            committed_values(&raft_peer),
            committed_values(&single_peer),
            "seed {seed}: committed values diverged from the single orderer"
        );
        // With no faults and a pre-elected leader the ledger is
        // bit-identical: same cuts, same seals, same serialized bytes.
        if fault_free
            && config
                .ordering
                .as_ref()
                .unwrap()
                .preelected_leader
                .is_some()
        {
            assert_eq!(
                emitted, reference,
                "seed {seed}: fault-free Raft diverged from the single orderer"
            );
            let a = raft_peer.snapshot();
            let b = single_peer.snapshot();
            assert_eq!(a.state, b.state, "seed {seed}: state bytes diverged");
            assert_eq!(a.chain, b.chain, "seed {seed}: chain bytes diverged");
        }
    });
}
