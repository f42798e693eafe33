//! Directed tests for the conflict-graph finalize schedule (DESIGN.md
//! §4.9): the two extreme workloads the scheduler must degenerate
//! gracefully on.
//!
//! - **Hot key**: every transaction reads and writes the same key, so
//!   the conflict graph is one connected component — a single chain in
//!   block order, i.e. fully sequential. Parallel finalize must match
//!   the sequential reference byte for byte *and* do the work in one
//!   chain (no false parallelism on dependent transactions).
//! - **Disjoint keys**: no two transactions share a key, so every
//!   transaction is its own singleton chain — fully parallel. Again the
//!   ledger must be byte-identical for every worker count.
//!
//! The randomized complement — 100 seeded fault schedules across the
//! gossip and Raft layers — lives in
//! `crates/gossip/tests/dissemination.rs` and
//! `crates/ordering/tests/pipeline_equivalence.rs` (those layers sit
//! above this crate in the dependency order).

use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::conflict_chains;
use fabriccrdt_fabric::peer::{Peer, PeerSnapshot};
use fabriccrdt_fabric::pipeline::ValidationPipeline;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;

fn policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of(vec!["org1".to_string()])
}

/// A fully endorsed read-modify-write transaction on `key`. The read
/// records the pre-block version the workload generator last observed,
/// so MVCC outcomes depend on commit order — exactly the sensitivity
/// the chain schedule must preserve.
fn rmw_tx(nonce: u64, key: &str, read_version: Option<Height>) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record(key, read_version);
    rwset
        .writes
        .put(key.to_string(), format!("v{nonce}").into_bytes());
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

/// Replays `blocks` through a fresh peer, returning the snapshot plus
/// every block's validation codes.
fn replay(
    pipeline: ValidationPipeline,
    blocks: &[Block],
) -> (PeerSnapshot, Vec<Vec<ValidationCode>>) {
    let mut peer = Peer::new(FabricValidator::new(), policy()).with_pipeline(pipeline);
    peer.seed_state("hot", b"0".to_vec());
    let mut codes = Vec::new();
    for block in blocks {
        let staged = peer.process_block(block.clone());
        codes.push(staged.block.validation_codes.clone());
        peer.commit(staged).expect("blocks arrive in chain order");
    }
    (peer.snapshot(), codes)
}

fn assert_parallel_matches_sequential(blocks: &[Block]) {
    let (seq_snapshot, seq_codes) = replay(ValidationPipeline::Sequential, blocks);
    for workers in 2..=8 {
        let (snapshot, codes) = replay(ValidationPipeline::pipelined(workers), blocks);
        assert_eq!(
            snapshot.state, seq_snapshot.state,
            "{workers} workers: world state diverged"
        );
        assert_eq!(
            snapshot.chain, seq_snapshot.chain,
            "{workers} workers: chain diverged"
        );
        assert_eq!(codes, seq_codes, "{workers} workers: codes diverged");
    }
}

/// Every transaction touches the one hot key: the schedule degenerates
/// to a single chain in block order, and first-writer-wins MVCC (only
/// the first toucher of the key commits per block; later reads are
/// stale) is preserved under every worker count.
#[test]
fn hot_key_degenerates_to_one_sequential_chain() {
    let blocks: Vec<Block> = (1..=4u64)
        .map(|number| {
            let txs: Vec<Transaction> = (0..6)
                .map(|i| rmw_tx(number * 10 + i, "hot", Some(Height::new(0, 0))))
                .collect();
            Block::assemble(number, [0; 32], txs)
        })
        .collect();

    for block in &blocks {
        let chains = conflict_chains(&block.transactions, &vec![None; block.transactions.len()]);
        assert_eq!(chains.len(), 1, "hot-key block must form one chain");
        assert_eq!(
            chains[0],
            (0..block.transactions.len()).collect::<Vec<_>>(),
            "the chain must ascend in block order"
        );
    }
    assert_parallel_matches_sequential(&blocks);
}

/// Every transaction touches its own key: the schedule produces one
/// singleton chain per transaction (maximum parallelism) and the
/// ledger stays byte-identical.
#[test]
fn disjoint_keys_form_singleton_chains() {
    let mut nonce = 0u64;
    let blocks: Vec<Block> = (1..=4u64)
        .map(|number| {
            let txs: Vec<Transaction> = (0..8)
                .map(|_| {
                    nonce += 1;
                    rmw_tx(nonce, &format!("k{nonce}"), None)
                })
                .collect();
            Block::assemble(number, [0; 32], txs)
        })
        .collect();

    for block in &blocks {
        let chains = conflict_chains(&block.transactions, &vec![None; block.transactions.len()]);
        assert_eq!(
            chains.len(),
            block.transactions.len(),
            "disjoint keys must form singleton chains"
        );
        for (i, chain) in chains.iter().enumerate() {
            assert_eq!(chain, &vec![i], "chains are sorted by first member");
        }
    }
    assert_parallel_matches_sequential(&blocks);
}

/// A mixed block — one hot chain plus disjoint singletons — keeps both
/// properties at once, including pre-decided transactions (policy
/// failures) being excluded from every chain.
#[test]
fn mixed_block_partitions_into_hot_chain_plus_singletons() {
    let mut txs: Vec<Transaction> = Vec::new();
    for i in 0..3 {
        txs.push(rmw_tx(100 + i, "hot", Some(Height::new(0, 0))));
        txs.push(rmw_tx(200 + i, &format!("solo{i}"), None));
    }
    // A policy failure: pre-decided, so the scheduler must skip it.
    let mut bad = rmw_tx(300, "hot", Some(Height::new(0, 0)));
    bad.endorsements[0].signature.0[0] ^= 0xFF;
    txs.push(bad);

    let mut pre = vec![None; txs.len()];
    pre[6] = Some(ValidationCode::EndorsementPolicyFailure);
    let chains = conflict_chains(&txs, &pre);
    // Hot chain {0, 2, 4} plus three singletons, bad tx in none.
    assert_eq!(chains.len(), 4);
    assert_eq!(chains[0], vec![0, 2, 4]);
    assert!(chains.iter().all(|c| !c.contains(&6)));

    let blocks = vec![Block::assemble(1, [0; 32], txs)];
    assert_parallel_matches_sequential(&blocks);
}
