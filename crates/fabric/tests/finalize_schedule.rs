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
//! - **Delete and re-write**: a chain whose members delete a committed
//!   key, read it as absent, read its old version and write it again —
//!   every read a later member makes must see the chain's own pending
//!   writes, not the pre-block state.
//!
//! The randomized complement — 100 seeded fault schedules across the
//! gossip and Raft layers — lives in
//! `crates/gossip/tests/dissemination.rs` and
//! `crates/ordering/tests/pipeline_equivalence.rs` (those layers sit
//! above this crate in the dependency order).

use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::conflict_chains;
use fabriccrdt_fabric::cost::ValidationWork;
use fabriccrdt_fabric::peer::{Peer, PeerSnapshot};
use fabriccrdt_fabric::pipeline::ValidationPipeline;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::rwset::{ReadWriteSet, WriteSet};
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_sim::gen;

fn policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of(vec!["org1".to_string()])
}

/// A fully endorsed read-modify-write transaction on `key`. The read
/// records the pre-block version the workload generator last observed,
/// so MVCC outcomes depend on commit order — exactly the sensitivity
/// the chain schedule must preserve.
fn rmw_tx(nonce: u64, key: &str, read_version: Option<Height>) -> Transaction {
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record(key, read_version);
    rwset
        .writes
        .put(key.to_string(), format!("v{nonce}").into_bytes());
    endorsed(nonce, rwset)
}

/// `rwset` as a fully endorsed transaction.
fn endorsed(nonce: u64, rwset: ReadWriteSet) -> Transaction {
    let client = Identity::new("client", "org1");
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
/// every block's validation codes and work counters.
fn replay(
    pipeline: ValidationPipeline,
    blocks: &[Block],
) -> (PeerSnapshot, Vec<Vec<ValidationCode>>, Vec<ValidationWork>) {
    let mut peer = Peer::new(FabricValidator::new(), policy()).with_pipeline(pipeline);
    peer.seed_state("hot", b"0".to_vec());
    let mut codes = Vec::new();
    let mut work = Vec::new();
    for block in blocks {
        let staged = peer.process_block(block.clone());
        codes.push(staged.block.validation_codes.clone());
        work.push(staged.work);
        peer.commit(staged).expect("blocks arrive in chain order");
    }
    (peer.snapshot(), codes, work)
}

fn assert_parallel_matches_sequential(blocks: &[Block]) {
    let (seq_snapshot, seq_codes, seq_work) = replay(ValidationPipeline::Sequential, blocks);
    for workers in 2..=8 {
        let (snapshot, codes, work) = replay(ValidationPipeline::pipelined(workers), blocks);
        assert_eq!(
            snapshot.state, seq_snapshot.state,
            "{workers} workers: world state diverged"
        );
        assert_eq!(
            snapshot.chain, seq_snapshot.chain,
            "{workers} workers: chain diverged"
        );
        assert_eq!(codes, seq_codes, "{workers} workers: codes diverged");
        assert_eq!(work, seq_work, "{workers} workers: work diverged");
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

/// A member of the `hot` chain: reads the key at `read`, then writes.
fn hot_reader(read: Option<Height>, write: impl FnOnce(&mut WriteSet)) -> ReadWriteSet {
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record("hot", read);
    write(&mut rwset.writes);
    rwset
}

/// One chain deletes the seeded key, reads it as absent, reads its old
/// version (a conflict) and writes it again, at seeded positions among
/// disjoint singleton chains; the next block does the same to the
/// re-written key. Every verdict depends on a chain member seeing the
/// chain's own pending writes — a delete masking the committed entry,
/// a re-write unmasking it — so a chain that read the pre-block state
/// instead would diverge from the sequential reference here.
#[test]
fn delete_and_rewrite_chain_matches_sequential() {
    use ValidationCode::{MvccConflict, Valid};
    gen::cases(24, |g| {
        let mut nonce = 0u64;
        let mut committed = Some(Height::genesis());
        let mut blocks = Vec::new();
        let mut expected = Vec::new();
        for number in 1..=2u64 {
            let chain = [
                (hot_reader(committed, |w| w.delete("hot")), Valid),
                (
                    hot_reader(None, |w| w.put("saw-absent", b"1".to_vec())),
                    Valid,
                ),
                (
                    hot_reader(committed, |w| w.put("hot", b"stale".to_vec())),
                    MvccConflict,
                ),
                (hot_reader(None, |w| w.put("hot", b"back".to_vec())), Valid),
            ];
            let mut txs = Vec::new();
            let mut codes = Vec::new();
            for (rwset, code) in chain {
                for _ in 0..g.size(0, 3) {
                    nonce += 1;
                    txs.push(rmw_tx(nonce, &format!("solo{nonce}"), None));
                    codes.push(Valid);
                }
                nonce += 1;
                txs.push(endorsed(nonce, rwset));
                codes.push(code);
            }
            // One more member reads the re-write at its in-block height.
            committed = Some(Height::new(number, txs.len() as u64 - 1));
            nonce += 1;
            let saw = hot_reader(committed, |w| w.put("saw-rewrite", b"1".to_vec()));
            txs.push(endorsed(nonce, saw));
            codes.push(Valid);

            blocks.push(Block::assemble(number, [0; 32], txs));
            expected.push(codes);
        }

        let (snapshot, codes, _) = replay(ValidationPipeline::Sequential, &blocks);
        assert_eq!(codes, expected, "the sequential reference");
        let state = codec::decode_state(&snapshot.state).expect("own encoding");
        assert_eq!(state.get("hot").map(|e| e.version), committed);
        assert_eq!(state.value("hot"), Some(&b"back"[..]));
        assert_parallel_matches_sequential(&blocks);
    });
}
