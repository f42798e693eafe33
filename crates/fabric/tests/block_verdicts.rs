//! Block verdicts on the one commit path, replayed block by block
//! through `Peer::process_block`: duplicate ids skip their signature
//! checks, a failed endorsement policy counts every signature it
//! checked, and the MVCC check sees every earlier write of the block
//! and of the ledger — one hot key, disjoint keys, a mix with a policy
//! failure, and a key deleted and re-written within a block.

use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::cost::ValidationWork;
use fabriccrdt_fabric::peer::{Peer, PeerSnapshot};
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

fn endorsed_tx(nonce: u64) -> Transaction {
    let mut rwset = ReadWriteSet::new();
    rwset
        .writes
        .put(format!("k{nonce}"), nonce.to_le_bytes().to_vec());
    endorsed(nonce, rwset)
}

/// `rwset` as a transaction endorsed by the one organization the policy
/// names.
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

fn badly_endorsed_tx(nonce: u64) -> Transaction {
    let mut tx = endorsed_tx(nonce);
    tx.endorsements[0].signature.0[0] ^= 0xFF;
    tx
}

/// Replays a hand-built block stream through a peer with the key `hot`
/// seeded, returning snapshot plus per-block codes and work counters.
fn replay(blocks: &[Block]) -> (PeerSnapshot, Vec<Vec<ValidationCode>>, Vec<ValidationWork>) {
    let mut peer = Peer::new(FabricValidator::new(), policy());
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

/// Duplicates skip signature verification: the work counters drive
/// simulated time, so a peer that verified them anyway would silently
/// change every timestamp.
#[test]
fn duplicates_skip_signature_checks() {
    let dup = endorsed_tx(1);
    let blocks = vec![
        // Block 1: one good tx, one in-block duplicate pair.
        Block::assemble(1, [0; 32], vec![endorsed_tx(2), dup.clone(), dup.clone()]),
        // Block 2: cross-block duplicate, a policy failure, a good tx.
        Block::assemble(2, [0; 32], vec![dup, badly_endorsed_tx(3), endorsed_tx(4)]),
    ];
    let (_, codes, work) = replay(&blocks);
    assert_eq!(
        codes[0],
        vec![
            ValidationCode::Valid,
            ValidationCode::Valid,
            ValidationCode::DuplicateTxId
        ]
    );
    assert_eq!(
        codes[1],
        vec![
            ValidationCode::DuplicateTxId,
            ValidationCode::EndorsementPolicyFailure,
            ValidationCode::Valid
        ]
    );
    // Duplicates skip signature verification entirely.
    let sigs: Vec<u64> = work.iter().map(|w| w.sigs_verified).collect();
    assert_eq!(sigs, vec![2, 2]);
}

/// A fully endorsed read-modify-write on `key` that read `read_version`,
/// so its MVCC verdict depends on what committed before it.
fn rmw_tx(nonce: u64, key: &str, read_version: Option<Height>) -> Transaction {
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record(key, read_version);
    rwset
        .writes
        .put(key.to_string(), format!("v{nonce}").into_bytes());
    endorsed(nonce, rwset)
}

/// Every transaction reads and writes the one hot key at its seeded
/// version: the first commits, and every later one — in the block or
/// after it — conflicts.
#[test]
fn hot_key_blocks_commit_their_first_writer() {
    let blocks: Vec<Block> = (1..=4u64)
        .map(|number| {
            let txs: Vec<Transaction> = (0..6)
                .map(|i| rmw_tx(number * 10 + i, "hot", Some(Height::genesis())))
                .collect();
            Block::assemble(number, [0; 32], txs)
        })
        .collect();
    let (snapshot, codes, _) = replay(&blocks);
    let mut expected = vec![vec![ValidationCode::MvccConflict; 6]; 4];
    expected[0][0] = ValidationCode::Valid;
    assert_eq!(codes, expected);
    let state = codec::decode_state(&snapshot.state).expect("own encoding");
    assert_eq!(state.value("hot"), Some(&b"v10"[..]));
}

/// No two transactions share a key: every one commits.
#[test]
fn disjoint_key_blocks_all_commit() {
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
    let (snapshot, codes, _) = replay(&blocks);
    assert_eq!(codes, vec![vec![ValidationCode::Valid; 8]; 4]);
    let state = codec::decode_state(&snapshot.state).expect("own encoding");
    assert_eq!(state.value("k32"), Some(&b"v32"[..]));
}

/// Hot-key readers interleaved with disjoint writers, and a policy
/// failure on the hot key that must not touch the state.
#[test]
fn mixed_block_with_policy_failure() {
    let mut txs: Vec<Transaction> = Vec::new();
    for i in 0..3 {
        txs.push(rmw_tx(100 + i, "hot", Some(Height::genesis())));
        txs.push(rmw_tx(200 + i, &format!("solo{i}"), None));
    }
    let mut bad = rmw_tx(300, "hot", Some(Height::genesis()));
    bad.endorsements[0].signature.0[0] ^= 0xFF;
    txs.push(bad);

    let blocks = vec![Block::assemble(1, [0; 32], txs)];
    let (snapshot, codes, _) = replay(&blocks);
    use ValidationCode::{EndorsementPolicyFailure, MvccConflict, Valid};
    assert_eq!(
        codes[0],
        [
            Valid,
            Valid,
            MvccConflict,
            Valid,
            MvccConflict,
            Valid,
            EndorsementPolicyFailure
        ]
    );
    let state = codec::decode_state(&snapshot.state).expect("own encoding");
    assert_eq!(state.value("hot"), Some(&b"v100"[..]));
}

/// A reader of the hot key at `read` that then writes.
fn hot_reader(read: Option<Height>, write: impl FnOnce(&mut WriteSet)) -> ReadWriteSet {
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record("hot", read);
    write(&mut rwset.writes);
    rwset
}

/// Transactions delete the seeded key, read it as absent, read its old
/// version (a conflict) and write it again, at seeded positions among
/// disjoint writers; the next block does the same to the re-written key.
/// Every verdict depends on a later transaction seeing an earlier one's
/// write in the same block — a delete masking the committed entry, a
/// re-write unmasking it.
#[test]
fn delete_and_rewrite_within_a_block() {
    use ValidationCode::{MvccConflict, Valid};
    gen::cases(24, |g| {
        let mut nonce = 0u64;
        let mut committed = Some(Height::genesis());
        let mut blocks = Vec::new();
        let mut expected = Vec::new();
        for number in 1..=2u64 {
            let steps = [
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
            for (rwset, code) in steps {
                for _ in 0..g.size(0, 3) {
                    nonce += 1;
                    txs.push(rmw_tx(nonce, &format!("solo{nonce}"), None));
                    codes.push(Valid);
                }
                nonce += 1;
                txs.push(endorsed(nonce, rwset));
                codes.push(code);
            }
            // One more reader sees the re-write at its in-block height.
            committed = Some(Height::new(number, txs.len() as u64 - 1));
            nonce += 1;
            let saw = hot_reader(committed, |w| w.put("saw-rewrite", b"1".to_vec()));
            txs.push(endorsed(nonce, saw));
            codes.push(Valid);

            blocks.push(Block::assemble(number, [0; 32], txs));
            expected.push(codes);
        }

        let (snapshot, codes, _) = replay(&blocks);
        assert_eq!(codes, expected);
        let state = codec::decode_state(&snapshot.state).expect("own encoding");
        assert_eq!(state.get("hot").map(|e| e.version), committed);
        assert_eq!(state.value("hot"), Some(&b"back"[..]));
    });
}
