//! The commit path hashes each block fewer times than it used to
//! (DESIGN.md §4.17) and must seal exactly the bytes it always did: the
//! headers asserted here were recorded before that change, and
//! re-recorded four times since: when signatures became MACs of the
//! payload digest and the Merkle leaf began with that digest, when the
//! leaf came to cover the bytes a block stores (client and
//! length-prefixed identities included), when a merged block came to
//! hold its converged value once, in a table with a leaf of its own, and
//! when that table moved into a commit record beside the transactions,
//! with the codes, under a record hash of its own in the header — the
//! four changes to what a block's hashed bytes are since.
//!
//! Two blocks go through a FabricCRDT peer — one whose CRDT writes merge
//! (Algorithm 1 line 22 puts the converged value in the commit record)
//! and one of plain writes (it must re-link to the re-sealed tip) — once
//! through `process_block`, once through `prevalidate` /
//! `finish_block`. Both keep the orderer's data hash: the transactions
//! stay as cut. The same plain block through a vanilla-Fabric peer
//! differs from the orderer's header only in its record hash.
//!
//! That the ingress and append checks still recompute the data hash from
//! the transactions in hand is shown elsewhere and left untouched:
//! `tampered_block_rejected_wholesale` (`crates/fabric/src/peer.rs`) and
//! the gossip forgery tests.
//!
//! The last test drives a FabricCRDT peer through the names `perf/`
//! replays a run with — `prevalidate`, `finish_block_with_next`,
//! `finish_block` — over CRDT blocks of one merged key and many
//! singleton keys, and byte-compares the ledger with a `process_block`
//! chain's.

use fabriccrdt::validator::CrdtValidator;
use fabriccrdt_crypto::{hex, Identity, KeyPair};
use fabriccrdt_fabric::cost::ValidationWork;
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_fabric::validator::{BlockValidator, FabricValidator};
use fabriccrdt_ledger::block::{Block, BlockHeader, ValidationCode};
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};

fn endorsed(nonce: u64, write: impl FnOnce(&mut ReadWriteSet)) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    write(&mut rwset);
    let mut tx = Transaction {
        id: TxId::derive(&client, nonce, "iot"),
        client,
        chaincode: "iot".into(),
        rwset,
        endorsements: Vec::new(),
    };
    let payload = tx.response_payload();
    for org in ["org1", "org2"] {
        let kp = KeyPair::derive(Identity::new("peer0", org));
        tx.endorsements.push(Endorsement {
            endorser: kp.identity().clone(),
            signature: kp.sign(&payload),
        });
    }
    tx
}

/// Block 1: five CRDT documents merging into one hot key.
fn merging_block(previous_hash: [u8; 32]) -> Block {
    let txs = (0..5)
        .map(|i| {
            endorsed(i, |rwset| {
                rwset.reads.record("hot", None);
                let json = format!(r#"{{"deviceID":"d1","readings":["r{i}"]}}"#);
                rwset.writes.put_crdt("hot", json.into_bytes());
            })
        })
        .collect();
    Block::assemble(1, previous_hash, txs)
}

/// Three plain writes to distinct keys: nothing for a validator to
/// rewrite.
fn plain_block(number: u64, previous_hash: [u8; 32]) -> Block {
    let txs = (0..3)
        .map(|i| {
            endorsed(100 + i, |rwset| {
                rwset.writes.put(format!("k{i}"), vec![b'v', i as u8]);
            })
        })
        .collect();
    Block::assemble(number, previous_hash, txs)
}

fn policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of(["org1", "org2"])
}

const GENESIS_HASH: &str = "57c76ee4e077e9c8564c3bfedeaa7aabe5c42ac9c26c287e2e61620182f1f94d";
/// Data hash of [`plain_block`], the same under either validator.
const PLAIN_DATA_HASH: &str = "9a4fd096982f62859ef78ebb0ec1b94b87fa5ad6178dcfb50ffe5cca2b6b3092";
/// Record hash of [`plain_block`] committed: three `VALID` codes.
const PLAIN_RECORD_HASH: &str = "5baa128bfa54a922da573888de477972526d11e55e4674bb14a802d5d3739c90";

fn assert_header(header: &BlockHeader, [previous_hash, data_hash, record_hash]: [&str; 3]) {
    let number = header.number;
    let hex = [header.previous_hash, header.data_hash, header.record_hash]
        .map(|digest| hex::encode(&digest));
    assert_eq!(hex[0], previous_hash, "previous_hash of block {number}");
    assert_eq!(hex[1], data_hash, "data_hash of block {number}");
    assert_eq!(hex[2], record_hash, "record_hash of block {number}");
}

/// Commits `block` through `process_block` or through the staged halves.
fn commit<V: BlockValidator>(peer: &mut Peer<V>, block: Block, staged_halves: bool) {
    let staged = if staged_halves {
        let prepared = peer.prevalidate(block);
        peer.finish_block(prepared)
    } else {
        peer.process_block(block)
    };
    peer.commit(staged).expect("block extends the chain");
}

#[test]
fn fabriccrdt_peer_seals_the_recorded_headers() {
    for staged_halves in [false, true] {
        let mut peer = Peer::new(CrdtValidator::new(), policy());
        let genesis_hash = peer.chain().tip_hash();

        let ordered = merging_block(genesis_hash);
        let sealed_by_orderer = ordered.header.data_hash;
        let orderer_tip = ordered.hash();
        commit(&mut peer, ordered, staged_halves);
        let tip = peer.chain().tip().expect("committed");
        assert_eq!(
            tip.validation_codes,
            [ValidationCode::ValidMerged; 5],
            "all five documents merge"
        );
        assert_eq!(
            tip.header.data_hash, sealed_by_orderer,
            "the merged transactions stay as cut"
        );
        assert_header(
            &tip.header,
            [
                GENESIS_HASH,
                "f4f48c17c7793e0eb0f9db00d64f0b10b5195cc2879a07d2453dbf65cbbb9d82",
                "1af239ba8da50e9ff8939ba134485a0cae4dd990b09b012734ef4390bafb4b0b",
            ],
        );

        // The orderer chains to *its* block 1; the peer re-links to the
        // re-sealed one and keeps the data hash, which nothing changed.
        let ordered = plain_block(2, orderer_tip);
        let sealed_by_orderer = ordered.header.data_hash;
        commit(&mut peer, ordered, staged_halves);
        let tip = peer.chain().tip().expect("committed");
        assert_eq!(tip.validation_codes, [ValidationCode::Valid; 3]);
        assert_eq!(tip.header.data_hash, sealed_by_orderer);
        assert_header(
            &tip.header,
            [
                "a214eb1d9ffab3bd4226da281e7dc5098ac19aef03f43c37bd59203844032944",
                PLAIN_DATA_HASH,
                PLAIN_RECORD_HASH,
            ],
        );

        assert_eq!(peer.chain().verify_integrity(), Ok(()));
    }
}

#[test]
fn vanilla_peer_keeps_the_orderers_seal() {
    for staged_halves in [false, true] {
        let mut peer = Peer::new(FabricValidator::new(), policy());
        let ordered = plain_block(1, peer.chain().tip_hash());
        let sealed = ordered.header.clone();
        commit(&mut peer, ordered, staged_halves);
        let tip = peer.chain().tip().expect("committed");
        let recorded = BlockHeader {
            record_hash: tip.header.record_hash,
            ..sealed
        };
        assert_eq!(tip.header, recorded, "only the record hash is the peer's");
        assert_header(
            &tip.header,
            [GENESIS_HASH, PLAIN_DATA_HASH, PLAIN_RECORD_HASH],
        );
        assert_eq!(peer.chain().verify_integrity(), Ok(()));
    }
}

/// `readings` list entries per document: the document-size knob.
fn document(nonce: u64, readings: usize) -> Vec<u8> {
    let readings: Vec<String> = (0..readings)
        .map(|j| format!(r#""r{nonce}-{j}-0123456789abcdef""#))
        .collect();
    format!(r#"{{"readings":[{}]}}"#, readings.join(",")).into_bytes()
}

/// The shells `perf/` replays a run through (DESIGN.md §4.16) are the
/// one commit path: `prevalidate` → `finish_block_with_next` → `commit`
/// per block, then `finish_block`, ends in the ledger a `process_block`
/// chain ends in, with the same work per block. Every block but the
/// first repeats a transaction of the block before it, which is still
/// uncommitted when the repeat is handed over; the repeat is a
/// duplicate all the same.
#[test]
fn pinned_chained_shells_match_a_process_block_chain() {
    const BLOCKS: u64 = 8;
    const PER_BLOCK: u64 = 25;
    for readings in [4, 32, 128] {
        let singleton = |nonce: u64| {
            endorsed(nonce, |rwset| {
                rwset
                    .writes
                    .put_crdt(format!("k{nonce}"), document(nonce, readings));
            })
        };
        // Per block: transactions 0 and 1 merge into one key (a
        // converged value that is neither input, so a lost rewrite
        // changes the chain bytes), the other 23 write keys of their
        // own, and from block 2 on a repeat of the previous block's
        // transaction 2 comes last.
        let blocks: Vec<Block> = (1..=BLOCKS)
            .map(|number| {
                let mut txs: Vec<Transaction> = (0..PER_BLOCK)
                    .map(|i| {
                        let nonce = number * PER_BLOCK + i;
                        if i >= 2 {
                            return singleton(nonce);
                        }
                        endorsed(nonce, |rwset| {
                            rwset.writes.put_crdt("pair", document(nonce, readings));
                        })
                    })
                    .collect();
                if number > 1 {
                    txs.push(singleton((number - 1) * PER_BLOCK + 2));
                }
                Block::assemble(number, [0; 32], txs)
            })
            .collect();

        let mut reference = Peer::new(CrdtValidator::new(), policy());
        let expected_work: Vec<ValidationWork> = blocks
            .iter()
            .map(|block| {
                let staged = reference.process_block(block.clone());
                let work = staged.work;
                reference.commit(staged).expect("block extends the chain");
                work
            })
            .collect();
        let converged = reference.state().value("pair").expect("pair committed");
        for i in 0..2 {
            assert_ne!(converged, document(BLOCKS * PER_BLOCK + i, readings));
        }

        let mut peer = Peer::new(CrdtValidator::new(), policy());
        let mut work = Vec::new();
        let mut stream = blocks.iter().cloned();
        let mut prepared = peer.prevalidate(stream.next().expect("eight blocks"));
        for next in stream {
            let (staged, next_prepared) = peer.finish_block_with_next(prepared, next);
            work.push(staged.work);
            peer.commit(staged).expect("block extends the chain");
            prepared = next_prepared;
        }
        let staged = peer.finish_block(prepared);
        work.push(staged.work);
        peer.commit(staged).expect("block extends the chain");

        // Not `assert_eq!`: a failure would print both ledgers.
        assert!(
            peer.snapshot() == reference.snapshot(),
            "{readings} readings: ledger bytes differ from the process_block chain's"
        );
        assert_eq!(work, expected_work, "{readings} readings: work per block");
        for block in peer.chain().iter().skip(1) {
            let duplicates = block
                .validation_codes
                .iter()
                .filter(|code| **code == ValidationCode::DuplicateTxId)
                .count();
            let repeat = usize::from(block.header.number > 1);
            assert_eq!(
                duplicates, repeat,
                "{readings} readings: block {}",
                block.header.number
            );
            if repeat == 1 {
                assert_eq!(
                    block.validation_codes.last(),
                    Some(&ValidationCode::DuplicateTxId)
                );
            }
        }
    }
}
