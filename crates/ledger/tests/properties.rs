//! Randomized property tests for the ledger: codec totality and
//! roundtrips, MVCC invariants. Driven by the deterministic in-repo
//! generator (`fabriccrdt_sim::gen`).

use fabriccrdt_crypto::{merkle, sha256, Identity, Signature};
use fabriccrdt_ledger::block::{Block, EncodedTransactions, SealedBlock, ValidationCode};
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::mvcc;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_sim::gen::{self, Gen};

fn arb_rwset(g: &mut Gen) -> ReadWriteSet {
    let mut rwset = ReadWriteSet::new();
    // Read versions stay below block 2 so they can never collide with
    // the heights the MVCC property test commits at (block 2).
    for _ in 0..g.size(0, 3) {
        let key = g.ident(1, 6);
        let version = if g.flip() {
            Some(Height::new(g.range(0, 2), g.range(0, 8)))
        } else {
            None
        };
        rwset.reads.record(key, version);
    }
    for _ in 0..g.size(0, 3) {
        let key = g.ident(1, 6);
        let value = g.bytes(0, 11);
        match g.range(0, 3) {
            0 => rwset.writes.put(key, value),
            1 => rwset.writes.put_crdt(key, value),
            _ => rwset.writes.delete(key),
        }
    }
    rwset
}

fn arb_transaction(g: &mut Gen) -> Transaction {
    let client = Identity::new("client", "org1");
    let nonce = g.u64();
    let chaincode = g.ident(1, 8);
    Transaction {
        id: TxId::derive(&client, nonce, &chaincode),
        client,
        chaincode,
        rwset: arb_rwset(g),
        endorsements: g.vec(0, 2, |g| Endorsement {
            endorser: Identity::new(g.ident(1, 5), g.ident(1, 5)),
            signature: Signature(g.array32()),
        }),
    }
}

fn arb_block(g: &mut Gen) -> Block {
    let number = g.range(0, 100);
    let prev = g.array32();
    let txs = g.vec(0, 4, arb_transaction);
    let with_codes = g.flip();
    let mut block = Block::assemble(number, prev, txs);
    if with_codes {
        block.validation_codes = block
            .transactions
            .iter()
            .enumerate()
            .map(|(i, _)| {
                [
                    ValidationCode::Valid,
                    ValidationCode::MvccConflict,
                    ValidationCode::ValidMerged,
                    ValidationCode::EarlyAborted,
                    ValidationCode::TamperedBlock,
                ][i % 5]
            })
            .collect();
    }
    block
}

/// Encode → decode is the identity.
#[test]
fn block_codec_roundtrip() {
    gen::cases(128, |g| {
        let block = arb_block(g);
        let decoded = codec::decode_block(&codec::encode_block(&block)).unwrap();
        assert_eq!(decoded, block);
    });
}

/// Decoding arbitrary bytes never panics (totality).
#[test]
fn decode_arbitrary_bytes_is_total() {
    gen::cases(256, |g| {
        let bytes = g.bytes(0, 600);
        let _ = codec::decode_block(&bytes);
        let _ = codec::decode_chain(&bytes);
    });
}

/// Decoding a corrupted valid encoding never panics.
#[test]
fn decode_corrupted_encoding_is_total() {
    gen::cases(128, |g| {
        let block = arb_block(g);
        let mut bytes = codec::encode_block(&block);
        for _ in 0..g.size(1, 5) {
            if !bytes.is_empty() {
                let i = g.range(0, bytes.len() as u64) as usize;
                bytes[i] ^= g.byte();
            }
        }
        let _ = codec::decode_block(&bytes);
    });
}

/// Canonical rwset bytes are injective enough: equal bytes imply equal
/// rwsets (over the generated universe).
#[test]
fn rwset_bytes_distinguish() {
    gen::cases(256, |g| {
        let a = arb_rwset(g);
        let b = arb_rwset(g);
        if a.to_bytes() == b.to_bytes() {
            assert_eq!(a, b);
        }
    });
}

/// The counting sink walks the same format as the byte sink: what the
/// orderer weighs is what the data hash covers, and the response
/// payload is its prefix.
#[test]
fn counted_length_equals_encoded_length() {
    gen::cases(256, |g| {
        let tx = arb_transaction(g);
        let mut counted = 0usize;
        tx.write_bytes(&mut counted);
        assert_eq!(counted, tx.to_bytes().len());
        let mut counted = 0usize;
        tx.rwset.write_bytes(&mut counted);
        assert_eq!(counted, tx.rwset.to_bytes().len());
        assert!(tx.to_bytes().starts_with(&tx.response_payload()));
    });
}

/// The ingress encoding and the sealed constructors agree with the
/// streaming data hash — on blocks as assembled, with one byte of one
/// written value flipped, and with transactions reordered, dropped,
/// added or re-signed after ingress — and hand out the digests of the
/// payloads endorsers signed, the ones each leaf is built from.
#[test]
fn hashing_constructors_agree_with_the_streaming_hash() {
    gen::cases(128, |g| {
        let mut block = arb_block(g);
        let encoded = EncodedTransactions::verify(&block).expect("as assembled");
        for (i, tx) in block.transactions.iter().enumerate() {
            let payload = tx.response_payload();
            let digest = sha256::digest(&payload);
            assert_eq!(*encoded.payload_digest(i), digest);
            let endorsements = &tx.to_bytes()[payload.len()..];
            assert_eq!(
                Block::compute_data_hash(std::slice::from_ref(tx)),
                merkle::leaf_of(&[&digest, endorsements]),
                "a one-transaction root is its leaf"
            );
        }
        let sealed = SealedBlock::seal(block.clone(), block.header.previous_hash);
        assert_eq!(*sealed, block, "sealing an assembled block changes nothing");
        assert_eq!(SealedBlock::verify(block.clone()), Some(sealed.clone()));
        let reseal = |block: &Block| SealedBlock::reseal(block.clone(), [7; 32], &encoded);
        let seal = |block: &Block| SealedBlock::seal(block.clone(), [7; 32]);
        assert_eq!(reseal(&block).header.data_hash, block.header.data_hash);
        let mut shuffled = block.clone();
        shuffled.transactions.reverse();
        assert_eq!(reseal(&shuffled), seal(&shuffled), "reversed");
        shuffled.transactions.pop();
        assert_eq!(reseal(&shuffled), seal(&shuffled), "one fewer");
        shuffled
            .transactions
            .extend(block.transactions.first().cloned());
        shuffled
            .transactions
            .extend(block.transactions.first().cloned());
        assert_eq!(reseal(&shuffled), seal(&shuffled), "one more");
        let mut resigned = block.clone();
        let endorsements = resigned
            .transactions
            .iter_mut()
            .flat_map(|tx| &mut tx.endorsements);
        if let Some(endorsement) = endorsements.last() {
            endorsement.signature.0[31] ^= 0x01;
            assert_eq!(reseal(&resigned), seal(&resigned), "re-signed");
        }

        let written = block.transactions.iter_mut().find_map(|tx| {
            let (key, entry) = tx.rwset.writes.iter().find(|(_, e)| !e.value.is_empty())?;
            let (key, value) = (key.clone(), entry.value.clone());
            Some((tx, key, value))
        });
        if let Some((tx, key, mut value)) = written {
            value[0] ^= 0x01;
            tx.rwset.writes.update_value(&key, value);
            assert!(!block.data_hash_is_valid());
            assert!(EncodedTransactions::verify(&block).is_none());
            assert_eq!(SealedBlock::verify(block.clone()), None);
            assert_eq!(reseal(&block), seal(&block), "flipped");
            let resealed = SealedBlock::seal(block, [7; 32]);
            assert!(resealed.data_hash_is_valid());
            assert_eq!(resealed.header.previous_hash, [7; 32]);
        }
    });
}

/// MVCC safety invariant: in any committed block, no two successful
/// transactions have a read-version that was invalidated by an earlier
/// successful transaction of the same block.
#[test]
fn mvcc_never_commits_stale_reads() {
    gen::cases(128, |g| {
        let txs = g.vec(1, 7, arb_transaction);
        let mut state = WorldState::new();
        // Seed every key read at version (1, 0) so some reads match.
        for tx in &txs {
            for (key, _) in tx.rwset.reads.iter() {
                state.put(key.clone(), b"seed".to_vec(), Height::new(1, 0));
            }
        }
        let snapshot = state.clone();
        let mut block = Block::assemble(2, [0; 32], txs);
        mvcc::validate_and_commit(&mut block, &mut state, &[], false);

        // Replay: walk transactions in order over the snapshot and check
        // the validator's verdicts against a reference implementation.
        let mut reference = snapshot;
        for (tx, code) in block.transactions.iter().zip(&block.validation_codes) {
            let reads_ok = tx
                .rwset
                .reads
                .iter()
                .all(|(key, entry)| reference.version(key) == entry.version);
            assert_eq!(code.is_success(), reads_ok);
            if reads_ok {
                for (key, entry) in tx.rwset.writes.iter() {
                    if entry.is_delete {
                        reference.delete(key);
                    } else {
                        reference.put(key.clone(), entry.value.clone(), Height::new(9, 9));
                    }
                }
            }
        }
    });
}
