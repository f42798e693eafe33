//! Randomized property tests for the ledger: codec totality and
//! roundtrips, the one transaction layout (stored, shipped and hashed
//! alike) against the encoders it replaced, MVCC invariants. Driven by
//! the deterministic in-repo generator (`fabriccrdt_sim::gen`).

use std::collections::BTreeMap;

use fabriccrdt_crypto::{merkle, sha256, Identity, Signature};
use fabriccrdt_ledger::block::{Block, EncodedTransactions, SealedBlock, ValidationCode};
use fabriccrdt_ledger::chain::Blockchain;
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::mvcc;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::store::LedgerSnapshot;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_sim::gen::{self, Gen};

/// A short string over `a`, `b` and `@`, often empty: identities that
/// name the same `name@org` differently, and the empty fields a
/// length-free layout would run together.
fn arb_text(g: &mut Gen) -> String {
    g.string_of("ab@", 0, 3)
}

fn arb_identity(g: &mut Gen) -> Identity {
    Identity::new(arb_text(g), arb_text(g))
}

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
    let client = arb_identity(g);
    let nonce = g.u64();
    let chaincode = arb_text(g);
    Transaction {
        id: TxId::derive(&client, nonce, &chaincode),
        client,
        chaincode,
        rwset: arb_rwset(g),
        endorsements: g.vec(0, 3, |g| Endorsement {
            endorser: arb_identity(g),
            signature: Signature(g.array32()),
        }),
    }
}

/// A block as assembled, or, half the time, as Algorithm 1 might leave
/// it: each key some transactions CRDT-write gets a converged value
/// that a random subset of those writes refers to, and the block is
/// sealed again.
fn arb_block(g: &mut Gen) -> Block {
    let number = g.range(0, 100);
    let prev = g.array32();
    let txs = g.vec(0, 4, arb_transaction);
    let with_codes = g.flip();
    let mut block = Block::assemble(number, prev, txs);
    if g.flip() {
        let mut writers: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, tx) in block.transactions.iter().enumerate() {
            for (key, entry) in tx.rwset.writes.iter() {
                if entry.is_crdt && !entry.is_delete && g.flip() {
                    writers.entry(key.clone()).or_default().push(i);
                }
            }
        }
        for (key, members) in writers {
            block.install_converged(&key, g.bytes(0, 11), &members);
        }
        block = SealedBlock::seal(block, prev).into_block();
    }
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

/// A chain from genesis or resumed mid-way, holding up to three blocks
/// of up to three transactions.
fn arb_chain(g: &mut Gen) -> Blockchain {
    let mut chain = if g.flip() {
        Blockchain::new()
    } else {
        Blockchain::resume(g.range(1, 50), g.array32())
    };
    for _ in 0..g.size(0, 3) {
        let txs = g.vec(0, 3, arb_transaction);
        let next = Block::assemble(chain.height(), chain.tip_hash(), txs);
        chain.append(next).unwrap();
    }
    chain
}

fn arb_state(g: &mut Gen) -> WorldState {
    let mut state = WorldState::new();
    for _ in 0..g.size(0, 6) {
        let height = Height::new(g.range(0, 9), g.range(0, 9));
        state.put(arb_text(g), g.bytes(0, 9), height);
    }
    state
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

/// Decoding a corrupted valid encoding never panics. For every stored
/// layout — block, chain, world state, id set and snapshot — each
/// truncation, sixteen flipped bits and a `u64` inflated at every
/// offset decode to an error or to a value that encodes back to exactly
/// the bytes it came from.
#[test]
fn decode_corrupted_encoding_is_total() {
    /// Decodes, and on success encodes the value again.
    type Redecode = fn(&[u8]) -> Option<Vec<u8>>;
    let decoders: [(&str, Redecode); 5] = [
        ("block", |b| {
            codec::decode_block(b).ok().map(|v| codec::encode_block(&v))
        }),
        ("chain", |b| {
            codec::decode_chain(b).ok().map(|v| codec::encode_chain(&v))
        }),
        ("state", |b| {
            codec::decode_state(b).ok().map(|v| codec::encode_state(&v))
        }),
        ("txids", |b| {
            codec::decode_txids(b).ok().map(|v| codec::encode_txids(&v))
        }),
        ("snapshot", |b| {
            LedgerSnapshot::from_bytes(b).ok().map(|v| v.to_bytes())
        }),
    ];
    // A sixth of the release count in debug, as the differentials run.
    let cases = if cfg!(debug_assertions) { 24 } else { 144 };
    gen::cases(cases, |g| {
        let ids = g.vec(0, 5, |g| TxId(g.array32()));
        let encodings = [
            codec::encode_block(&arb_block(g)),
            codec::encode_chain(&arb_chain(g)),
            codec::encode_state(&arb_state(g)),
            codec::encode_txids(&ids),
            LedgerSnapshot {
                last_block: g.u64(),
                tip_hash: g.array32(),
                state: codec::encode_state(&arb_state(g)),
                committed_ids: codec::encode_txids(&ids),
            }
            .to_bytes(),
        ];
        for ((what, redecode), bytes) in decoders.iter().zip(&encodings) {
            assert_eq!(redecode(bytes).as_ref(), Some(bytes), "{what} round trip");
            let err_or_same = |mutated: &[u8], how: String| {
                if let Some(again) = redecode(mutated) {
                    assert_eq!(again, mutated, "{what}, {how}: decoded, so canonical");
                }
            };
            for cut in 0..bytes.len() {
                err_or_same(&bytes[..cut], format!("cut at {cut}"));
            }
            for _ in 0..16 {
                let mut flipped = bytes.clone();
                let at = g.range(0, bytes.len() as u64) as usize;
                flipped[at] ^= 1 << g.range(0, 8);
                err_or_same(&flipped, format!("bit flipped at {at}"));
            }
            for at in 0..bytes.len().saturating_sub(8) {
                let mut inflated = bytes.clone();
                let was = u64::from_be_bytes(bytes[at..at + 8].try_into().unwrap());
                let by = [1, 8, 1 << 20, u64::MAX / 2][g.range(0, 4) as usize];
                inflated[at..at + 8].copy_from_slice(&was.wrapping_add(by).to_be_bytes());
                err_or_same(&inflated, format!("u64 at {at} inflated by {by}"));
            }
        }
    });
}

/// Canonical rwset bytes are injective enough: equal bytes imply equal
/// rwsets (over the generated universe).
#[test]
fn rwset_bytes_distinguish() {
    gen::cases(256, |g| {
        let a = arb_rwset(g);
        let b = arb_rwset(g);
        let (mut a_bytes, mut b_bytes) = (Vec::new(), Vec::new());
        a.write_bytes(&mut a_bytes);
        b.write_bytes(&mut b_bytes);
        if a_bytes == b_bytes {
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
        let (mut counted, mut written) = (0usize, Vec::new());
        tx.rwset.write_bytes(&mut counted);
        tx.rwset.write_bytes(&mut written);
        assert_eq!(counted, written.len());
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

/// The data hash covers every byte a peer stores: rewriting a sealed
/// block's client fails the recomputed hash, the verifying constructor
/// and the ingress encoding alike.
#[test]
fn rewriting_a_client_breaks_the_seal() {
    gen::cases(128, |g| {
        let txs = g.vec(1, 4, arb_transaction);
        let sealed = SealedBlock::seal(Block::assemble(1, [0; 32], txs), g.array32());
        let mut forged = sealed.into_block();
        let i = g.range(0, forged.transactions.len() as u64) as usize;
        forged.transactions[i].client.name.push('x');
        assert!(!forged.data_hash_is_valid());
        assert_eq!(SealedBlock::verify(forged.clone()), None);
        assert!(EncodedTransactions::verify(&forged).is_none());
    });
}

/// One layout: each transaction's `to_bytes` is exactly its span inside
/// the stored block, its response payload is that span up to the
/// endorsement count, the converged values follow the transactions, and
/// the counted block length is the encoded one.
#[test]
fn transaction_bytes_are_their_span_in_the_stored_block() {
    gen::cases(256, |g| {
        let block = arb_block(g);
        let stored = codec::encode_block(&block);
        assert_eq!(codec::block_len(&block), stored.len());
        // Version, number, two digests, then the transaction count.
        let mut at = 1 + 8 + 32 + 32 + 8;
        for tx in &block.transactions {
            let bytes = tx.to_bytes();
            assert_eq!(stored[at..at + bytes.len()], bytes[..]);
            let payload = tx.response_payload();
            let count = (tx.endorsements.len() as u64).to_be_bytes();
            assert_eq!(bytes[..payload.len()], payload[..]);
            assert_eq!(bytes[payload.len()..payload.len() + 8], count);
            at += bytes.len();
        }
        let table = block
            .converged_values()
            .map(|(k, v)| 16 + k.len() + v.len());
        at += 8 + table.sum::<usize>();
        assert_eq!(stored.len(), at + 8 + block.validation_codes.len());
    });
}

/// Identities are length-prefixed, not joined at `@`: two endorsers (or
/// clients) that display alike still give different leaves.
#[test]
fn identities_that_display_alike_give_different_leaves() {
    let leaf = |client: Identity, endorser: Identity| {
        let tx = Transaction {
            id: TxId([1; 32]),
            client,
            chaincode: "cc".into(),
            rwset: ReadWriteSet::new(),
            endorsements: vec![Endorsement {
                endorser,
                signature: Signature([2; 32]),
            }],
        };
        Block::compute_data_hash(&[tx])
    };
    let (left, right) = (Identity::new("a@b", "c"), Identity::new("a", "b@c"));
    assert_eq!(left.to_string(), right.to_string());
    let client = Identity::new("client", "org1");
    assert_ne!(
        leaf(client.clone(), left.clone()),
        leaf(client.clone(), right.clone())
    );
    assert_ne!(leaf(left, client.clone()), leaf(right, client));
}

/// The layout did not move: for the same value every encoder emits the
/// bytes of the encoders it replaced, kept here as they were but for
/// ledger format v2's block additions.
#[test]
fn stored_layouts_equal_the_replaced_encoders() {
    gen::cases(128, |g| {
        let block = arb_block(g);
        assert_eq!(codec::encode_block(&block), replaced::encode_block(&block));

        let chain = arb_chain(g);
        assert_eq!(codec::encode_chain(&chain), replaced::encode_chain(&chain));

        let state = arb_state(g);
        assert_eq!(codec::encode_state(&state), replaced::encode_state(&state));

        let ids = g.vec(0, 5, |g| TxId(g.array32()));
        assert_eq!(codec::encode_txids(&ids), replaced::encode_txids(&ids));

        let snapshot = LedgerSnapshot {
            last_block: g.u64(),
            tip_hash: g.array32(),
            state: g.bytes(0, 40),
            committed_ids: g.bytes(0, 40),
        };
        let bytes = snapshot.to_bytes();
        assert_eq!(bytes, replaced::encode_snapshot(&snapshot));
        assert_eq!(snapshot.encoded_len(), bytes.len());
    });
}

/// The stored layouts as the ledger wrote them before a transaction had
/// one layout: a second byte cursor and per-type writers, block by
/// block. The oracle for `stored_layouts_equal_the_replaced_encoders`.
/// Ledger format v2 added three things to a block, written here by
/// hand: version byte 2, a converged reference (write flag bit 2, no
/// value bytes), and the table of converged values after the
/// transactions.
mod replaced {
    use super::*;
    use fabriccrdt_ledger::rwset::ReadWriteSet;

    #[derive(Default)]
    struct Writer {
        buf: Vec<u8>,
    }

    impl Writer {
        fn u8(&mut self, v: u8) {
            self.buf.push(v);
        }

        fn u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_be_bytes());
        }

        fn bytes(&mut self, v: &[u8]) {
            self.u64(v.len() as u64);
            self.buf.extend_from_slice(v);
        }

        fn str(&mut self, v: &str) {
            self.bytes(v.as_bytes());
        }

        fn digest(&mut self, v: &[u8; 32]) {
            self.buf.extend_from_slice(v);
        }
    }

    fn write_identity(w: &mut Writer, identity: &Identity) {
        w.str(&identity.name);
        w.str(&identity.org);
    }

    fn write_rwset(w: &mut Writer, rwset: &ReadWriteSet) {
        w.u64(rwset.reads.len() as u64);
        for (key, entry) in rwset.reads.iter() {
            w.str(key);
            match entry.version {
                Some(h) => {
                    w.u8(1);
                    w.u64(h.block_num);
                    w.u64(h.tx_num);
                }
                None => w.u8(0),
            }
        }
        w.u64(rwset.writes.len() as u64);
        for (key, entry) in rwset.writes.iter() {
            w.str(key);
            if entry.is_converged() {
                w.u8(5);
                continue;
            }
            w.u8(u8::from(entry.is_crdt) | (u8::from(entry.is_delete) << 1));
            w.bytes(&entry.value);
        }
    }

    fn write_transaction(w: &mut Writer, tx: &Transaction) {
        w.digest(&tx.id.0);
        write_identity(w, &tx.client);
        w.str(&tx.chaincode);
        write_rwset(w, &tx.rwset);
        w.u64(tx.endorsements.len() as u64);
        for e in &tx.endorsements {
            write_identity(w, &e.endorser);
            w.digest(&e.signature.0);
        }
    }

    fn code_to_byte(code: ValidationCode) -> u8 {
        match code {
            ValidationCode::Valid => 0,
            ValidationCode::MvccConflict => 1,
            ValidationCode::EndorsementPolicyFailure => 2,
            ValidationCode::DuplicateTxId => 3,
            ValidationCode::ValidMerged => 4,
            ValidationCode::EarlyAborted => 5,
            ValidationCode::TamperedBlock => 6,
        }
    }

    pub fn encode_block(block: &Block) -> Vec<u8> {
        let mut w = Writer::default();
        w.u8(2);
        w.u64(block.header.number);
        w.digest(&block.header.previous_hash);
        w.digest(&block.header.data_hash);
        w.u64(block.transactions.len() as u64);
        for tx in &block.transactions {
            write_transaction(&mut w, tx);
        }
        w.u64(block.converged_values().count() as u64);
        for (key, value) in block.converged_values() {
            w.str(key);
            w.bytes(value);
        }
        w.u64(block.validation_codes.len() as u64);
        for &code in &block.validation_codes {
            w.u8(code_to_byte(code));
        }
        w.buf
    }

    pub fn encode_chain(chain: &Blockchain) -> Vec<u8> {
        let mut w = Writer::default();
        w.u8(2);
        w.u64(chain.base_number());
        w.digest(&chain.anchor_hash());
        w.u64(chain.height() - chain.base_number());
        for block in chain.iter() {
            w.bytes(&encode_block(block));
        }
        w.buf
    }

    pub fn encode_state(state: &WorldState) -> Vec<u8> {
        let mut w = Writer::default();
        w.u8(1);
        w.u64(state.len() as u64);
        for (key, entry) in state.iter() {
            w.str(key);
            w.u64(entry.version.block_num);
            w.u64(entry.version.tx_num);
            w.bytes(&entry.value);
        }
        w.buf
    }

    pub fn encode_txids(ids: &[TxId]) -> Vec<u8> {
        let mut w = Writer::default();
        w.u8(1);
        w.u64(ids.len() as u64);
        for id in ids {
            w.digest(&id.0);
        }
        w.buf
    }

    pub fn encode_snapshot(snapshot: &LedgerSnapshot) -> Vec<u8> {
        let mut w = Writer::default();
        w.u8(3);
        w.u64(snapshot.last_block);
        w.digest(&snapshot.tip_hash);
        w.bytes(&snapshot.state);
        w.bytes(&snapshot.committed_ids);
        w.buf
    }
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
