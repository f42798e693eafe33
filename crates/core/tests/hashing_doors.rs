//! Every door into a peer's chain still hashes what comes through it.
//!
//! Since `Peer::commit` appends a `SealedBlock` without recomputing its
//! hashes (DESIGN.md §4.17), "nothing enters the chain unverified"
//! rests on the routes that build one: the ingress check on a delivered
//! block, the re-seal, `Peer::replay_block` and `codec::decode_chain`.
//! Each test here fails if its route stops hashing: the same one-byte
//! mutation of one write value is offered at every door, a seeded sweep
//! recomputes every committed header's data and record hashes from
//! scratch, validators that put a list of their own in the block after
//! Algorithm 1 — one byte flipped, or an equal copy — check that the
//! re-seal keeps the orderer's data hash only for the list ingress
//! hashed, and a replayed block whose commit record changed — a code, a
//! member index, a converged-value byte — is refused. Two more pin what
//! a leaf built from the payload digest covers: a flipped endorsement
//! byte is tampering, and a signature over another payload fails its
//! own transaction's policy with every signature still counted.

use fabriccrdt::validator::CrdtValidator;
use fabriccrdt_crypto::{merkle, sha256, Identity, KeyPair};
use fabriccrdt_fabric::cost::ValidationWork;
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_fabric::validator::{BlockValidator, FabricValidator};
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::chain::ChainError;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_sim::gen::{self, Gen};

fn policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of(["org1", "org2"])
}

/// A transaction endorsed by one peer of each of `orgs`.
fn endorsed(nonce: u64, orgs: &[&str], write: impl FnOnce(&mut ReadWriteSet)) -> Transaction {
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
    for org in orgs {
        let kp = KeyPair::derive(Identity::new("peer0", *org));
        tx.endorsements.push(Endorsement {
            endorser: kp.identity().clone(),
            signature: kp.sign(&payload),
        });
    }
    tx
}

/// Flips one bit of the first byte of the first written value, in a
/// copy of the block's transactions.
fn flip_one_write_byte(block: &mut Block) {
    let mut transactions = block.transactions.to_vec();
    let writes = &mut transactions[0].rwset.writes;
    let (key, entry) = writes.iter().next().expect("the transaction writes");
    let (key, mut value) = (key.clone(), entry.value.clone());
    value[0] ^= 0x01;
    assert!(writes.update_value(&key, value));
    block.transactions = transactions.into();
}

/// Three plain writes of a value no other byte string in an encoded
/// chain resembles.
fn plain_block(number: u64, previous_hash: [u8; 32]) -> Block {
    let txs = (0..3)
        .map(|i| {
            endorsed(number * 10 + i, &["org1", "org2"], |rwset| {
                rwset.writes.put(format!("k{number}-{i}"), NEEDLE.to_vec());
            })
        })
        .collect();
    Block::assemble(number, previous_hash, txs)
}

const NEEDLE: &[u8] = b"needle-value-0123456789";

/// A peer that committed two plain blocks, and the two as committed.
fn veteran() -> (Peer<FabricValidator>, Vec<Block>) {
    let mut peer = Peer::new(FabricValidator::new(), policy());
    for number in 1..=2 {
        let staged = peer.process_block(plain_block(number, peer.chain().tip_hash()));
        assert_eq!(staged.block.successful_count(), 3);
        peer.commit(staged).expect("extends the chain");
    }
    let committed = peer.chain().iter().skip(1).cloned().collect();
    (peer, committed)
}

#[test]
fn ingress_rejects_a_flipped_write_byte_under_every_validator() {
    fn check<V: BlockValidator>(make: impl Fn() -> V) {
        let mut peer = Peer::new(make(), policy());
        let mut delivered = plain_block(1, peer.chain().tip_hash());
        flip_one_write_byte(&mut delivered);
        let staged = peer.process_block(delivered);
        assert_eq!(
            staged.block.validation_codes,
            [ValidationCode::TamperedBlock; 3]
        );
        assert_eq!(staged.work.sigs_verified, 0);
        peer.commit(staged).expect("the rejection is on the record");
        assert!(peer.state().is_empty(), "nothing committed");
        assert_eq!(peer.chain().verify_integrity(), Ok(()));
    }
    check(FabricValidator::new);
    check(CrdtValidator::new);
}

/// The leaf covers the endorsements as well as the payload digest: a
/// byte flipped in a signature or in an endorser's name, with the
/// payload untouched, is tampering too.
#[test]
fn ingress_rejects_a_flipped_endorsement_byte_under_every_validator() {
    fn check<V: BlockValidator>(make: impl Fn() -> V) {
        for what in ["signature", "endorser name"] {
            let mut peer = Peer::new(make(), policy());
            let mut delivered = plain_block(1, peer.chain().tip_hash());
            let mut transactions = delivered.transactions.to_vec();
            let endorsement = &mut transactions[1].endorsements[0];
            match what {
                "signature" => endorsement.signature.0[17] ^= 0x01,
                _ => endorsement.endorser.name = "peer1".into(),
            }
            delivered.transactions = transactions.into();
            let staged = peer.process_block(delivered);
            assert_eq!(
                staged.block.validation_codes,
                [ValidationCode::TamperedBlock; 3],
                "{what}"
            );
            assert_eq!(staged.work.sigs_verified, 0, "{what}");
            peer.commit(staged).expect("the rejection is on the record");
            assert!(peer.state().is_empty(), "{what}: nothing committed");
        }
    }
    check(FabricValidator::new);
    check(CrdtValidator::new);
}

/// A block the orderer sealed honestly, carrying one signature over
/// another transaction's payload: the leaf is intact, so ingress passes,
/// and the signature check — made from the payload digest ingress hashed
/// into the leaf — fails that transaction alone, counting every
/// signature it checked exactly as for an honest block.
#[test]
fn a_signature_over_another_payload_fails_policy_with_every_signature_counted() {
    fn check<V: BlockValidator>(make: impl Fn() -> V) {
        let honest = plain_block(1, Block::genesis().hash());
        let mut forged = honest.transactions.to_vec();
        let other = endorsed(99, &["org1", "org2"], |rwset| {
            rwset.writes.put("k1-1", NEEDLE.to_vec());
        });
        forged[1].endorsements[1].signature = other.endorsements[1].signature;
        let forged = Block::assemble(1, Block::genesis().hash(), forged);
        let mut peer = Peer::new(make(), policy());
        let expected_sigs = peer.process_block(honest).work.sigs_verified;
        assert_eq!(expected_sigs, 6, "two endorsements per transaction");
        let staged = peer.process_block(forged);
        assert_eq!(
            staged.block.validation_codes,
            [
                ValidationCode::Valid,
                ValidationCode::EndorsementPolicyFailure,
                ValidationCode::Valid
            ]
        );
        assert_eq!(staged.work.sigs_verified, expected_sigs);
    }
    check(FabricValidator::new);
    check(CrdtValidator::new);
}

#[test]
fn replay_rejects_the_same_mutation_and_reports_the_cheapest_failed_check() {
    let (_, committed) = veteran();
    let mut replica = Peer::new(FabricValidator::new(), policy());
    replica
        .replay_block(committed[0].clone())
        .expect("block 1 extends genesis");

    let mut forged = committed[1].clone();
    flip_one_write_byte(&mut forged);
    let mut misnumbered = forged.clone();
    misnumbered.header.number = 7;
    let mut relinked = forged.clone();
    relinked.header.previous_hash[0] ^= 0xff;
    let mut uncoded = forged.clone();
    uncoded.validation_codes.clear();

    let before = (replica.state().clone(), replica.ledger_snapshot());
    for (block, expected) in [
        (forged, ChainError::BadDataHash),
        (
            misnumbered,
            ChainError::WrongNumber {
                expected: 2,
                got: 7,
            },
        ),
        (relinked, ChainError::BrokenHashChain),
        (uncoded, ChainError::MissingValidationCodes),
    ] {
        assert_eq!(replica.replay_block(block), Err(expected));
        assert_eq!(replica.state(), &before.0);
        assert_eq!(replica.ledger_snapshot(), before.1, "peer untouched");
    }
    replica
        .replay_block(committed[1].clone())
        .expect("the block as committed still replays");
}

#[test]
fn decode_chain_rejects_the_same_mutation() {
    let (peer, committed) = veteran();
    let snapshot = peer.snapshot();
    let intact = fabriccrdt_ledger::codec::decode_chain(&snapshot.chain).expect("intact chain");
    assert!(
        intact.iter().skip(1).eq(&committed),
        "the chain as committed"
    );

    // The first stored copy of the needle is block 1's first write.
    let at = snapshot
        .chain
        .windows(NEEDLE.len())
        .position(|window| window == NEEDLE)
        .expect("the written value is stored verbatim");
    let mut chain = snapshot.chain;
    chain[at] ^= 0x01;
    let error = fabriccrdt_ledger::codec::decode_chain(&chain).expect_err("hash no longer covers");
    assert!(
        error.to_string().starts_with("chain integrity violation"),
        "{error}"
    );
}

/// Block 1 as a FabricCRDT peer commits it: an under-endorsed CRDT
/// write of `hot`, then two endorsed ones that merge, so the record
/// holds the codes `[ENDORSEMENT_POLICY_FAILURE, VALID_MERGED,
/// VALID_MERGED]` and one converged value of `hot` with members 1
/// and 2.
fn merged_and_refused() -> Block {
    let write = |n: u64| {
        move |rwset: &mut ReadWriteSet| {
            let doc = format!(r#"{{"deviceID":"d","readings":["r{n}"]}}"#);
            rwset.writes.put_crdt("hot", doc.into_bytes());
        }
    };
    let txs = vec![
        endorsed(1, &["org1"], write(1)),
        endorsed(2, &["org1", "org2"], write(2)),
        endorsed(3, &["org1", "org2"], write(3)),
    ];
    let mut peer = Peer::new(CrdtValidator::new(), policy());
    let staged = peer.process_block(Block::assemble(1, peer.chain().tip_hash(), txs));
    peer.commit(staged).expect("extends genesis").clone()
}

/// A fresh replica refuses `block` as [`ChainError::BadRecordHash`] and
/// is left as it was; the block as committed still replays.
fn assert_replay_refused(block: Block) {
    let mut replica = Peer::new(CrdtValidator::new(), policy());
    let before = (replica.state().clone(), replica.ledger_snapshot());
    assert_eq!(replica.replay_block(block), Err(ChainError::BadRecordHash));
    assert_eq!(replica.state(), &before.0);
    assert_eq!(replica.ledger_snapshot(), before.1, "peer untouched");
    replica
        .replay_block(merged_and_refused())
        .expect("the block as committed replays");
    assert!(replica.state().value("hot").is_some());
}

/// The encoding of `block`, which ends with its converged table's one
/// entry: value, member count and members 1 and 2, as `u64`s.
fn stored_with_members_last(block: &Block) -> Vec<u8> {
    let bytes = fabriccrdt_ledger::codec::encode_block(block);
    let tail = [2u64, 1, 2].map(u64::to_be_bytes).concat();
    assert!(bytes.ends_with(&tail), "the record ends the block");
    bytes
}

#[test]
fn replay_refuses_a_flipped_validation_code() {
    let mut block = merged_and_refused();
    assert_eq!(
        block.validation_codes[0],
        ValidationCode::EndorsementPolicyFailure
    );
    block.validation_codes[0] = ValidationCode::Valid;
    assert_replay_refused(block);
}

#[test]
fn replay_refuses_a_flipped_member_index() {
    let mut bytes = stored_with_members_last(&merged_and_refused());
    // Member 1 becomes member 0, a CRDT writer of `hot` too, so the
    // record still decodes.
    let at = bytes.len() - 9;
    bytes[at] ^= 0x01;
    let forged = fabriccrdt_ledger::codec::decode_block(&bytes).expect("canonical");
    let members: Vec<&[usize]> = forged.converged_values().map(|(_, _, m)| m).collect();
    assert_eq!(members, [&[0, 2][..]]);
    assert_replay_refused(forged);
}

#[test]
fn replay_refuses_a_flipped_converged_value_byte() {
    let block = merged_and_refused();
    let (_, value, _) = block.converged_values().next().expect("one value");
    let mut bytes = stored_with_members_last(&block);
    // The value's last byte comes right before the three `u64`s.
    let at = bytes.len() - 3 * 8 - 1;
    assert_eq!(bytes[at], *value.last().expect("non-empty"));
    bytes[at] ^= 0x01;
    let forged = fabriccrdt_ledger::codec::decode_block(&bytes).expect("opaque bytes");
    assert_replay_refused(forged);
}

/// One block of the sweep: CRDT merges into a few hot keys, plain
/// read-modify-writes that conflict on theirs, under-endorsed
/// transactions, an in-block duplicate and a forged signature.
fn mixed_block(g: &mut Gen, number: u64) -> Block {
    let mut txs: Vec<Transaction> = (0..g.size(6, 14) as u64)
        .map(|i| {
            let nonce = number * 100 + i;
            let key = format!("k{}", g.range(0, 4));
            match g.range(0, 4) {
                0 | 1 => endorsed(nonce, &["org1", "org2"], |rwset| {
                    let doc = format!(r#"{{"deviceID":"{key}","readings":["r{nonce}"]}}"#);
                    rwset
                        .writes
                        .put_crdt(format!("hot-{key}"), doc.into_bytes());
                }),
                2 => endorsed(nonce, &["org1", "org2"], |rwset| {
                    rwset.reads.record(key.clone(), None);
                    rwset.writes.put(key, nonce.to_be_bytes().to_vec());
                }),
                _ => endorsed(nonce, &["org1"], |rwset| {
                    rwset.writes.put(key, b"under-endorsed".to_vec());
                }),
            }
        })
        .collect();
    let duplicate = txs[g.range(0, txs.len() as u64) as usize].clone();
    txs.push(duplicate);
    let mut forged_signature = endorsed(number * 100 + 99, &["org1", "org2"], |rwset| {
        rwset.writes.put("forged", b"x".to_vec());
    });
    forged_signature.endorsements[1].signature.0[0] ^= 0xff;
    txs.push(forged_signature);
    Block::assemble(number, [0; 32], txs)
}

/// A block's data hash from nothing but its transactions: each one's
/// leaf `SHA-256(0x00 ‖ SHA-256(response payload) ‖ endorsement bytes)`
/// over its stored bytes. The ledger's own pass agrees.
fn from_scratch(block: &Block) -> [u8; 32] {
    let leaves: Vec<[u8; 32]> = block
        .transactions
        .iter()
        .map(|tx| {
            let bytes = tx.to_bytes();
            let (payload, endorsements) = bytes.split_at(tx.response_payload().len());
            merkle::leaf_of(&[&sha256::digest(payload), endorsements])
        })
        .collect();
    let root = merkle::root(leaves);
    assert_eq!(root, Block::compute_data_hash(&block.transactions));
    root
}

/// A block's record hash from nothing but its commit record: SHA-256
/// over the code count and one byte per code, then the table's count
/// and each key and value, `u64`-length-prefixed, with its member count
/// and members as `u64`s.
fn record_from_scratch(block: &Block) -> [u8; 32] {
    let mut record = (block.validation_codes.len() as u64).to_be_bytes().to_vec();
    for code in &block.validation_codes {
        record.push(match code {
            ValidationCode::Valid => 0,
            ValidationCode::MvccConflict => 1,
            ValidationCode::EndorsementPolicyFailure => 2,
            ValidationCode::DuplicateTxId => 3,
            ValidationCode::ValidMerged => 4,
            ValidationCode::EarlyAborted => 5,
            ValidationCode::TamperedBlock => 6,
        });
    }
    let table: Vec<(&str, &[u8], &[usize])> = block.converged_values().collect();
    record.extend((table.len() as u64).to_be_bytes());
    for (key, value, members) in table {
        for part in [key.as_bytes(), value] {
            record.extend((part.len() as u64).to_be_bytes());
            record.extend(part);
        }
        record.extend((members.len() as u64).to_be_bytes());
        for &member in members {
            record.extend((member as u64).to_be_bytes());
        }
    }
    sha256::digest(&record)
}

/// Drives `blocks` through a peer, block by block, and returns it.
fn run<V: BlockValidator>(validator: V, blocks: &[Block]) -> Peer<V> {
    let mut peer = Peer::new(validator, policy());
    for block in blocks {
        let staged = peer.process_block(block.clone());
        peer.commit(staged).expect("extends the chain");
    }
    peer
}

#[test]
fn every_committed_header_equals_a_from_scratch_hash() {
    fn sweep<V: BlockValidator>(make: impl Fn() -> V, blocks: &[Block], tampered: u64) {
        let peer = run(make(), blocks);
        assert_eq!(peer.chain().verify_integrity(), Ok(()));
        let mut previous = Block::genesis().hash();
        for block in peer.chain().iter().skip(1) {
            let number = block.header.number;
            assert_eq!(
                block.header.data_hash,
                from_scratch(block),
                "data hash of block {number}"
            );
            assert_eq!(
                block.header.record_hash,
                record_from_scratch(block),
                "record hash of block {number}"
            );
            assert_eq!(block.header.previous_hash, previous, "{number}");
            assert_eq!(
                block
                    .validation_codes
                    .contains(&ValidationCode::TamperedBlock),
                number == tampered,
                "exactly block {tampered} is rejected wholesale"
            );
            previous = block.hash();
        }
    }
    gen::cases(6, |g| {
        let mut blocks: Vec<Block> = (1..=5).map(|number| mixed_block(g, number)).collect();
        let tampered = g.range(1, 6);
        flip_one_write_byte(&mut blocks[tampered as usize - 1]);
        sweep(FabricValidator::new, &blocks, tampered);
        sweep(CrdtValidator::new, &blocks, tampered);
    });
}

/// Algorithm 1, then one more byte: the first byte of transaction `k`'s
/// id is flipped, if Algorithm 1 decided `k` (not a duplicate or an
/// endorsement failure).
struct FlipAfterMerge {
    k: usize,
}

impl BlockValidator for FlipAfterMerge {
    fn validate_and_commit(
        &self,
        block: &mut Block,
        state: &mut WorldState,
        pre_decided: &[Option<ValidationCode>],
    ) -> ValidationWork {
        let work = CrdtValidator::new().validate_and_commit(block, state, pre_decided);
        let undecided = pre_decided.get(self.k).copied().flatten().is_none();
        if undecided && self.k < block.len() {
            let mut transactions = block.transactions.to_vec();
            transactions[self.k].id.0[0] ^= 0x01;
            block.transactions = transactions.into();
        }
        work
    }

    fn name(&self) -> &str {
        "flip-after-merge"
    }
}

/// The re-seal keeps the data hash ingress checked only for the bytes
/// it hashed: whatever a validator changes after Algorithm 1 — here one
/// byte of any one transaction — is covered by the committed data hash,
/// while a block tampered in transit is still rejected wholesale.
#[test]
fn the_reseal_covers_a_byte_flipped_after_algorithm_1() {
    gen::cases(2, |g| {
        let mut blocks: Vec<Block> = (1..=3).map(|number| mixed_block(g, number)).collect();
        let tampered = g.range(1, 4);
        flip_one_write_byte(&mut blocks[tampered as usize - 1]);
        let merged = run(CrdtValidator::new(), &blocks);
        let longest = blocks.iter().map(Block::len).max().expect("blocks");
        for k in 0..longest {
            let peer = run(FlipAfterMerge { k }, &blocks);
            assert_eq!(peer.chain().verify_integrity(), Ok(()), "k = {k}");
            let committed = peer.chain().iter().zip(merged.chain().iter()).skip(1);
            for (block, unflipped) in committed {
                let number = block.header.number;
                assert_eq!(
                    block.header.data_hash,
                    from_scratch(block),
                    "k = {k}: data hash of block {number}"
                );
                assert_eq!(
                    block.header.record_hash,
                    record_from_scratch(block),
                    "k = {k}: record hash of block {number}"
                );
                let codes = &unflipped.validation_codes;
                assert_eq!(&block.validation_codes, codes, "k = {k}: {number}");
                let decided = codes.get(k).is_some_and(|code| {
                    matches!(
                        code,
                        ValidationCode::EndorsementPolicyFailure
                            | ValidationCode::DuplicateTxId
                            | ValidationCode::TamperedBlock
                    )
                });
                let pairs = block.transactions.iter().zip(&unflipped.transactions);
                let changed = pairs.filter(|(a, b)| a != b).count();
                let expected = usize::from(k < block.len() && !decided);
                assert_eq!(changed, expected, "k = {k}: flipped in block {number}");
            }
        }
    });
}

/// Algorithm 1, then the block's transactions replaced by a list of the
/// validator's own: an equal copy, or one with the first byte of
/// transaction 0's id flipped.
struct ReplaceList {
    flip: bool,
}

impl BlockValidator for ReplaceList {
    fn validate_and_commit(
        &self,
        block: &mut Block,
        state: &mut WorldState,
        pre_decided: &[Option<ValidationCode>],
    ) -> ValidationWork {
        let work = CrdtValidator::new().validate_and_commit(block, state, pre_decided);
        let mut transactions = block.transactions.to_vec();
        if let Some(tx) = transactions.first_mut().filter(|_| self.flip) {
            tx.id.0[0] ^= 0x01;
        }
        block.transactions = transactions.into();
        work
    }

    fn name(&self) -> &str {
        "replace-list"
    }
}

/// A list that is not the one ingress hashed is sealed over as it is:
/// an equal copy seals to the honest replica's block, and a copy with
/// one byte changed gets a data hash that covers the change, a block
/// that passes its own hash checks, and a block hash of its own.
#[test]
fn the_reseal_hashes_a_list_the_validator_put_in_the_block() {
    gen::cases(2, |g| {
        let blocks: Vec<Block> = (1..=3).map(|number| mixed_block(g, number)).collect();
        let honest = run(CrdtValidator::new(), &blocks);
        let equal = run(ReplaceList { flip: false }, &blocks);
        let flipped = run(ReplaceList { flip: true }, &blocks);
        assert_eq!(equal.chain().tip_hash(), honest.chain().tip_hash());
        assert_eq!(equal.state(), honest.state());
        let committed = honest.chain().iter().zip(equal.chain().iter());
        for ((honest, equal), flipped) in committed.zip(flipped.chain().iter()).skip(1) {
            let number = honest.header.number;
            assert!(honest
                .transactions
                .shares(&blocks[number as usize - 1].transactions));
            assert!(!equal.transactions.shares(&honest.transactions));
            assert_eq!(equal.hash(), honest.hash(), "block {number}: equal list");
            assert_eq!(flipped.check_hashes(), Ok(()), "block {number}");
            assert_eq!(flipped.header.data_hash, from_scratch(flipped));
            assert_ne!(flipped.header.data_hash, honest.header.data_hash);
            assert_ne!(flipped.hash(), honest.hash(), "block {number}: flipped");
        }
    });
}
