//! Ledger format v3: a committed block keeps its transactions as the
//! orderer cut them, and the peer's commit record — validation codes and
//! each merged key's converged value once, with the transactions that
//! commit it — sits beside them, bound into the block hash by the
//! header's record hash. The decoder admits only canonical records and
//! is total on hostile bytes; the record hash covers every record byte;
//! a block's data hash is its transactions' alone.

use fabriccrdt_crypto::{hex, Identity, Signature};
use fabriccrdt_ledger::block::{Block, SealedBlock, Transactions, ValidationCode};
use fabriccrdt_ledger::chain::ChainError;
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_sim::gen::{self, Gen};

/// Transaction `n` read-modify-writing `hot`, and a plain key of its
/// own, with three endorsements.
fn hot_tx(n: u64, document: &[u8]) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record("hot", Some(Height::new(1, 0)));
    rwset.writes.put_crdt("hot", document.to_vec());
    rwset.writes.put(format!("plain{n}"), vec![n as u8; 3]);
    Transaction {
        id: TxId::derive(&client, n, "iot"),
        client,
        chaincode: "iot".into(),
        rwset,
        endorsements: ["org1", "org2", "org3"]
            .map(|org| Endorsement {
                endorser: Identity::new("peer0", org),
                signature: Signature([n as u8; 32]),
            })
            .to_vec(),
    }
}

/// A hot-key block as the orderer cuts it: `txs` documents on `hot`.
fn ordered_hot_block(txs: u64) -> Block {
    let documents = (0..txs).map(|n| hot_tx(n, format!(r#"{{"r":"{n}"}}"#).as_bytes()));
    Block::assemble(3, [5; 32], documents.collect())
}

/// A hot-key block as a peer commits it: every write of `hot` commits
/// `converged`, with a validation code per transaction, re-sealed.
fn merged_hot_block(txs: u64, converged: &[u8]) -> Block {
    let mut block = ordered_hot_block(txs);
    let members: Vec<usize> = (0..block.len()).collect();
    block.set_converged("hot".into(), converged.to_vec(), members);
    block.validation_codes = vec![ValidationCode::ValidMerged; block.len()];
    SealedBlock::seal(block, [6; 32]).into_block()
}

/// `block`'s data hash over a fresh allocation of its transactions:
/// nothing kept, hashed from scratch.
fn fresh_data_hash(block: &Block) -> [u8; 32] {
    Transactions::from(block.transactions.to_vec()).data_hash()
}

fn arb_merged_hot_block(g: &mut Gen) -> Block {
    let converged = g.bytes(1, 40);
    merged_hot_block(g.range(1, 9), &converged)
}

/// Where the commit record starts in `block`'s encoding: after the
/// version, number, three digests, transaction count and transactions.
fn record_offset(block: &Block) -> usize {
    let txs: usize = block
        .transactions
        .iter()
        .map(|tx| tx.to_bytes().len())
        .sum();
    1 + 8 + 3 * 32 + 8 + txs
}

/// `block`'s encoding with its commit record replaced by `codes` code
/// bytes and the table `entries`, written as the record layout writes
/// them.
fn with_record(block: &Block, codes: &[u8], entries: &[(&str, &[u8], &[u64])]) -> Vec<u8> {
    let bytes = codec::encode_block(block);
    let mut record = (codes.len() as u64).to_be_bytes().to_vec();
    record.extend(codes);
    record.extend((entries.len() as u64).to_be_bytes());
    for (key, value, members) in entries {
        for part in [key.as_bytes(), value] {
            record.extend((part.len() as u64).to_be_bytes());
            record.extend(part);
        }
        record.extend((members.len() as u64).to_be_bytes());
        for member in *members {
            record.extend(member.to_be_bytes());
        }
    }
    [&bytes[..record_offset(block)], &record].concat()
}

fn decode_error(bytes: &[u8]) -> String {
    codec::decode_block(bytes)
        .expect_err("the decoder refuses it")
        .to_string()
}

#[test]
fn merged_transactions_keep_their_bytes_and_commit_the_value_once() {
    let block = merged_hot_block(4, b"converged");
    assert_eq!(block.converged_values().count(), 1);
    for (i, tx) in block.transactions.iter().enumerate() {
        let write = tx.rwset.writes.get("hot").expect("written");
        assert_eq!(write.value, format!(r#"{{"r":"{i}"}}"#).as_bytes());
        assert_eq!(block.value_of(i, "hot", write), b"converged");
    }
    // A plain key, and a transaction the record does not name, commit
    // their own bytes.
    let plain = block.transactions[2].rwset.writes.get("plain2").unwrap();
    assert_eq!(block.value_of(2, "plain2", plain), [2; 3]);
    let hot = block.transactions[2].rwset.writes.get("hot").unwrap();
    assert_eq!(block.value_of(7, "hot", hot), hot.value);
    assert_eq!(block.check_hashes(), Ok(()));
    assert_eq!(
        with_record(&block, &[4; 4], &[("hot", b"converged", &[0, 1, 2, 3])]),
        codec::encode_block(&block),
        "the record is where the tests splice it"
    );
}

/// A committed `hotkey-merge`-shaped block — 400 documents merged into
/// one hot key, re-sealed over the list the orderer cut — stores its
/// transactions byte for byte as the ordered block does, under the
/// orderer's data hash; only the record and its hash differ.
#[test]
fn a_committed_hot_key_block_stores_the_ordered_transactions() {
    let ordered = ordered_hot_block(400);
    assert!(ordered.data_hash_is_valid(), "as cut");
    let mut block = ordered.clone();
    block.set_converged("hot".into(), vec![b'x'; 1400], (0..400).collect());
    block.validation_codes = vec![ValidationCode::ValidMerged; 400];
    let committed = SealedBlock::seal(block, [6; 32]);
    assert_eq!(committed.header.data_hash, ordered.header.data_hash);
    assert_ne!(committed.header.record_hash, ordered.header.record_hash);
    let (ordered_bytes, committed_bytes) = (
        codec::encode_block(&ordered),
        codec::encode_block(&committed),
    );
    let (start, end) = (1 + 8 + 3 * 32, record_offset(&ordered));
    assert_eq!(ordered_bytes[start..end], committed_bytes[start..end]);
    assert_eq!(committed.check_hashes(), Ok(()));
}

#[test]
fn a_code_count_other_than_none_or_one_per_transaction_is_an_error() {
    let block = merged_hot_block(2, b"v");
    let table: &[(&str, &[u8], &[u64])] = &[("hot", b"v", &[0, 1])];
    for codes in [&[][..], &[4, 4]] {
        assert!(codec::decode_block(&with_record(&block, codes, table)).is_ok());
    }
    for codes in [&[4][..], &[4, 4, 4]] {
        let message = decode_error(&with_record(&block, codes, table));
        assert!(message.contains("code count"), "{message}");
    }
}

#[test]
fn table_keys_must_strictly_rise() {
    let block = merged_hot_block(3, b"v");
    let all: &[u64] = &[0, 1, 2];
    let message = decode_error(&with_record(
        &block,
        &[],
        &[("hot", b"v", all), ("hot", b"v", all)],
    ));
    assert!(message.contains("keys out of order"), "{message}");
    let message = decode_error(&with_record(
        &block,
        &[],
        &[("hot", b"v", all), ("hot", b"w", all)],
    ));
    assert!(message.contains("keys out of order"), "{message}");
}

#[test]
fn members_must_be_rising_in_range_crdt_writers_and_never_none() {
    let block = merged_hot_block(3, b"v");
    let writer = "not a rising CRDT writer";
    for (entry, expected) in [
        (("hot", &[][..]), "no member"),
        (("hot", &[1, 0]), writer),
        (("hot", &[1, 1]), writer),
        (("hot", &[0, 3]), writer),
        (("hot", &[u64::MAX]), writer),
        (("plain0", &[0]), writer),
        (("plain0", &[1]), writer),
        (("zzz", &[0]), writer),
    ] {
        let (key, members) = entry;
        let message = decode_error(&with_record(&block, &[], &[(key, b"v", members)]));
        assert!(message.contains(expected), "{key} {members:?}: {message}");
    }
    let fine: &[(&str, &[u8], &[u64])] = &[("hot", b"v", &[0, 2])];
    assert!(codec::decode_block(&with_record(&block, &[], fine)).is_ok());
}

/// Decode → encode is the identity on merged blocks, and the counted
/// length is the encoded one.
#[test]
fn merged_blocks_roundtrip() {
    gen::cases(64, |g| {
        let block = arb_merged_hot_block(g);
        let bytes = codec::encode_block(&block);
        assert_eq!(codec::block_len(&block), bytes.len());
        assert_eq!(codec::decode_block(&bytes).expect("decodes"), block);
    });
}

/// Hostile bytes: every proper prefix is an error; a flipped bit or an
/// inflated length anywhere is an error or decodes to a block that
/// encodes back to exactly those bytes. Nothing panics.
#[test]
fn hostile_bytes_over_merged_blocks_never_panic() {
    let err_or_roundtrip = |bytes: &[u8]| {
        if let Ok(block) = codec::decode_block(bytes) {
            assert_eq!(codec::encode_block(&block), bytes, "decoded, so canonical");
        }
    };
    gen::cases(12, |g| {
        let bytes = codec::encode_block(&arb_merged_hot_block(g));
        for cut in 0..bytes.len() {
            assert!(codec::decode_block(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for _ in 0..400 {
            let mut flipped = bytes.clone();
            let at = g.range(0, bytes.len() as u64) as usize;
            flipped[at] ^= 1 << g.range(0, 8);
            err_or_roundtrip(&flipped);
        }
        for at in 0..bytes.len() - 8 {
            let mut inflated = bytes.clone();
            let was = u64::from_be_bytes(bytes[at..at + 8].try_into().unwrap());
            let by = [1, 8, 1 << 20, u64::MAX / 2][g.range(0, 4) as usize];
            inflated[at..at + 8].copy_from_slice(&was.wrapping_add(by).to_be_bytes());
            err_or_roundtrip(&inflated);
        }
    });
}

/// One byte of the record — a code, the converged value, a member
/// index — is covered by the record hash: the block decodes and its
/// transactions still pass ingress, but no check that recomputes the
/// record hash admits it.
#[test]
fn a_changed_record_byte_fails_every_hash_check() {
    gen::cases(32, |g| {
        let block = arb_merged_hot_block(g);
        assert_eq!(block.check_hashes(), Ok(()));
        assert_eq!(fresh_data_hash(&block), block.header.data_hash);
        assert!(SealedBlock::verify(block.clone()).is_ok());

        let (_, value, members) = block.converged_values().next().expect("one value");
        let codes: Vec<u8> = vec![4; block.len()];
        let mut members: Vec<u64> = members.iter().map(|&m| m as u64).collect();
        let mut value = value.to_vec();
        let mut forged_codes = codes.clone();
        match g.range(0, 3) {
            0 => forged_codes[g.range(0, codes.len() as u64) as usize] = 0,
            1 => {
                let at = g.range(0, value.len() as u64) as usize;
                value[at] ^= 1 << g.range(0, 8);
            }
            _ => {
                members.pop();
                if members.is_empty() {
                    return;
                }
            }
        }
        let bytes = with_record(&block, &forged_codes, &[("hot", &value, &members)]);
        let forged = codec::decode_block(&bytes).expect("canonical");
        assert_ne!(forged, block);
        assert!(forged.data_hash_is_valid());
        assert_eq!(fresh_data_hash(&forged), forged.header.data_hash);
        assert_eq!(forged.check_hashes(), Err(ChainError::BadRecordHash));
        assert_eq!(SealedBlock::verify(forged), Err(ChainError::BadRecordHash));
    });
}

/// A block's data hash is its transactions' alone: the digest pinned
/// here was recorded before blocks held converged values, and neither
/// ledger format v2's table nor v3's record moved it.
#[test]
fn a_data_hash_covers_the_transactions_alone() {
    let txs: Vec<Transaction> = (0..5).map(|n| hot_tx(n, br#"{"r":"0"}"#)).collect();
    let block = Block::assemble(7, [9; 32], txs);
    assert_eq!(block.converged_values().count(), 0);
    assert!(block.data_hash_is_valid());
    assert_eq!(block.header.data_hash, fresh_data_hash(&block));
    assert_eq!(
        hex::encode(&block.header.data_hash),
        "253a13b61f6915d084e1aa83fc9015ee81a5300e5d6b0ce14013799440f98a5e",
        "the data hash of a block's transactions moved"
    );
    let mut merged = block.clone();
    merged.set_converged("hot".into(), b"v".to_vec(), vec![0, 4]);
    merged.validation_codes = vec![ValidationCode::ValidMerged; 5];
    let merged = SealedBlock::seal(merged, [9; 32]);
    assert_eq!(merged.header.data_hash, block.header.data_hash);
    assert_ne!(merged.header.record_hash, block.header.record_hash);
}
