//! Ledger format v2: a block holds each converged CRDT value once and
//! every merged write refers to it. The decoder admits only blocks whose
//! references and converged values match one for one, and is total on
//! hostile bytes; the data hash covers the values; a block with no
//! merged write hashes as it did before the table existed.

use fabriccrdt_crypto::{hex, Identity, Signature};
use fabriccrdt_ledger::block::{Block, EncodedTransactions, SealedBlock, ValidationCode};
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

/// A hot-key block as a peer commits it: `txs` documents merged into
/// one converged value that every write of `hot` refers to, re-sealed,
/// with a validation code per transaction.
fn merged_hot_block(txs: u64, converged: &[u8]) -> Block {
    let documents = (0..txs).map(|n| hot_tx(n, format!(r#"{{"r":"{n}"}}"#).as_bytes()));
    let mut block = Block::assemble(3, [5; 32], documents.collect());
    let members: Vec<usize> = (0..block.len()).collect();
    block.install_converged("hot", converged.to_vec(), &members);
    block.validation_codes = vec![ValidationCode::ValidMerged; block.len()];
    SealedBlock::seal(block, [6; 32]).into_block()
}

fn arb_merged_hot_block(g: &mut Gen) -> Block {
    let converged = g.bytes(1, 40);
    merged_hot_block(g.range(1, 9), &converged)
}

/// Where the converged values start in `block`'s encoding: after the
/// version, number, two digests, transaction count and transactions.
fn table_offset(block: &Block) -> usize {
    let txs: usize = block
        .transactions
        .iter()
        .map(|tx| tx.to_bytes().len())
        .sum();
    1 + 8 + 32 + 32 + 8 + txs
}

/// `block`'s encoding with its converged values replaced by `entries`,
/// written as the table layout writes them.
fn with_table(block: &Block, entries: &[(&str, &[u8])]) -> Vec<u8> {
    let bytes = codec::encode_block(block);
    let start = table_offset(block);
    let old: usize = 8 + block
        .converged_values()
        .map(|(k, v)| 16 + k.len() + v.len())
        .sum::<usize>();
    let mut table = (entries.len() as u64).to_be_bytes().to_vec();
    for part in entries.iter().flat_map(|(k, v)| [k.as_bytes(), v]) {
        table.extend((part.len() as u64).to_be_bytes());
        table.extend(part);
    }
    [&bytes[..start], &table, &bytes[start + old..]].concat()
}

fn decode_error(bytes: &[u8]) -> String {
    codec::decode_block(bytes)
        .expect_err("the decoder refuses it")
        .to_string()
}

#[test]
fn merged_writes_carry_no_value_bytes() {
    let block = merged_hot_block(4, b"converged");
    assert_eq!(block.converged_values().count(), 1);
    for tx in &block.transactions {
        let write = tx.rwset.writes.get("hot").expect("written");
        assert!(write.is_converged() && write.value.is_empty());
        assert_eq!(block.value_of("hot", write), b"converged");
    }
    // The untouched plain key keeps its bytes inline.
    let plain = block.transactions[2].rwset.writes.get("plain2").unwrap();
    assert_eq!(block.value_of("plain2", plain), [2; 3]);
    assert!(block.data_hash_is_valid());
    assert_eq!(
        with_table(&block, &[("hot", b"converged")]),
        codec::encode_block(&block),
        "the table is where the tests splice it"
    );
}

#[test]
fn a_reference_to_a_missing_value_is_an_error() {
    let block = merged_hot_block(3, b"v");
    let message = decode_error(&with_table(&block, &[]));
    assert!(message.contains("missing converged value"), "{message}");
    let message = decode_error(&with_table(&block, &[("hou", b"v")]));
    assert!(message.contains("missing converged value"), "{message}");
}

#[test]
fn an_unreferenced_or_duplicate_value_is_an_error() {
    let block = merged_hot_block(3, b"v");
    let message = decode_error(&with_table(&block, &[("hot", b"v"), ("zzz", b"w")]));
    assert!(
        message.contains("unreferenced converged value"),
        "{message}"
    );
    let message = decode_error(&with_table(&block, &[("aaa", b"w"), ("hot", b"v")]));
    assert!(
        message.contains("unreferenced converged value"),
        "{message}"
    );
    let message = decode_error(&with_table(&block, &[("hot", b"v"), ("hot", b"v")]));
    assert!(message.contains("keys out of order"), "{message}");
    let message = decode_error(&with_table(&block, &[("hot", b"v"), ("hot", b"w")]));
    assert!(message.contains("keys out of order"), "{message}");
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

/// One byte of the converged value is covered by the data hash: the
/// block decodes, but no check that recomputes the hash admits it.
#[test]
fn a_changed_value_byte_fails_every_hash_check() {
    gen::cases(32, |g| {
        let block = arb_merged_hot_block(g);
        assert!(block.data_hash_is_valid());
        assert!(EncodedTransactions::verify(&block).is_some());
        assert!(SealedBlock::verify(block.clone()).is_some());

        let mut bytes = codec::encode_block(&block);
        let (_, value) = block.converged_values().next().expect("one value");
        // The value is the table's last field: count, key, value length.
        let at = table_offset(&block) + 8 + 8 + 3 + 8 + g.range(0, value.len() as u64) as usize;
        bytes[at] ^= 1 << g.range(0, 8);
        let forged = codec::decode_block(&bytes).expect("the value is opaque bytes");
        assert_ne!(forged.converged_values().next(), Some(("hot", value)));
        assert!(!forged.data_hash_is_valid());
        assert!(EncodedTransactions::verify(&forged).is_none());
        assert!(SealedBlock::verify(forged).is_none());
    });
}

/// A block with no merged write hashes exactly as the orderer's
/// transactions alone do: the digest pinned here was recorded before
/// blocks held converged values.
#[test]
fn a_block_with_no_merged_write_keeps_its_data_hash() {
    let txs: Vec<Transaction> = (0..5).map(|n| hot_tx(n, br#"{"r":"0"}"#)).collect();
    let block = Block::assemble(7, [9; 32], txs);
    assert_eq!(block.converged_values().count(), 0);
    assert!(block.data_hash_is_valid());
    assert_eq!(
        block.header.data_hash,
        Block::compute_data_hash(&block.transactions)
    );
    assert_eq!(
        hex::encode(&block.header.data_hash),
        "253a13b61f6915d084e1aa83fc9015ee81a5300e5d6b0ce14013799440f98a5e",
        "the data hash of a block with no converged value moved"
    );
}
