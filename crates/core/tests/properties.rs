//! Randomized property tests of the FabricCRDT requirements (§4.2): *no
//! failure* and *no update loss* over arbitrary CRDT workloads, plus
//! determinism of the merge-validate path and the size of a merged
//! hot-key block (ledger format v2). Driven by the deterministic
//! in-repo generator (`fabriccrdt_sim::gen`).

use std::collections::BTreeMap;

use fabriccrdt::validator::CrdtValidator;
use fabriccrdt_crypto::Identity;
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_ledger::block::{Block, SealedBlock, ValidationCode};
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_sim::gen::{self, Gen};

/// Arbitrary string-leaf JSON documents (the chaincode payload shape).
fn arb_doc(g: &mut Gen) -> Value {
    fn node(g: &mut Gen, depth: usize) -> Value {
        if depth == 0 || g.prob(0.5) {
            return Value::string(g.string_of("abcdefghij0123456789.", 1, 8));
        }
        if g.flip() {
            Value::list(g.vec(0, 3, |g| node(g, depth - 1)))
        } else {
            let entries: BTreeMap<String, Value> = g
                .vec(0, 3, |g| (g.ident(1, 4), node(g, depth - 1)))
                .into_iter()
                .collect();
            Value::Map(entries)
        }
    }
    let entries: BTreeMap<String, Value> = g
        .vec(1, 3, |g| (g.ident(1, 4), node(g, 3)))
        .into_iter()
        .collect();
    Value::Map(entries)
}

/// A write value a client controls outright, beside `arb_doc`'s: bytes
/// that are not JSON, JSON that is not a map, `_crdt` envelopes that are
/// malformed or of another type than their neighbours', and documents
/// with number, bool and null leaves whose few fields flip type from one
/// transaction to the next.
fn arb_hostile_value(g: &mut Gen) -> Vec<u8> {
    const NOT_MAPS: [&str; 6] = [
        r#"["a",{"b":"c"}]"#,
        r#""s""#,
        "-1.5e3",
        "true",
        "null",
        "[]",
    ];
    const ENVELOPES: [&str; 10] = [
        r#"{"_crdt":"g-counter","counts":{"a":"3"}}"#,
        r#"{"_crdt":"g-set","elements":["x","y"]}"#,
        r#"{"_crdt":"lww","value":"v","stamp":"7"}"#,
        r#"{"_crdt":"pn-counter","inc":{"a":"2"},"dec":{"a":"1"}}"#,
        r#"{"_crdt":"g-counter"}"#,
        r#"{"_crdt":"g-counter","counts":{"a":"NaN"}}"#,
        r#"{"_crdt":"g-set","elements":"not-a-list"}"#,
        r#"{"_crdt":"lww","value":"x"}"#,
        r#"{"_crdt":"nope"}"#,
        r#"{"_crdt":7,"counts":{}}"#,
    ];
    fn flip(g: &mut Gen, depth: usize) -> Value {
        match g.range(0, if depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(g.flip()),
            2 => Value::from(g.range(0, 2_000) as i64 - 1_000),
            3 => Value::string(g.string_of("xy", 0, 2)),
            4 => Value::list(g.vec(0, 3, |g| flip(g, depth - 1))),
            _ => {
                let fields = g.vec(0, 3, |g| {
                    (g.pick(&["f", "g"]).to_string(), flip(g, depth - 1))
                });
                Value::Map(fields.into_iter().collect())
            }
        }
    }
    match g.range(0, 5) {
        0 => {
            let mut bytes = g.bytes(0, 24);
            bytes.push(b'{'); // never a complete JSON text
            bytes
        }
        1 => g.pick(&NOT_MAPS).as_bytes().to_vec(),
        2 => g.pick(&ENVELOPES).as_bytes().to_vec(),
        _ => {
            let fields = g.vec(1, 3, |g| (g.pick(&["f", "g"]).to_string(), flip(g, 2)));
            Value::Map(fields.into_iter().collect()).to_bytes()
        }
    }
}

/// A block of CRDT transactions over a small hot-key space, every read
/// intentionally stale. With `hostile`, half of the write values come
/// from [`arb_hostile_value`].
fn arb_crdt_block(g: &mut Gen, hostile: bool) -> Vec<(u64, String, Vec<u8>)> {
    g.vec(1, 7, |g| {
        let key = g.range(0, 4);
        let value = if hostile && g.flip() {
            arb_hostile_value(g)
        } else {
            arb_doc(g).to_bytes()
        };
        (key, value)
    })
    .into_iter()
    .enumerate()
    .map(|(i, (key, value))| (i as u64, format!("hot-{key}"), value))
    .collect()
}

fn build_block(specs: &[(u64, String, Vec<u8>)]) -> Block {
    let txs: Vec<Transaction> = specs
        .iter()
        .map(|(nonce, key, value)| {
            let client = Identity::new("client", "org1");
            let mut rwset = ReadWriteSet::new();
            rwset.reads.record(key.clone(), Some(Height::new(0, 0))); // stale
            rwset.writes.put_crdt(key.clone(), value.clone());
            Transaction {
                id: TxId::derive(&client, *nonce, "cc"),
                client,
                chaincode: "cc".into(),
                rwset,
                endorsements: Vec::new(),
            }
        })
        .collect();
    Block::assemble(2, [0; 32], txs)
}

fn seeded_state() -> WorldState {
    let mut state = WorldState::new();
    for k in 0..4 {
        state.put(
            format!("hot-{k}"),
            Value::empty_map().to_bytes(),
            Height::new(1, 0),
        );
    }
    state
}

/// No failure: every CRDT transaction commits, whatever it writes —
/// hostile values included — and however stale its reads are.
#[test]
fn crdt_transactions_never_fail() {
    gen::cases(96, |g| {
        let specs = arb_crdt_block(g, true);
        let mut block = build_block(&specs);
        let mut state = seeded_state();
        let work = CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        assert_eq!(work.successes as usize, specs.len());
        assert!(block
            .validation_codes
            .iter()
            .all(|c| *c == ValidationCode::ValidMerged));
    });
}

/// The committed value of every written key parses as JSON and the
/// write sets of all transactions on one key are identical (Listing 2's
/// property). Well-formed input only: an opaque value commits as written.
#[test]
fn converged_values_well_formed_and_uniform() {
    gen::cases(96, |g| {
        let specs = arb_crdt_block(g, false);
        let mut block = build_block(&specs);
        let mut state = seeded_state();
        CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        for (_, key, _) in &specs {
            let stored = state.value(key).expect("committed");
            assert!(Value::from_bytes(stored).is_ok());
        }
        for key in specs.iter().map(|(_, k, _)| k) {
            let values: Vec<&[u8]> = block
                .transactions
                .iter()
                .enumerate()
                .filter_map(|(i, tx)| Some(block.value_of(i, key, tx.rwset.writes.get(key)?)))
                .collect();
            for pair in values.windows(2) {
                assert_eq!(pair[0], pair[1]);
            }
        }
    });
}

/// No update loss: every top-level key contributed by any transaction
/// appears in the committed document for its ledger key.
#[test]
fn no_top_level_update_loss() {
    gen::cases(96, |g| {
        let specs = arb_crdt_block(g, false);
        let mut block = build_block(&specs);
        let mut state = seeded_state();
        CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        for (_, key, value) in &specs {
            let stored = Value::from_bytes(state.value(key).unwrap()).unwrap();
            let doc = Value::from_bytes(value).unwrap();
            for field in doc.as_map().unwrap().keys() {
                assert!(
                    stored.get(field).is_some(),
                    "field {field:?} of {key} lost: {stored}"
                );
            }
        }
    });
}

/// Determinism: two validators over the same block, hostile values
/// included, produce identical state and codes (what keeps replicas
/// convergent).
#[test]
fn merge_validation_is_deterministic() {
    gen::cases(96, |g| {
        let specs = arb_crdt_block(g, true);
        let run = || {
            let mut block = build_block(&specs);
            let mut state = seeded_state();
            CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
            let snapshot: Vec<(String, Vec<u8>)> = state
                .iter()
                .map(|(k, v)| (k.clone(), v.value.clone()))
                .collect();
            (snapshot, block.validation_codes)
        };
        assert_eq!(run(), run());
    });
}

/// Ledger format v3 holds a hot key's converged value once, beside the
/// transactions: a 400-transaction hot-key block re-sealed after
/// Algorithm 1 encodes to exactly the bytes it was delivered as, plus
/// one validation code and one member index per transaction and one
/// converged value. Copying the value into every write, as format v1
/// did, would add it 400 times.
#[test]
fn a_merged_hot_key_block_holds_its_value_once() {
    let specs: Vec<(u64, String, Vec<u8>)> = (0..400)
        .map(|i| {
            let doc = format!(r#"{{"deviceID":"d1","readings":["r{i}"]}}"#);
            (i, "hot-0".to_owned(), doc.into_bytes())
        })
        .collect();
    let delivered = build_block(&specs);
    let mut block = delivered.clone();
    CrdtValidator::new().validate_and_commit(&mut block, &mut seeded_state(), &[]);
    let block = SealedBlock::seal(block, [1; 32]);

    assert_eq!(block.transactions, delivered.transactions, "as endorsed");
    let values: Vec<(&str, &[u8], &[usize])> = block.converged_values().collect();
    let [(key, value, members)] = values[..] else {
        panic!("one converged value, not {}", values.len());
    };
    assert_eq!(key, "hot-0");
    assert_eq!(members.len(), 400);
    assert!(value.len() > 400 * 4, "it holds every reading");
    let table_entry = 8 + key.len() + 8 + value.len() + 8 + 8 * members.len();
    let expected = codec::block_len(&delivered) + table_entry + block.len();
    assert_eq!(codec::block_len(&block), expected);
}
