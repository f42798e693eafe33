//! Algorithm 1 with singleton keys taken alone, against the pass that
//! built a CRDT for every key.
//!
//! `oracle` is the parent commit's `KeyMerger` and `merge_pass`
//! verbatim, wrapped in `BlockValidator::validate_and_commit` exactly
//! as the parent wrapped it: a fresh `JsonCrdt` per key per block
//! (`InitEmptyCRDT`) whether one transaction writes the key or forty.
//! The rewrite keeps a key's first JSON document as it came and builds
//! the CRDT only when a second one arrives, and commits a key written
//! once without parsing it when its bytes are already in the form the
//! conversion writes (`alone_as_is`); codes, committed write values
//! (the oracle's rewritten write sets against each write's value
//! through the commit record), world state and every `ValidationWork`
//! counter must be the oracle's
//! through `validate_and_commit`, the one finalize every peer runs. The
//! work counters feed `fabric::cost`,
//! so every simulated-time figure hangs on them. Driven by
//! `fabriccrdt_sim::gen`, which writes normal-form singletons often
//! enough that the as-is path is taken.

use std::collections::BTreeMap;

use fabriccrdt::validator::CrdtValidator;
use fabriccrdt_crypto::Identity;
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_jsoncrdt::doc::{alone_as_is, write_alone};
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_sim::gen::{self, Gen};

mod oracle {
    use std::collections::BTreeMap;

    use fabriccrdt::TypedCrdt;
    use fabriccrdt_fabric::cost::ValidationWork;
    use fabriccrdt_fabric::validator::BlockValidator;
    use fabriccrdt_jsoncrdt::json::Value;
    use fabriccrdt_jsoncrdt::{JsonCrdt, ReplicaId};
    use fabriccrdt_ledger::block::{Block, ValidationCode};
    use fabriccrdt_ledger::mvcc;
    use fabriccrdt_ledger::transaction::Transaction;
    use fabriccrdt_ledger::worldstate::WorldState;

    /// Per-key merge state during a block's first pass: either the generic
    /// JSON-document CRDT of the paper's prototype, or one of the typed
    /// CRDTs of [`crate::types`] (the paper's future-work extension).
    enum KeyMerger {
        Json(JsonCrdt),
        Typed(TypedCrdt),
    }

    impl KeyMerger {
        fn converged_bytes(&mut self, extra_units: &mut u64) -> Vec<u8> {
            match self {
                KeyMerger::Json(doc) => {
                    // Conversion walks the whole document once.
                    *extra_units += doc.applied_len() as u64;
                    let mut bytes = Vec::new();
                    doc.write_bytes(&mut bytes);
                    bytes
                }
                KeyMerger::Typed(state) => {
                    *extra_units += state.work_units();
                    state.to_value().to_bytes()
                }
            }
        }
    }

    pub struct CrdtValidator {
        replica: ReplicaId,
    }

    impl CrdtValidator {
        pub fn new() -> Self {
            CrdtValidator {
                replica: ReplicaId(1),
            }
        }

        fn merge_pass<'a>(
            &self,
            txs: impl Iterator<Item = (usize, &'a Transaction)>,
            merge_units: &mut u64,
            merge_quad: &mut u64,
        ) -> BTreeMap<String, (KeyMerger, Vec<usize>)> {
            let mut crdts: BTreeMap<String, (KeyMerger, Vec<usize>)> = BTreeMap::new();
            for (i, tx) in txs {
                for (key, entry) in tx.rwset.writes.iter() {
                    if !entry.is_crdt || entry.is_delete {
                        continue; // line 14: handled as a non-CRDT pair
                    }
                    // The type of the CRDT object depends on the value's type
                    // (line 9): a `_crdt`-tagged envelope selects a typed
                    // CRDT; any other JSON map is the generic JSON-document
                    // CRDT. Unparsable values stay opaque: they skip MVCC
                    // (the flag is set) and commit in block order unmerged.
                    let Ok(value) = Value::from_bytes(&entry.value) else {
                        continue;
                    };
                    if value.as_map().is_none() {
                        continue;
                    }
                    match TypedCrdt::parse(&value) {
                        Some(Ok(typed)) => {
                            match crdts.entry(key.clone()) {
                                std::collections::btree_map::Entry::Vacant(slot) => {
                                    *merge_units += typed.work_units();
                                    slot.insert((KeyMerger::Typed(typed), vec![i]));
                                }
                                std::collections::btree_map::Entry::Occupied(mut slot) => {
                                    let (merger, members) = slot.get_mut();
                                    if let KeyMerger::Typed(state) = merger {
                                        if state.merge(&typed).is_ok() {
                                            *merge_units += typed.work_units();
                                            members.push(i);
                                        }
                                    }
                                    // Json/Typed mismatch: leave the value
                                    // opaque (not a member).
                                }
                            }
                        }
                        Some(Err(_)) => {
                            // Tagged but malformed: opaque commit.
                        }
                        None => {
                            let (merger, members) = crdts.entry(key.clone()).or_insert_with(|| {
                                (KeyMerger::Json(JsonCrdt::new(self.replica)), Vec::new())
                            });
                            if let KeyMerger::Json(doc) = merger {
                                let ops_before = doc.applied_len() as u64;
                                if let Ok(work) = doc.merge_value(&value) {
                                    *merge_units += work.units();
                                    // Superlinear apply-cost term: merging into
                                    // a document that already holds earlier
                                    // transactions' operations is proportionally
                                    // more expensive (see fabriccrdt-fabric::cost).
                                    *merge_quad += work.units() * ops_before;
                                    members.push(i);
                                }
                            }
                        }
                    }
                }
            }
            crdts
        }
    }

    impl BlockValidator for CrdtValidator {
        fn validate_and_commit(
            &self,
            block: &mut Block,
            state: &mut WorldState,
            pre_decided: &[Option<ValidationCode>],
        ) -> ValidationWork {
            let decided = |i: usize| pre_decided.get(i).copied().flatten().is_some();

            // ----- First pass: collect and merge CRDT values (lines 3–14).
            let mut merge_units = 0u64;
            let mut merge_quad = 0u64;
            let mut crdts = self.merge_pass(
                block
                    .transactions
                    .iter()
                    .enumerate()
                    // Only endorsement-valid transactions merge.
                    .filter(|&(i, _)| !decided(i)),
                &mut merge_units,
                &mut merge_quad,
            );

            // ----- Second pass: rewrite CRDT write values with the converged,
            // metadata-free state (lines 16–22), in a copy of the list.
            let mut transactions = block.transactions.to_vec();
            for (key, (merger, members)) in &mut crdts {
                let bytes = merger.converged_bytes(&mut merge_units);
                for &i in members.iter() {
                    transactions[i]
                        .rwset
                        .writes
                        .update_value(key, bytes.clone());
                }
            }
            block.transactions = transactions.into();

            // ----- MVCC on non-CRDT pairs, then commit (line 15 + commit).
            let stats = mvcc::validate_and_commit(block, state, pre_decided, true);

            ValidationWork {
                merge_units,
                merge_quad,
                ..stats.into()
            }
        }

        fn name(&self) -> &str {
            "fabriccrdt"
        }
    }
}

// ------------------------------------------------------- generators

const KEYS: [&str; 5] = ["a", "readings", "deviceID", "q\"k", "é"];

fn arb_leaf(g: &mut Gen) -> Value {
    match g.range(0, 8) {
        0 => Value::Null,
        1 => Value::Bool(g.flip()),
        2 => Value::from((g.f64_in(-50.0, 50.0) * 10.0).round() / 10.0),
        // Few distinct strings, so documents of one key share list
        // elements and lists repeat one.
        _ => Value::string(*g.pick(&["", "x", "y", "a\\\"b\n", "é😀"])),
    }
}

fn arb_node(g: &mut Gen, depth: usize) -> Value {
    if depth == 0 || g.prob(0.4) {
        return arb_leaf(g);
    }
    match g.range(0, 3) {
        0 => Value::list(g.vec(0, 4, |g| arb_node(g, depth - 1))),
        1 => Value::list(g.vec(0, 2, |g| arb_map(g, depth - 1))),
        _ => arb_map(g, depth - 1),
    }
}

fn arb_map(g: &mut Gen, depth: usize) -> Value {
    let entries: BTreeMap<String, Value> = g
        .vec(0, 3, |g| ((*g.pick(&KEYS)).to_owned(), arb_node(g, depth)))
        .into_iter()
        .collect();
    Value::Map(entries)
}

/// A CRDT-flagged payload: mostly JSON documents, and every value
/// Algorithm 1 must leave opaque or route to a typed CRDT.
fn arb_payload(g: &mut Gen) -> Vec<u8> {
    let actor = *g.pick(&["alice", "bob"]);
    let n = g.range(0, 9);
    let text = match g.range(0, 16) {
        0 => format!(r#"{{"_crdt":"g-counter","counts":{{"{actor}":"{n}"}}}}"#),
        1 => format!(r#"{{"_crdt":"g-set","elements":["e{n}","common"]}}"#),
        2 => format!(r#"{{"_crdt":"lww","value":"v{n}","stamp":"{n}"}}"#),
        3 => format!(r#"{{"_crdt":"pn-counter","inc":{{"{actor}":"{n}"}},"dec":{{}}}}"#),
        // Tagged but malformed, or of no known type.
        4 => r#"{"_crdt":"g-counter","counts":"many"}"#.to_owned(),
        5 => format!(r#"{{"_crdt":{n}}}"#),
        // JSON, but not a map.
        6 => format!(r#"["r{n}"]"#),
        7 => format!(r#""s{n}""#),
        // Not JSON at all.
        8 => format!(r#"{{"readings":["r{n}""#),
        // The form Algorithm 1 converges a key written once to, so it
        // commits as it came: the conversion's own output, and a
        // document as `bigstate`'s chaincode builds it.
        9 | 10 => {
            let mut bytes = Vec::new();
            let _ = write_alone(&arb_map(g, 3), &mut bytes);
            return bytes;
        }
        11 => {
            let readings: Vec<String> = (0..n).map(|j| format!(r#""r{n}-{j}""#)).collect();
            format!(
                r#"{{"deviceID":"d{n}","readings":[{}]}}"#,
                readings.join(",")
            )
        }
        // JSON the parser takes that is not in that form.
        12 => arb_map(g, 3).to_pretty_string(),
        _ => return arb_map(g, 3).to_bytes(),
    };
    text.into_bytes()
}

fn tx(nonce: u64, rwset: ReadWriteSet) -> Transaction {
    let client = Identity::new("client", "org1");
    Transaction {
        id: TxId::derive(&client, nonce, "iot"),
        client,
        chaincode: "iot".into(),
        rwset,
        endorsements: Vec::new(),
    }
}

/// One block over a pool of shared keys (so some are written by several
/// transactions) and keys of their own (written once): CRDT writes of
/// every kind, plain read-modify-writes that may be stale, deletes of
/// keys others merge into, and pre-decided transactions. Returns the
/// block, the state it validates against and the pre-decided codes.
fn arb_block(g: &mut Gen) -> (Block, WorldState, Vec<Option<ValidationCode>>) {
    let shared: Vec<String> = (0..g.size(1, 6)).map(|k| format!("k{k}")).collect();
    let mut state = WorldState::new();
    for key in shared.iter().filter(|_| g.flip()) {
        state.put(
            key.clone(),
            br#"{"seeded":"1"}"#.to_vec(),
            Height::new(1, 0),
        );
    }
    let transactions: Vec<Transaction> = (0..g.size(1, 24) as u64)
        .map(|nonce| {
            let mut rwset = ReadWriteSet::new();
            for _ in 0..g.size(1, 3) {
                let key = if g.prob(0.4) {
                    format!("own-{nonce}-{}", g.range(0, 2))
                } else {
                    g.pick(&shared).clone()
                };
                match g.range(0, 10) {
                    0 | 1 => {
                        let version = g.flip().then(|| Height::new(g.range(0, 2), 0));
                        rwset.reads.record(key.clone(), version);
                        rwset.writes.put(key, nonce.to_be_bytes().to_vec());
                    }
                    2 => rwset.writes.delete(key),
                    _ => rwset.writes.put_crdt(key, arb_payload(g)),
                }
            }
            tx(nonce, rwset)
        })
        .collect();
    let pre = match g.range(0, 3) {
        0 => Vec::new(),
        _ => (0..transactions.len())
            .map(|_| match g.range(0, 8) {
                0 => Some(ValidationCode::EndorsementPolicyFailure),
                1 => Some(ValidationCode::DuplicateTxId),
                _ => None,
            })
            .collect(),
    };
    (Block::assemble(2, [0; 32], transactions), state, pre)
}

// ------------------------------------------------------ comparison

/// Runs `block` through both validators and asserts every output is
/// the oracle's. Returns how many writes took the as-is path: each key
/// that one merging transaction writes, in normal form, must commit its
/// own bytes and get no converged value in the commit record.
fn assert_same(block: &Block, state: &WorldState, pre: &[Option<ValidationCode>]) -> usize {
    let (new, old) = (CrdtValidator::new(), oracle::CrdtValidator::new());

    let (mut new_block, mut new_state) = (block.clone(), state.clone());
    let new_work = new.validate_and_commit(&mut new_block, &mut new_state, pre);
    let (mut old_block, mut old_state) = (block.clone(), state.clone());
    let old_work = old.validate_and_commit(&mut old_block, &mut old_state, pre);
    assert_eq!(new_block.validation_codes, old_block.validation_codes);
    // The oracle copies each converged value into every merged write;
    // the validator leaves the transactions as they came and commits
    // each write's value through the record.
    assert_eq!(new_block.transactions, block.transactions, "as endorsed");
    let old_writes = old_block
        .transactions
        .iter()
        .flat_map(|tx| tx.rwset.writes.iter());
    let all = new_block.transactions.iter().enumerate();
    let writes = all.flat_map(|(i, tx)| tx.rwset.writes.iter().map(move |w| (i, w)));
    for ((i, (key, entry)), (_, rewritten)) in writes.zip(old_writes) {
        assert_eq!(new_block.value_of(i, key, entry), rewritten.value, "{key}");
    }
    assert_eq!(new_state, old_state);
    assert_eq!(new_work, old_work);

    let merging = |i: usize| pre.get(i).copied().flatten().is_none();
    let crdt_values = |i: usize| {
        let writes = block.transactions[i].rwset.writes.iter();
        writes.filter(|(_, entry)| entry.is_crdt && !entry.is_delete)
    };
    let mut writers: BTreeMap<&str, usize> = BTreeMap::new();
    for i in (0..block.transactions.len()).filter(|&i| merging(i)) {
        for (key, _) in crdt_values(i) {
            *writers.entry(key).or_default() += 1;
        }
    }
    let converged: Vec<&str> = new_block.converged_values().map(|(k, _, _)| k).collect();
    let all = block.transactions.iter().enumerate();
    let mut as_is = 0;
    for (i, (key, entry)) in all.flat_map(|(i, tx)| tx.rwset.writes.iter().map(move |w| (i, w))) {
        let alone = merging(i) && entry.is_crdt && !entry.is_delete && writers[key.as_str()] == 1;
        if alone && alone_as_is(&entry.value).is_some() {
            assert!(!converged.contains(&key.as_str()), "{key} was converged");
            as_is += 1;
        }
    }
    as_is
}

#[test]
fn singleton_keys_converge_as_the_oracle_merges_them() {
    // ci.sh runs this in release at full count; the debug run is a sixth.
    let cases = if cfg!(debug_assertions) { 300 } else { 1_800 };
    let mut as_is = 0;
    gen::cases(cases, |g| {
        let (block, state, pre) = arb_block(g);
        as_is += assert_same(&block, &state, &pre);
    });
    assert!(as_is > 0, "no singleton was taken as it came");
}

/// `bigstate-pipelined`'s shape: 25 transactions, one 32-reading document
/// each, over many keys — nearly every key alone, one written twice.
#[test]
fn benchmark_block_of_singletons_merges_identically() {
    let document = |tx: u64| {
        let readings = (0..32).map(|j| format!(r#""r{tx}-{j}-0123456789abcdef""#));
        let readings: Vec<String> = readings.collect();
        format!(
            r#"{{"deviceID":"d{tx}","readings":[{}]}}"#,
            readings.join(",")
        )
    };
    let transactions = (0..25)
        .map(|nonce| {
            let mut rwset = ReadWriteSet::new();
            let key = format!("device-{}", nonce % 24);
            rwset.reads.record(key.clone(), None);
            rwset.writes.put_crdt(key, document(nonce).into_bytes());
            tx(nonce, rwset)
        })
        .collect();
    let block = Block::assemble(2, [0; 32], transactions);
    // Every key but the one written twice commits as it came.
    assert_eq!(assert_same(&block, &WorldState::new(), &[]), 23);
}
