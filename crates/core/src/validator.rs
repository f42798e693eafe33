//! Algorithm 1: `ValidateMergeBlock`.
//!
//! The FabricCRDT committing path. For each block:
//!
//! 1. **First pass** (lines 3–14): walk every transaction's write set;
//!    CRDT-flagged pairs skip MVCC validation and are merged — per key —
//!    into a JSON CRDT instantiated empty for this block
//!    (`InitEmptyCRDT`). Because the chaincode model is
//!    read-modify-write, each transaction's value carries the committed
//!    document content, so content-addressed merging both deduplicates
//!    the common prefix and preserves every divergent update (the "no
//!    update loss" requirement, §4.2).
//! 2. **MVCC on non-CRDT transactions** (line 15): plain pairs validate
//!    exactly as on Fabric.
//! 3. **Second pass** (lines 16–22): every merged CRDT pair commits the
//!    converged document, converted back to plain JSON with all CRDT
//!    metadata cleaned up — after this pass, conflicting transactions of
//!    the same key commit identical write values (paper Listing 2). The
//!    value goes once into the block's commit record, with the indices of
//!    the transactions that commit it ([`Block::set_converged`], ledger
//!    format v3); the transactions stay as endorsed.
//!
//! Transactions that failed earlier stages (endorsement policy,
//! duplicate id) are excluded from merging — only *valid* transactions'
//! updates survive, per the paper's definition of valid (§4.2).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use fabriccrdt_fabric::cost::ValidationWork;
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_jsoncrdt::doc::{alone_as_is, write_alone};
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::{JsonCrdt, ReplicaId};
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::mvcc;
use fabriccrdt_ledger::rwset::WriteEntry;
use fabriccrdt_ledger::transaction::Transaction;
use fabriccrdt_ledger::worldstate::WorldState;

use crate::types::TypedCrdt;

/// Per-key merge state during a block's first pass: either the generic
/// JSON-document CRDT of the paper's prototype, or one of the typed
/// CRDTs of [`crate::types`] (the paper's future-work extension).
enum KeyMerger {
    /// A key's first JSON document: written once, it needs no CRDT.
    Alone(Value),
    Json(JsonCrdt),
    Typed(TypedCrdt),
}

impl KeyMerger {
    fn converged_bytes(&mut self, extra_units: &mut u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        match self {
            KeyMerger::Alone(value) => {
                // The merge into the empty CRDT, counted now, and the
                // conversion's walk over every operation it applied.
                let work = write_alone(value, &mut bytes).unwrap_or_default();
                *extra_units += work.units() + work.ops_applied;
                bytes
            }
            KeyMerger::Json(doc) => {
                // Conversion walks the whole document once.
                *extra_units += doc.applied_len() as u64;
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

/// The FabricCRDT block validator (Algorithm 1).
///
/// Plug into [`fabriccrdt_fabric::Simulation`] in place of
/// [`fabriccrdt_fabric::validator::FabricValidator`] to turn the network
/// into FabricCRDT.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrdtValidator;

impl CrdtValidator {
    /// Creates the validator.
    pub fn new() -> Self {
        CrdtValidator
    }

    /// Algorithm 1's first pass (lines 3–14) over `txs` — `(block
    /// index, transaction)` pairs in ascending block order: folds CRDT
    /// write values into per-key mergers, recording the indices that
    /// participated (only those commit the converged value, so values that
    /// failed to parse or mismatched the key's established type commit
    /// opaquely, in block order, instead of being clobbered).
    ///
    /// Each key's merger starts from a fresh [`JsonCrdt`]
    /// (`InitEmptyCRDT`), so its operation-id sequence depends only on
    /// that key's payload sequence in block order; a key written once
    /// skips it ([`write_alone`]: same bytes, same work), and is not even
    /// parsed when its bytes are already what that would write
    /// ([`alone_as_is`]): it keeps them, so it joins no merger.
    fn merge_pass<'a>(
        &self,
        txs: impl Iterator<Item = (usize, &'a Transaction)> + Clone,
        merge_units: &mut u64,
        merge_quad: &mut u64,
    ) -> BTreeMap<String, (KeyMerger, Vec<usize>)> {
        let mut writers: BTreeMap<&str, usize> = BTreeMap::new();
        for (key, _) in txs.clone().flat_map(|(_, tx)| crdt_writes(tx)) {
            *writers.entry(key).or_default() += 1;
        }
        let mut crdts: BTreeMap<String, (KeyMerger, Vec<usize>)> = BTreeMap::new();
        for (i, tx) in txs {
            for (key, entry) in crdt_writes(tx) {
                if writers[key.as_str()] == 1 {
                    if let Some(work) = alone_as_is(&entry.value) {
                        // What `KeyMerger::Alone` counts; line 22 would
                        // write these very bytes back.
                        *merge_units += work.units() + work.ops_applied;
                        continue;
                    }
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
                            Entry::Vacant(slot) => {
                                *merge_units += typed.work_units();
                                slot.insert((KeyMerger::Typed(typed), vec![i]));
                            }
                            Entry::Occupied(mut slot) => {
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
                    None => match crdts.entry(key.clone()) {
                        Entry::Vacant(slot) => {
                            slot.insert((KeyMerger::Alone(value), vec![i]));
                        }
                        Entry::Occupied(mut slot) => {
                            let (merger, members) = slot.get_mut();
                            if let KeyMerger::Alone(first) = merger {
                                // A second document: merge the first now.
                                // Every peer merges a block in the same
                                // order and a converged value carries no
                                // operation ids, so one replica id serves.
                                let mut doc = JsonCrdt::new(ReplicaId(1));
                                *merge_units += doc.merge_value(first).unwrap_or_default().units();
                                *merger = KeyMerger::Json(doc);
                            }
                            if let KeyMerger::Json(doc) = merger {
                                let ops_before = doc.applied_len() as u64;
                                if let Ok(work) = doc.merge_value(&value) {
                                    *merge_units += work.units();
                                    // Superlinear apply-cost term: merging
                                    // into earlier transactions' operations
                                    // costs more (fabriccrdt-fabric::cost).
                                    *merge_quad += work.units() * ops_before;
                                    members.push(i);
                                }
                            }
                        }
                    },
                }
            }
        }
        crdts
    }
}

/// `tx`'s CRDT value writes (line 14: every other pair, deletes
/// included, is handled as a non-CRDT pair).
fn crdt_writes(tx: &Transaction) -> impl Iterator<Item = (&String, &WriteEntry)> {
    tx.rwset
        .writes
        .iter()
        .filter(|(_, entry)| entry.is_crdt && !entry.is_delete)
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
        let crdts = self.merge_pass(
            block
                .transactions
                .iter()
                .enumerate()
                // Only endorsement-valid transactions merge.
                .filter(|&(i, _)| !decided(i)),
            &mut merge_units,
            &mut merge_quad,
        );

        // ----- Second pass: every member commits the converged,
        // metadata-free state (lines 16–22), held once in the commit
        // record beside the transactions (ledger format v3).
        for (key, (mut merger, members)) in crdts {
            let bytes = merger.converged_bytes(&mut merge_units);
            block.set_converged(key, bytes, members);
        }

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

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_crypto::Identity;
    use fabriccrdt_jsoncrdt::json::Value;
    use fabriccrdt_ledger::rwset::ReadWriteSet;
    use fabriccrdt_ledger::transaction::{Transaction, TxId};
    use fabriccrdt_ledger::version::Height;

    fn tx(nonce: u64, build: impl FnOnce(&mut ReadWriteSet)) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        build(&mut rwset);
        Transaction {
            id: TxId::derive(&client, nonce, "iot"),
            client,
            chaincode: "iot".into(),
            rwset,
            endorsements: Vec::new(),
        }
    }

    fn stored_json(state: &WorldState, key: &str) -> Value {
        Value::from_bytes(state.value(key).expect("key present")).expect("valid JSON")
    }

    /// Paper Listing 1 → Listing 2.
    #[test]
    fn merge_listing_example() {
        let tx1 = tx(1, |rw| {
            rw.reads.record("Device1", None);
            rw.writes.put_crdt(
                "Device1",
                br#"{"deviceID":"Device1","readings":["51.0","49.5"]}"#.to_vec(),
            );
        });
        let tx2 = tx(2, |rw| {
            rw.reads.record("Device1", None);
            rw.writes.put_crdt(
                "Device1",
                br#"{"deviceID":"Device1","readings":["50.0"]}"#.to_vec(),
            );
        });
        let mut block = Block::assemble(0, [0; 32], vec![tx1, tx2]);
        let mut state = WorldState::new();
        let work = CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);

        assert_eq!(work.successes, 2);
        assert!(block
            .validation_codes
            .iter()
            .all(|c| *c == ValidationCode::ValidMerged));

        // Listing 2: both write-sets now commit the identical merged
        // value, which the commit record holds once.
        let w1 = block.transactions[0].rwset.writes.get("Device1").unwrap();
        let w2 = block.transactions[1].rwset.writes.get("Device1").unwrap();
        assert_ne!(w1.value, w2.value, "the transactions stay as endorsed");
        assert_eq!(
            block.value_of(0, "Device1", w1),
            block.value_of(1, "Device1", w2)
        );
        let members: Vec<&[usize]> = block.converged_values().map(|(_, _, m)| m).collect();
        assert_eq!(members, [&[0, 1][..]]);

        let merged = stored_json(&state, "Device1");
        assert_eq!(merged.get("deviceID").unwrap().as_str(), Some("Device1"));
        let readings = merged.get("readings").unwrap().as_list().unwrap();
        assert_eq!(readings.len(), 3);
    }

    #[test]
    fn all_conflicting_crdt_transactions_commit() {
        let mut state = WorldState::new();
        state.put(
            "doc".into(),
            br#"{"readings":[]}"#.to_vec(),
            Height::new(1, 0),
        );
        let stale = Height::new(0, 0); // everyone read a stale version
        let txs: Vec<Transaction> = (0..20)
            .map(|n| {
                tx(n, |rw| {
                    rw.reads.record("doc", Some(stale));
                    rw.writes
                        .put_crdt("doc", format!(r#"{{"readings":["r{n}"]}}"#).into_bytes());
                })
            })
            .collect();
        let mut block = Block::assemble(2, [0; 32], txs);
        let work = CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        assert_eq!(work.successes, 20);
        let merged = stored_json(&state, "doc");
        assert_eq!(merged.get("readings").unwrap().as_list().unwrap().len(), 20);
    }

    #[test]
    fn read_modify_write_accumulates_across_blocks() {
        let mut state = WorldState::new();
        let mut committed = Value::parse(r#"{"readings":[]}"#).unwrap();
        // Three "blocks", two conflicting transactions each, every
        // transaction re-submitting the committed doc plus one reading —
        // the paper's IoT chaincode pattern.
        for block_no in 0..3u64 {
            let txs: Vec<Transaction> = (0..2)
                .map(|j| {
                    let mut doc = committed.clone();
                    let list = doc
                        .as_map_mut()
                        .unwrap()
                        .get_mut("readings")
                        .unwrap()
                        .as_list_mut()
                        .unwrap();
                    list.push(Value::string(format!("b{block_no}-t{j}")));
                    tx(block_no * 10 + j, |rw| {
                        rw.reads.record("doc", None);
                        rw.writes.put_crdt("doc", doc.to_bytes());
                    })
                })
                .collect();
            let mut block = Block::assemble(block_no, [0; 32], txs);
            let work = CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
            assert_eq!(work.successes, 2);
            committed = stored_json(&state, "doc");
        }
        // 3 blocks × 2 divergent readings, common prefixes deduplicated.
        let readings = committed.get("readings").unwrap().as_list().unwrap();
        assert_eq!(readings.len(), 6, "{committed}");
    }

    #[test]
    fn non_crdt_transactions_still_validate_mvcc() {
        let mut state = WorldState::new();
        state.put("plain".into(), b"0".to_vec(), Height::new(1, 0));
        let stale = Height::new(0, 0);
        let crdt = tx(1, |rw| {
            rw.reads.record("doc", None);
            rw.writes.put_crdt("doc", br#"{"a":"1"}"#.to_vec());
        });
        let plain_conflicting = tx(2, |rw| {
            rw.reads.record("plain", Some(stale));
            rw.writes.put("plain", b"1".to_vec());
        });
        let plain_fine = tx(3, |rw| {
            rw.reads.record("plain", Some(Height::new(1, 0)));
            rw.writes.put("plain", b"2".to_vec());
        });
        let mut block = Block::assemble(2, [0; 32], vec![crdt, plain_conflicting, plain_fine]);
        CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        assert_eq!(
            block.validation_codes,
            vec![
                ValidationCode::ValidMerged,
                ValidationCode::MvccConflict,
                ValidationCode::Valid,
            ]
        );
        assert_eq!(state.value("plain"), Some(&b"2"[..]));
    }

    #[test]
    fn endorsement_failed_transactions_do_not_merge() {
        let tx_bad = tx(1, |rw| {
            rw.writes
                .put_crdt("doc", br#"{"readings":["evil"]}"#.to_vec());
        });
        let tx_good = tx(2, |rw| {
            rw.writes
                .put_crdt("doc", br#"{"readings":["good"]}"#.to_vec());
        });
        let mut block = Block::assemble(0, [0; 32], vec![tx_bad, tx_good]);
        let mut state = WorldState::new();
        let pre = vec![Some(ValidationCode::EndorsementPolicyFailure), None];
        let work = CrdtValidator::new().validate_and_commit(&mut block, &mut state, &pre);
        assert_eq!(work.successes, 1);
        let merged = stored_json(&state, "doc");
        let readings = merged.get("readings").unwrap().as_list().unwrap();
        assert_eq!(readings.len(), 1);
        assert_eq!(readings[0].as_str(), Some("good"));
    }

    #[test]
    fn unparsable_crdt_value_commits_opaquely() {
        let tx1 = tx(1, |rw| {
            rw.reads.record("k", Some(Height::new(0, 0))); // stale
            rw.writes.put_crdt("k", b"not json".to_vec());
        });
        let mut block = Block::assemble(0, [0; 32], vec![tx1]);
        let mut state = WorldState::new();
        state.put("k".into(), b"x".to_vec(), Height::new(1, 0));
        let work = CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        // Still commits (CRDT flag skips MVCC), value stays opaque.
        assert_eq!(work.successes, 1);
        assert_eq!(state.value("k"), Some(&b"not json"[..]));
    }

    #[test]
    fn merge_work_scales_with_block_size() {
        let run = |n: u64| {
            let txs: Vec<Transaction> = (0..n)
                .map(|i| {
                    tx(i, |rw| {
                        rw.writes
                            .put_crdt("doc", format!(r#"{{"readings":["r{i}"]}}"#).into_bytes());
                    })
                })
                .collect();
            let mut block = Block::assemble(0, [0; 32], txs);
            let mut state = WorldState::new();
            CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[])
        };
        let small = run(5);
        let large = run(50);
        assert!(large.merge_units > small.merge_units);
        // The quadratic term grows super-linearly in block size.
        assert!(large.merge_quad > small.merge_quad * 50);
    }

    #[test]
    fn deterministic_merge_across_validators() {
        let build = || {
            let txs: Vec<Transaction> = (0..8)
                .map(|i| {
                    tx(i, |rw| {
                        rw.writes.put_crdt(
                            "doc",
                            format!(r#"{{"k{i}":"v","l":["i{i}"]}}"#).into_bytes(),
                        );
                    })
                })
                .collect();
            let mut block = Block::assemble(0, [0; 32], txs);
            let mut state = WorldState::new();
            CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
            state.value("doc").unwrap().to_vec()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn validator_name() {
        assert_eq!(CrdtValidator::new().name(), "fabriccrdt");
    }

    #[test]
    fn mixed_write_set_commits_all_kinds() {
        // A single CRDT transaction that merges one key, writes a plain
        // key and deletes another: all three effects commit (the CRDT
        // flag makes the whole transaction skip MVCC, §4.3).
        let mut state = WorldState::new();
        state.put("gone".into(), b"old".to_vec(), Height::new(1, 0));
        let t = tx(1, |rw| {
            rw.reads.record("doc", Some(Height::new(0, 0))); // stale
            rw.writes.put_crdt("doc", br#"{"readings":["r"]}"#.to_vec());
            rw.writes.put("plain", b"p".to_vec());
            rw.writes.delete("gone");
        });
        let mut block = Block::assemble(2, [0; 32], vec![t]);
        let work = CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        assert_eq!(work.successes, 1);
        assert_eq!(block.validation_codes, vec![ValidationCode::ValidMerged]);
        assert!(stored_json(&state, "doc").get("readings").is_some());
        assert_eq!(state.value("plain"), Some(&b"p"[..]));
        assert!(state.value("gone").is_none());
    }

    #[test]
    fn crdt_delete_pair_is_not_merged() {
        // A delete on a CRDT-keyed entry is handled as a plain delete
        // (Algorithm 1 only merges CRDT *values*); a concurrent CRDT
        // write of the same key in the same block still merges and,
        // being applied per write-set in block order, the outcome is
        // deterministic.
        let t1 = tx(1, |rw| {
            rw.writes.put_crdt("doc", br#"{"a":"1"}"#.to_vec());
        });
        let t2 = tx(2, |rw| {
            rw.writes.put_crdt("other", br#"{"b":"2"}"#.to_vec());
            rw.writes.delete("doc");
        });
        let mut block = Block::assemble(1, [0; 32], vec![t1, t2]);
        let mut state = WorldState::new();
        let work = CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        assert_eq!(work.successes, 2);
        // t2's delete lands after t1's write in block order.
        assert!(state.value("doc").is_none());
        assert!(state.value("other").is_some());
    }

    #[test]
    fn typed_g_counter_values_merge_by_counter_semantics() {
        // Three actors concurrently bump a shared usage counter (the
        // data-metering use case of §6): per-actor counts merge by max,
        // the committed value is the sum.
        let txs: Vec<Transaction> = [("alice", 3u64), ("bob", 4), ("carol", 5)]
            .iter()
            .enumerate()
            .map(|(n, (actor, count))| {
                tx(n as u64, |rw| {
                    rw.reads.record("meter", None);
                    rw.writes.put_crdt(
                        "meter",
                        format!(r#"{{"_crdt":"g-counter","counts":{{"{actor}":"{count}"}}}}"#)
                            .into_bytes(),
                    );
                })
            })
            .collect();
        let mut block = Block::assemble(1, [0; 32], txs);
        let mut state = WorldState::new();
        let work = CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        assert_eq!(work.successes, 3);
        let committed = stored_json(&state, "meter");
        assert_eq!(committed.get("value").unwrap().as_str(), Some("12"));
        // All three write sets converged to the identical envelope.
        let values: Vec<_> = block
            .transactions
            .iter()
            .enumerate()
            .map(|(i, t)| block.value_of(i, "meter", t.rwset.writes.get("meter").unwrap()))
            .collect();
        assert_eq!(values[0], values[1]);
        assert_eq!(values[1], values[2]);
    }

    #[test]
    fn typed_counter_accumulates_across_blocks_rmw() {
        let mut state = WorldState::new();
        // Block 1: alice writes her count.
        let t1 = tx(1, |rw| {
            rw.writes.put_crdt(
                "meter",
                br#"{"_crdt":"g-counter","counts":{"alice":"2"}}"#.to_vec(),
            );
        });
        let mut b1 = Block::assemble(1, [0; 32], vec![t1]);
        CrdtValidator::new().validate_and_commit(&mut b1, &mut state, &[]);

        // Block 2: bob reads the committed envelope, adds his count, and
        // re-submits the whole state (read-modify-write).
        let committed = stored_json(&state, "meter");
        let mut counts = committed.get("counts").unwrap().clone();
        counts.insert("bob", Value::string("9"));
        let mut envelope = Value::empty_map();
        envelope.insert("_crdt", Value::string("g-counter"));
        envelope.insert("counts", counts);
        let t2 = tx(2, |rw| {
            rw.reads.record("meter", None);
            rw.writes.put_crdt("meter", envelope.to_bytes());
        });
        let mut b2 = Block::assemble(2, [0; 32], vec![t2]);
        CrdtValidator::new().validate_and_commit(&mut b2, &mut state, &[]);

        let final_state = stored_json(&state, "meter");
        assert_eq!(final_state.get("value").unwrap().as_str(), Some("11"));
    }

    #[test]
    fn typed_g_set_union_across_transactions() {
        let txs: Vec<Transaction> = (0..4)
            .map(|n| {
                tx(n, |rw| {
                    rw.writes.put_crdt(
                        "tags",
                        format!(r#"{{"_crdt":"g-set","elements":["tag{n}","common"]}}"#)
                            .into_bytes(),
                    );
                })
            })
            .collect();
        let mut block = Block::assemble(1, [0; 32], txs);
        let mut state = WorldState::new();
        CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        let committed = stored_json(&state, "tags");
        let elements = committed.get("elements").unwrap().as_list().unwrap();
        assert_eq!(elements.len(), 5); // tag0..tag3 + common (deduplicated)
    }

    #[test]
    fn type_mismatch_within_block_keeps_first_type() {
        let t_counter = tx(1, |rw| {
            rw.writes
                .put_crdt("k", br#"{"_crdt":"g-counter","counts":{"a":"1"}}"#.to_vec());
        });
        let t_set = tx(2, |rw| {
            rw.writes
                .put_crdt("k", br#"{"_crdt":"g-set","elements":["x"]}"#.to_vec());
        });
        let mut block = Block::assemble(1, [0; 32], vec![t_counter, t_set]);
        let mut state = WorldState::new();
        let work = CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        // Both still commit (CRDT flag skips MVCC); the mismatching set
        // value is opaque and, being later in block order, wins the
        // world state — deterministically on every peer.
        assert_eq!(work.successes, 2);
        let committed = stored_json(&state, "k");
        assert_eq!(committed.get("_crdt").unwrap().as_str(), Some("g-set"));
        // The counter transaction commits its key's counter value, not
        // the set.
        let counter_value =
            block.value_of(0, "k", block.transactions[0].rwset.writes.get("k").unwrap());
        let parsed = Value::from_bytes(counter_value).unwrap();
        assert_eq!(parsed.get("_crdt").unwrap().as_str(), Some("g-counter"));
    }

    #[test]
    fn typed_lww_register_resolves_by_stamp() {
        let t1 = tx(1, |rw| {
            rw.writes.put_crdt(
                "cfg",
                br#"{"_crdt":"lww","value":"v2","stamp":"20"}"#.to_vec(),
            );
        });
        let t2 = tx(2, |rw| {
            rw.writes.put_crdt(
                "cfg",
                br#"{"_crdt":"lww","value":"v1","stamp":"10"}"#.to_vec(),
            );
        });
        let mut block = Block::assemble(1, [0; 32], vec![t1, t2]);
        let mut state = WorldState::new();
        CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
        let committed = stored_json(&state, "cfg");
        // The higher stamp wins even though it came first in block order.
        assert_eq!(committed.get("value").unwrap().as_str(), Some("v2"));
    }
}
