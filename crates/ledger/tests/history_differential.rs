//! `Blockchain::history` against the per-key index a peer used to keep
//! beside its chain: a map from key to every committed modification,
//! filled block by block as each one committed. The oracle below is
//! that index, test-local. Both must agree on every key, over chains
//! from genesis and chains resumed at a snapshot base (where the index
//! only ever saw blocks at or above the base). Driven by
//! `fabriccrdt_sim::gen`.

use std::collections::{BTreeMap, BTreeSet};

use fabriccrdt_crypto::Identity;
use fabriccrdt_ledger::block::{Block, SealedBlock, ValidationCode};
use fabriccrdt_ledger::chain::{Blockchain, HistoryEntry};
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_sim::gen::{self, Gen};

/// The per-key history index, built from committed blocks.
#[derive(Default)]
struct Oracle {
    entries: BTreeMap<String, Vec<HistoryEntry>>,
}

impl Oracle {
    /// Appends every successful transaction's write set in block order.
    fn record_block(&mut self, block: &Block) {
        assert_eq!(
            block.validation_codes.len(),
            block.transactions.len(),
            "record_block requires a validated block"
        );
        for (tx_num, (tx, code)) in block
            .transactions
            .iter()
            .zip(&block.validation_codes)
            .enumerate()
        {
            if !code.is_success() {
                continue;
            }
            let height = Height::new(block.header.number, tx_num as u64);
            for (key, entry) in tx.rwset.writes.iter() {
                let value = (!entry.is_delete).then(|| entry.value.clone());
                self.entries
                    .entry(key.clone())
                    .or_default()
                    .push(HistoryEntry { height, value });
            }
        }
    }

    fn history(&self, key: &str) -> &[HistoryEntry] {
        self.entries.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

const CODES: [ValidationCode; 7] = [
    ValidationCode::Valid,
    ValidationCode::ValidMerged,
    ValidationCode::MvccConflict,
    ValidationCode::EndorsementPolicyFailure,
    ValidationCode::DuplicateTxId,
    ValidationCode::EarlyAborted,
    ValidationCode::TamperedBlock,
];

/// Four keys, so a block of a few transactions often writes one twice.
const KEYS: [&str; 4] = ["a", "b", "device-1", "device-10"];

fn arb_tx(g: &mut Gen, nonce: u64) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    for _ in 0..g.size(0, 3) {
        let key = *g.pick(&KEYS);
        let value = g.bytes(0, 9);
        match g.range(0, 4) {
            0 => rwset.writes.put_crdt(key, value),
            1 => rwset.writes.delete(key),
            _ => rwset.writes.put(key, value),
        }
    }
    Transaction {
        id: TxId::derive(&client, nonce, "cc"),
        client,
        chaincode: "cc".into(),
        rwset,
        endorsements: Vec::new(),
    }
}

/// What the generated runs covered, so a generator change that stops
/// reaching a shape fails here instead of passing quietly.
#[derive(Default)]
struct Coverage {
    failed_writes: u64,
    deletes: u64,
    key_twice_in_block: u64,
    empty_blocks: u64,
    resumed_chains: u64,
}

impl Coverage {
    fn note(&mut self, block: &Block) {
        self.empty_blocks += u64::from(block.transactions.is_empty());
        let mut writers: BTreeMap<&str, u64> = BTreeMap::new();
        for (tx, code) in block.transactions.iter().zip(&block.validation_codes) {
            for (key, entry) in tx.rwset.writes.iter() {
                if !code.is_success() {
                    self.failed_writes += 1;
                    continue;
                }
                self.deletes += u64::from(entry.is_delete);
                *writers.entry(key).or_default() += 1;
            }
        }
        self.key_twice_in_block += u64::from(writers.values().any(|&n| n >= 2));
    }
}

/// A from-genesis chain of `count` validated blocks (block 0 included),
/// some of them empty.
fn arb_chain(g: &mut Gen, count: u64, coverage: &mut Coverage) -> Blockchain {
    let mut chain = Blockchain::new();
    let mut nonce = 0;
    for number in 0..count {
        let txs = if g.prob(0.15) {
            Vec::new()
        } else {
            g.vec(1, 6, |g| {
                nonce += 1;
                arb_tx(g, nonce)
            })
        };
        let mut block = Block::assemble(number, chain.tip_hash(), txs);
        block.validation_codes = (0..block.transactions.len())
            .map(|_| {
                if g.prob(0.6) {
                    CODES[0]
                } else {
                    *g.pick(&CODES)
                }
            })
            .collect();
        coverage.note(&block);
        let sealed = SealedBlock::seal(block, chain.tip_hash());
        chain
            .append_sealed(sealed)
            .expect("each block extends the chain");
    }
    chain
}

/// Every key any block of `chain` writes, plus one no block writes.
fn written_keys(chain: &Blockchain) -> BTreeSet<String> {
    let mut keys: BTreeSet<String> = chain
        .iter()
        .flat_map(|b| &b.transactions)
        .flat_map(|tx| tx.rwset.writes.iter().map(|(k, _)| k.clone()))
        .collect();
    keys.insert("never-written".into());
    keys
}

fn assert_agrees(chain: &Blockchain, oracle: &Oracle, keys: &BTreeSet<String>) {
    for key in keys {
        assert_eq!(chain.history(key), oracle.history(key), "key {key:?}");
    }
}

#[test]
fn chain_history_matches_the_index() {
    let seeds = if cfg!(debug_assertions) { 150 } else { 900 };
    let mut coverage = Coverage::default();
    gen::cases(seeds, |g| {
        let count = g.range(1, 14);
        let full = arb_chain(g, count, &mut coverage);
        let mut oracle = Oracle::default();
        for block in full.iter() {
            oracle.record_block(block);
        }
        let keys = written_keys(&full);
        assert_agrees(&full, &oracle, &keys);

        // A chain resumed at a snapshot base holds the blocks from the
        // base up; the index sees exactly those. A key written only
        // below the base has no history there.
        let base = g.range(1, count + 1);
        let anchor = full.block(base - 1).expect("held").hash();
        let mut resumed = Blockchain::resume(base, anchor);
        let mut suffix_oracle = Oracle::default();
        for block in full.iter().filter(|b| b.header.number >= base) {
            suffix_oracle.record_block(block);
            resumed.append(block.clone()).expect("the suffix extends");
        }
        coverage.resumed_chains += u64::from(base < count);
        assert_agrees(&resumed, &suffix_oracle, &keys);
    });
    assert!(coverage.failed_writes > 0, "no failed write");
    assert!(coverage.deletes > 0, "no committed delete");
    assert!(
        coverage.key_twice_in_block > 0,
        "no key written twice in a block"
    );
    assert!(coverage.empty_blocks > 0, "no empty block");
    assert!(coverage.resumed_chains > 0, "no resumed chain with blocks");
}
