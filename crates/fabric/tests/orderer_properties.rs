//! Randomized property tests for the ordering service: no transaction
//! is lost or duplicated across cut blocks, block sizes respect the
//! configured maximum, and numbering/hash-chaining stay consistent —
//! for both the vanilla and the reordering orderer — and the adaptive
//! orderer with its gate open takes the reordering orderer's path.
//! Driven by the deterministic in-repo generator (`fabriccrdt_sim::gen`).

use fabriccrdt_crypto::Identity;
use fabriccrdt_fabric::config::{BlockCutConfig, OrderingPolicy};
use fabriccrdt_fabric::metrics::ConflictPolicyMetrics;
use fabriccrdt_fabric::orderer::Orderer;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::chain::Blockchain;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_sim::gen;
use fabriccrdt_sim::time::SimTime;

fn tx(nonce: u64, read_key: Option<u8>, write_key: u8) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    if let Some(k) = read_key {
        rwset.reads.record(format!("k{k}"), Some(Height::new(1, 0)));
    }
    rwset.writes.put(format!("k{write_key}"), vec![nonce as u8]);
    Transaction {
        id: TxId::derive(&client, nonce, "cc"),
        client,
        chaincode: "cc".into(),
        rwset,
        endorsements: Vec::new(),
    }
}

/// Drives an orderer over a transaction stream, flushing stragglers via
/// the timeout, and returns the cut blocks plus early aborts.
fn drive(orderer: &mut Orderer, txs: Vec<Transaction>) -> (Vec<Block>, Vec<Transaction>) {
    let mut blocks = Vec::new();
    let mut last_timeout = None;
    for (i, tx) in txs.into_iter().enumerate() {
        let (block, timeout) = orderer.receive(tx, SimTime::from_millis(i as u64));
        if let Some(t) = timeout {
            last_timeout = Some(t);
        }
        blocks.extend(block);
    }
    if let Some(t) = last_timeout {
        blocks.extend(orderer.timeout_fired(t));
    }
    let aborted = orderer.take_early_aborted();
    (blocks, aborted)
}

/// Conservation: every submitted transaction appears exactly once —
/// either in a cut block or (reordering only) in the early-abort set.
/// Block sizes never exceed the maximum; numbering is sequential; blocks
/// chain onto genesis.
#[test]
fn orderer_conserves_transactions() {
    gen::cases(128, |g| {
        let n = g.size(1, 59);
        let max_tx = g.size(1, 11);
        let reorder = g.flip();
        let keys: Vec<(Option<u8>, u8)> = g.vec(60, 60, |g| {
            let read = if g.flip() {
                Some(g.range(0, 4) as u8)
            } else {
                None
            };
            (read, g.range(0, 4) as u8)
        });
        let config = BlockCutConfig::with_max_tx(max_tx);
        let policy = if reorder {
            OrderingPolicy::Reorder
        } else {
            OrderingPolicy::Fifo
        };
        let mut orderer = Orderer::with_policy(config, policy);
        let txs: Vec<Transaction> = (0..n)
            .map(|i| {
                let (read, write) = keys[i % keys.len()];
                tx(i as u64, read, write)
            })
            .collect();
        let submitted: std::collections::BTreeSet<TxId> = txs.iter().map(|t| t.id).collect();

        let (blocks, aborted) = drive(&mut orderer, txs);

        let mut seen = std::collections::BTreeSet::new();
        for block in &blocks {
            assert!(block.len() <= max_tx, "block over size");
            for t in &block.transactions {
                assert!(seen.insert(t.id), "duplicate {:?}", t.id.short());
            }
        }
        for t in &aborted {
            assert!(seen.insert(t.id), "aborted duplicate");
        }
        assert_eq!(seen, submitted);
        if !reorder {
            assert!(aborted.is_empty());
        }

        // Blocks append cleanly onto a genesis-rooted chain.
        let mut chain = Blockchain::new();
        chain.append(Block::genesis()).unwrap();
        for block in blocks {
            chain.append(block).unwrap();
        }
        chain.verify_integrity().unwrap();
    });
}

/// The vanilla orderer preserves arrival order within and across blocks
/// (FIFO total order).
#[test]
fn vanilla_orderer_is_fifo() {
    gen::cases(128, |g| {
        let n = g.size(1, 49);
        let max_tx = g.size(1, 9);
        let mut orderer = Orderer::new(BlockCutConfig::with_max_tx(max_tx));
        let txs: Vec<Transaction> = (0..n).map(|i| tx(i as u64, None, 0)).collect();
        let order_in: Vec<TxId> = txs.iter().map(|t| t.id).collect();
        let (blocks, _) = drive(&mut orderer, txs);
        let order_out: Vec<TxId> = blocks
            .iter()
            .flat_map(|b| b.transactions.iter().map(|t| t.id))
            .collect();
        assert_eq!(order_in, order_out);
    });
}

/// Before any finalize feedback the adaptive orderer's gate is open, so
/// it takes the one reorder path the `Reorder` policy takes: the same
/// blocks, the same early aborts and the same decision counters. Only
/// its tracker differs, heated by the aborts it saw.
#[test]
fn adaptive_before_feedback_cuts_what_reorder_cuts() {
    let mut aborts = 0;
    gen::cases(128, |g| {
        let n = g.size(1, 59);
        let config = BlockCutConfig::with_max_tx(g.size(1, 11));
        let txs: Vec<Transaction> = (0..n)
            .map(|i| {
                let read = g.flip().then(|| g.range(0, 4) as u8);
                tx(i as u64, read, g.range(0, 4) as u8)
            })
            .collect();
        let mut reorder = Orderer::with_policy(config, OrderingPolicy::Reorder);
        let mut adaptive = Orderer::with_policy(config, OrderingPolicy::Adaptive);
        let reordered = drive(&mut reorder, txs.clone());
        assert_eq!(drive(&mut adaptive, txs), reordered);
        let stats = adaptive.policy_stats();
        assert_eq!(
            ConflictPolicyMetrics {
                tracked_keys: 0,
                ..stats
            },
            reorder.policy_stats()
        );
        assert_eq!(stats.batches_fifo, 0);
        assert_eq!(stats.cycle_aborts, reordered.1.len() as u64);
        assert_eq!(stats.tracked_keys > 0, !reordered.1.is_empty());
        aborts += reordered.1.len();
    });
    assert!(aborts > 0, "the streams make conflict cycles");
}
