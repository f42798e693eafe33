//! The ordering service.
//!
//! The paper's deployment uses Kafka/ZooKeeper purely for total ordering
//! (§7.2, one orderer node); consensus internals are out of evaluation
//! scope. This orderer therefore models the part that matters to the
//! experiments: a single total order over incoming transactions and
//! Fabric's three block-cutting criteria (§3) — maximum transaction
//! count, maximum batch bytes, and a batch timeout measured from the
//! first transaction of the pending batch.

use fabriccrdt_crypto::Digest;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::transaction::Transaction;
use fabriccrdt_sim::time::SimTime;

use crate::config::{BlockCutConfig, OrderingPolicy};
use crate::conflict::{BlockFeedback, ConflictTracker, DENSITY_THRESHOLD};
use crate::metrics::ConflictPolicyMetrics;

/// Fabric's batch timeout, measured from the first transaction of the
/// pending batch (2 s in all the paper's experiments).
pub const BATCH_TIMEOUT: SimTime = SimTime::from_secs(2);

/// A timeout the caller must arm: fires at `at` for batch `batch_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutRequest {
    /// Absolute simulated time at which the timeout fires.
    pub at: SimTime,
    /// Identifies the batch; stale timeouts are ignored.
    pub batch_id: u64,
}

/// The ordering service.
///
/// Drive it with [`Orderer::receive`] per transaction and
/// [`Orderer::timeout_fired`] when an armed timeout elapses; both may
/// emit a cut block.
///
/// # Examples
///
/// ```no_run
/// use fabriccrdt_fabric::{config::BlockCutConfig, Orderer};
/// use fabriccrdt_sim::SimTime;
/// # let some_transaction: fabriccrdt_ledger::Transaction = unimplemented!();
///
/// let mut orderer = Orderer::new(BlockCutConfig::with_max_tx(2));
/// let (block, timeout) = orderer.receive(some_transaction, SimTime::ZERO);
/// assert!(block.is_none());        // batch not full yet
/// assert!(timeout.is_some());      // first tx arms the batch timeout
/// ```
#[derive(Debug)]
pub struct Orderer {
    config: BlockCutConfig,
    pending: Vec<Transaction>,
    pending_bytes: usize,
    batch_id: u64,
    next_block_number: u64,
    previous_hash: Digest,
    blocks_cut: u64,
    /// What happens at block cut: FIFO, unconditional Fabric++-style
    /// reordering (see [`crate::reorder`]), or conflict-density-gated
    /// adaptive reordering.
    policy: OrderingPolicy,
    /// Decayed per-key conflict heat, fed back from finalize results
    /// via [`Orderer::observe_finalized`]. Only consulted (and only
    /// updated) under [`OrderingPolicy::Adaptive`].
    tracker: ConflictTracker,
    /// Policy decision counters since construction.
    stats: ConflictPolicyMetrics,
    /// Transactions early-aborted by the policy since the last drain.
    early_aborted: Vec<Transaction>,
}

impl Orderer {
    /// Creates an orderer with the given cutting rules.
    pub fn new(config: BlockCutConfig) -> Self {
        Orderer::with_policy(config, OrderingPolicy::Fifo)
    }

    /// Creates an orderer with an explicit [`OrderingPolicy`].
    pub fn with_policy(config: BlockCutConfig, policy: OrderingPolicy) -> Self {
        assert!(config.max_tx_count > 0, "block size must be positive");
        // Block 0 is the genesis block every peer starts from; ordered
        // transaction blocks begin at 1 and chain onto it.
        let genesis = Block::genesis();
        Orderer {
            config,
            pending: Vec::new(),
            pending_bytes: 0,
            batch_id: 0,
            next_block_number: 1,
            previous_hash: genesis.hash(),
            blocks_cut: 0,
            policy,
            tracker: ConflictTracker::new(),
            stats: ConflictPolicyMetrics::default(),
            early_aborted: Vec::new(),
        }
    }

    /// Creates an orderer that resumes cutting on top of an existing
    /// chain position: the next cut block gets `next_block_number` and
    /// chains onto `previous_hash`. A freshly elected Raft leader uses
    /// this to continue numbering and hash-chaining from the tail of
    /// its replicated log; under the adaptive policy it pairs this with
    /// [`Orderer::install_tracker`] to inherit the cluster's replicated
    /// conflict heat.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_tx_count` is zero or `next_block_number`
    /// is zero (block 0 is the genesis block).
    pub fn resuming(
        config: BlockCutConfig,
        policy: OrderingPolicy,
        next_block_number: u64,
        previous_hash: Digest,
    ) -> Self {
        assert!(next_block_number > 0, "block 0 is the genesis block");
        let mut orderer = Orderer::with_policy(config, policy);
        orderer.next_block_number = next_block_number;
        orderer.previous_hash = previous_hash;
        orderer
    }

    /// The orderer's cut policy.
    pub fn policy(&self) -> OrderingPolicy {
        self.policy
    }

    /// Feeds a committed block's validation outcome back into the
    /// conflict tracker. No-op unless the policy is
    /// [`OrderingPolicy::Adaptive`] — FIFO and unconditional reordering
    /// never consult the tracker, and skipping the update keeps them
    /// byte-identical to their pre-tracker behaviour.
    pub fn observe_finalized(&mut self, feedback: &BlockFeedback) {
        if self.policy.is_adaptive() {
            self.tracker.observe(feedback);
        }
    }

    /// Read access to the conflict tracker (adaptive policy state).
    pub fn tracker(&self) -> &ConflictTracker {
        &self.tracker
    }

    /// Replaces the conflict tracker wholesale. A new Raft leader
    /// installs the cluster-maintained tracker so adaptive decisions
    /// survive failover instead of restarting cold.
    pub fn install_tracker(&mut self, tracker: ConflictTracker) {
        self.tracker = tracker;
    }

    /// Policy decision counters accumulated since construction.
    pub fn policy_stats(&self) -> ConflictPolicyMetrics {
        let mut stats = self.stats;
        stats.tracked_keys = self.tracker.tracked_keys() as u64;
        stats
    }

    /// Drains the policy decision counters (the Raft cluster harvests
    /// them from deposed leaders into a cluster-wide accumulator).
    pub fn take_policy_stats(&mut self) -> ConflictPolicyMetrics {
        let mut stats = std::mem::take(&mut self.stats);
        stats.tracked_keys = self.tracker.tracked_keys() as u64;
        stats
    }

    /// Drains the transactions early-aborted by the cut policy since
    /// the last call (always empty under [`OrderingPolicy::Fifo`]).
    pub fn take_early_aborted(&mut self) -> Vec<Transaction> {
        std::mem::take(&mut self.early_aborted)
    }

    /// Number of transactions waiting in the current batch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Total blocks cut so far.
    pub fn blocks_cut(&self) -> u64 {
        self.blocks_cut
    }

    /// Enqueues a transaction at time `now`.
    ///
    /// Returns a block if a cutting rule fired, plus a timeout request to
    /// arm when this transaction *started a new batch*.
    pub fn receive(
        &mut self,
        tx: Transaction,
        now: SimTime,
    ) -> (Option<Block>, Option<TimeoutRequest>) {
        let started_batch = self.pending.is_empty();
        // A `usize` sink counts: the stored length, nothing encoded.
        tx.write_bytes(&mut self.pending_bytes);
        self.pending.push(tx);

        let timeout = started_batch.then(|| TimeoutRequest {
            at: now + BATCH_TIMEOUT,
            batch_id: self.batch_id,
        });

        let cut = self.pending.len() >= self.config.max_tx_count
            || self.pending_bytes >= self.config.max_bytes;
        let block = cut.then(|| self.cut());
        (block, timeout)
    }

    /// Reacts to an armed timeout. Returns a block when the timeout is
    /// still current and transactions are pending; stale timeouts (the
    /// batch was already cut) return `None`.
    pub fn timeout_fired(&mut self, timeout: TimeoutRequest) -> Option<Block> {
        if timeout.batch_id != self.batch_id || self.pending.is_empty() {
            return None;
        }
        Some(self.cut())
    }

    /// Cuts the pending batch into a block.
    fn cut(&mut self) -> Block {
        let mut transactions = std::mem::take(&mut self.pending);
        let reorder = match self.policy {
            OrderingPolicy::Fifo => false,
            OrderingPolicy::Reorder => true,
            // Until the first finalize feedback arrives the tracker
            // cannot distinguish cold traffic from hot, so the bootstrap
            // batches pay the reordering cost rather than risk shipping
            // a conflict clique FIFO; the first feedback round either
            // proves the traffic cold (the gate opens and batches cut
            // FIFO) or confirms the heat.
            OrderingPolicy::Adaptive => {
                let hot = self.tracker.blocks_observed() == 0
                    || self.tracker.batch_conflict_density(&transactions) >= DENSITY_THRESHOLD;
                if !hot {
                    self.stats.batches_fifo += 1;
                }
                hot
            }
        };
        if reorder {
            let outcome = crate::reorder::reorder_batch(transactions);
            transactions = outcome.ordered;
            self.stats.batches_reordered += 1;
            self.stats.cycle_aborts += outcome.aborted.len() as u64;
            // Reordering converts would-be MVCC conflicts into early
            // aborts that never reach finalize feedback; the adaptive
            // tracker records them here so the keys stay hot and the
            // density gate does not oscillate open and shut.
            if self.policy.is_adaptive() {
                self.tracker.observe_aborts(&outcome.aborted);
            }
            self.early_aborted.extend(outcome.aborted);
        }
        self.pending_bytes = 0;
        self.batch_id += 1;
        let block = Block::assemble(self.next_block_number, self.previous_hash, transactions);
        self.previous_hash = block.hash();
        self.next_block_number += 1;
        self.blocks_cut += 1;
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_crypto::Identity;
    use fabriccrdt_ledger::rwset::ReadWriteSet;
    use fabriccrdt_ledger::transaction::TxId;

    fn tx(n: u64) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        rwset.writes.put(format!("k{n}"), vec![0u8; 16]);
        Transaction {
            id: TxId::derive(&client, n, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        }
    }

    fn cfg(max_tx: usize) -> BlockCutConfig {
        BlockCutConfig::with_max_tx(max_tx)
    }

    #[test]
    fn cuts_at_max_tx_count() {
        let mut o = Orderer::new(cfg(3));
        assert!(o.receive(tx(1), SimTime::ZERO).0.is_none());
        assert!(o.receive(tx(2), SimTime::ZERO).0.is_none());
        let (block, _) = o.receive(tx(3), SimTime::ZERO);
        let block = block.unwrap();
        assert_eq!(block.len(), 3);
        assert_eq!(block.header.number, 1); // block 0 is genesis
        assert_eq!(o.pending_len(), 0);
        assert_eq!(o.blocks_cut(), 1);
    }

    #[test]
    fn first_tx_arms_timeout() {
        let mut o = Orderer::new(cfg(10));
        let (_, timeout) = o.receive(tx(1), SimTime::from_millis(100));
        let timeout = timeout.unwrap();
        assert_eq!(
            timeout.at,
            SimTime::from_millis(100) + SimTime::from_secs(2)
        );
        assert_eq!(timeout.batch_id, 0);
        // Second tx of the same batch does not arm another timeout.
        let (_, none) = o.receive(tx(2), SimTime::from_millis(200));
        assert!(none.is_none());
    }

    #[test]
    fn timeout_cuts_partial_batch() {
        let mut o = Orderer::new(cfg(10));
        let (_, timeout) = o.receive(tx(1), SimTime::ZERO);
        assert!(o.receive(tx(2), SimTime::from_millis(1)).0.is_none());
        let block = o.timeout_fired(timeout.unwrap()).unwrap();
        assert_eq!(block.len(), 2);
    }

    #[test]
    fn stale_timeout_ignored() {
        let mut o = Orderer::new(cfg(2));
        let (_, timeout) = o.receive(tx(1), SimTime::ZERO);
        let (block, _) = o.receive(tx(2), SimTime::ZERO); // cut by count
        assert!(block.is_some());
        assert!(o.timeout_fired(timeout.unwrap()).is_none());
    }

    #[test]
    fn timeout_with_empty_batch_ignored() {
        let mut o = Orderer::new(cfg(2));
        let (_, timeout) = o.receive(tx(1), SimTime::ZERO);
        let _ = o.receive(tx(2), SimTime::ZERO);
        // New batch never started; old timeout is stale AND empty.
        assert!(o.timeout_fired(timeout.unwrap()).is_none());
    }

    #[test]
    fn blocks_chain_by_hash() {
        let mut o = Orderer::new(cfg(1));
        let (b1, _) = o.receive(tx(1), SimTime::ZERO);
        let (b2, _) = o.receive(tx(2), SimTime::ZERO);
        let (b1, b2) = (b1.unwrap(), b2.unwrap());
        assert_eq!(b1.header.number, 1);
        assert_eq!(b2.header.number, 2);
        assert_eq!(b1.header.previous_hash, Block::genesis().hash());
        assert_eq!(b2.header.previous_hash, b1.hash());
        // And they append cleanly to a chain started at genesis.
        let mut chain = fabriccrdt_ledger::chain::Blockchain::new();
        chain.append(Block::genesis()).unwrap();
        chain.append(b1).unwrap();
        chain.append(b2).unwrap();
        chain.verify_integrity().unwrap();
    }

    #[test]
    fn byte_limit_cuts_block() {
        let mut config = cfg(1000);
        config.max_bytes = 200; // tiny: a couple of transactions
        let mut o = Orderer::new(config);
        let mut cut_at = None;
        for i in 0..10 {
            if let (Some(block), _) = o.receive(tx(i), SimTime::ZERO) {
                cut_at = Some((i, block.len()));
                break;
            }
        }
        let (i, len) = cut_at.expect("byte limit should cut");
        assert!(len >= 1 && len as u64 == i + 1);
    }

    /// The byte rule weighs exactly the stored encoding: a limit
    /// equal to the first three transactions' `to_bytes()` cuts at the
    /// third, one byte more cuts at the fourth, and the count restarts
    /// with the next batch.
    #[test]
    fn byte_limit_weighs_the_canonical_encoding() {
        let first_three: usize = (1..=3).map(|n| tx(n).to_bytes().len()).sum();
        for (max_bytes, cut_at) in [(first_three, 3), (first_three + 1, 4)] {
            let mut config = cfg(1000);
            config.max_bytes = max_bytes;
            let mut o = Orderer::new(config);
            for round in 0..2 {
                for n in 1..=cut_at {
                    let (block, _) = o.receive(tx(round * 4 + n), SimTime::ZERO);
                    assert_eq!(block.is_some(), n == cut_at, "limit {max_bytes}, tx {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_panics() {
        Orderer::new(cfg(0));
    }

    // Timeout-bookkeeping regression suite: a `timeout_fired` arriving
    // after a size-triggered cut (a stale `TimeoutRequest` the caller
    // still has armed) must never cut an empty or duplicate block, no
    // matter what arrived in between.

    #[test]
    fn stale_timeout_mid_next_batch_cuts_nothing() {
        let mut o = Orderer::new(cfg(2));
        let (_, stale) = o.receive(tx(1), SimTime::ZERO);
        let stale = stale.unwrap();
        let (cut, _) = o.receive(tx(2), SimTime::from_millis(1)); // size cut
        assert!(cut.is_some());
        // A new batch is already open when the stale timeout fires: it
        // must not cut that batch early (that would duplicate the cut
        // the *new* batch's own timeout performs later).
        let (_, fresh) = o.receive(tx(3), SimTime::from_millis(2));
        assert!(o.timeout_fired(stale).is_none());
        assert_eq!(o.pending_len(), 1, "stale timeout must not touch the batch");
        // The new batch's own timeout still cuts exactly once.
        let block = o.timeout_fired(fresh.unwrap()).unwrap();
        assert_eq!(block.len(), 1);
        assert_eq!(block.header.number, 2);
        assert_eq!(o.blocks_cut(), 2);
    }

    #[test]
    fn timeout_armed_by_the_cutting_receive_is_stale() {
        // With max_tx = 1 a single receive both arms a timeout (the tx
        // started a batch) and cuts the batch; the armed request is
        // born stale and must never fire a second, empty block.
        let mut o = Orderer::new(cfg(1));
        let (block, timeout) = o.receive(tx(1), SimTime::ZERO);
        assert!(block.is_some());
        let timeout = timeout.unwrap();
        assert!(o.timeout_fired(timeout).is_none());
        assert_eq!(o.blocks_cut(), 1);
        // Even once a later batch is pending, the old request stays stale.
        let (block2, _) = o.receive(tx(2), SimTime::from_millis(5));
        assert!(block2.is_some());
        assert!(o.timeout_fired(timeout).is_none());
        assert_eq!(o.blocks_cut(), 2);
    }

    #[test]
    fn double_fired_timeout_cuts_once() {
        let mut o = Orderer::new(cfg(10));
        let (_, timeout) = o.receive(tx(1), SimTime::ZERO);
        let timeout = timeout.unwrap();
        assert!(o.timeout_fired(timeout).is_some());
        // The same request delivered again (duplicated event) is stale.
        assert!(o.timeout_fired(timeout).is_none());
        assert_eq!(o.blocks_cut(), 1);
    }

    #[test]
    fn resuming_continues_numbering_and_chaining() {
        let mut first = Orderer::new(cfg(1));
        let (b1, _) = first.receive(tx(1), SimTime::ZERO);
        let b1 = b1.unwrap();
        // A successor (new Raft leader) resumes from the log tail.
        let mut second = Orderer::resuming(cfg(1), OrderingPolicy::Fifo, 2, b1.hash());
        let (b2, _) = second.receive(tx(2), SimTime::from_millis(1));
        let b2 = b2.unwrap();
        assert_eq!(b2.header.number, 2);
        assert_eq!(b2.header.previous_hash, b1.hash());
        let mut chain = fabriccrdt_ledger::chain::Blockchain::new();
        chain.append(Block::genesis()).unwrap();
        chain.append(b1).unwrap();
        chain.append(b2).unwrap();
        chain.verify_integrity().unwrap();
    }

    #[test]
    #[should_panic(expected = "genesis")]
    fn resuming_at_genesis_number_panics() {
        Orderer::resuming(cfg(1), OrderingPolicy::Fifo, 0, Block::genesis().hash());
    }

    fn rmw(n: u64, key: &str) -> Transaction {
        use fabriccrdt_ledger::version::Height;
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        rwset.reads.record(key, Some(Height::new(1, 0)));
        rwset.writes.put(key.to_string(), vec![0u8; 16]);
        Transaction {
            id: TxId::derive(&client, n, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        }
    }

    #[test]
    fn adaptive_bootstraps_reordering_then_cold_feedback_cuts_fifo() {
        let mut o = Orderer::with_policy(cfg(3), OrderingPolicy::Adaptive);
        // No feedback yet: the bootstrap batch pays the reordering cost
        // rather than risk shipping a conflict clique FIFO — the RMW
        // clique on one key collapses to a single survivor.
        let _ = o.receive(rmw(1, "hot"), SimTime::ZERO);
        let _ = o.receive(rmw(2, "hot"), SimTime::ZERO);
        let (block, _) = o.receive(rmw(3, "hot"), SimTime::ZERO);
        assert_eq!(block.unwrap().len(), 1);
        assert_eq!(o.take_early_aborted().len(), 2);
        assert_eq!(o.policy_stats().batches_reordered, 1);
        // Conflict-free finalize feedback proves the traffic cold; the
        // density gate opens and subsequent batches ship FIFO intact
        // even though the bootstrap aborts left some residual heat.
        for _ in 0..4 {
            o.observe_finalized(&BlockFeedback::default());
        }
        let _ = o.receive(rmw(4, "k4"), SimTime::ZERO);
        let _ = o.receive(rmw(5, "k5"), SimTime::ZERO);
        let (block, _) = o.receive(rmw(6, "k6"), SimTime::ZERO);
        assert_eq!(block.unwrap().len(), 3);
        assert!(o.take_early_aborted().is_empty());
        let stats = o.policy_stats();
        assert_eq!(stats.batches_fifo, 1);
        assert_eq!(stats.batches_reordered, 1);
    }

    #[test]
    fn adaptive_reorders_once_conflicts_accumulate() {
        let mut o = Orderer::with_policy(cfg(3), OrderingPolicy::Adaptive);
        // Finalize feedback reports repeated MVCC conflicts on "hot".
        for _ in 0..4 {
            o.observe_finalized(&BlockFeedback {
                conflicts: vec!["hot".into(), "hot".into()],
            });
        }
        assert!(o.tracker().heat("hot") >= crate::conflict::HOT_KEY_THRESHOLD);
        // The next hot batch trips the density gate: an RMW clique on a
        // single key is one big SCC, so all but one transaction aborts.
        let _ = o.receive(rmw(1, "hot"), SimTime::ZERO);
        let _ = o.receive(rmw(2, "hot"), SimTime::ZERO);
        let (block, _) = o.receive(rmw(3, "hot"), SimTime::ZERO);
        assert_eq!(block.unwrap().len(), 1);
        assert_eq!(o.take_early_aborted().len(), 2);
        let stats = o.policy_stats();
        assert_eq!(stats.batches_reordered, 1);
        assert_eq!(stats.cycle_aborts, 2);
    }

    #[test]
    fn fifo_and_reorder_policies_never_touch_the_tracker() {
        for policy in [OrderingPolicy::Fifo, OrderingPolicy::Reorder] {
            let mut o = Orderer::with_policy(cfg(10), policy);
            o.observe_finalized(&BlockFeedback {
                conflicts: vec!["b".into()],
            });
            assert_eq!(o.tracker().tracked_keys(), 0);
        }
    }

    #[test]
    fn install_tracker_carries_heat_across_orderers() {
        let mut first = Orderer::with_policy(cfg(3), OrderingPolicy::Adaptive);
        for _ in 0..4 {
            first.observe_finalized(&BlockFeedback {
                conflicts: vec!["hot".into(), "hot".into()],
            });
        }
        // Failover: the successor inherits the tracker and keeps the
        // density gate open without relearning.
        let mut second =
            Orderer::resuming(cfg(3), OrderingPolicy::Adaptive, 5, Block::genesis().hash());
        second.install_tracker(first.tracker().clone());
        let _ = second.receive(rmw(1, "hot"), SimTime::ZERO);
        let _ = second.receive(rmw(2, "hot"), SimTime::ZERO);
        let (block, _) = second.receive(rmw(3, "hot"), SimTime::ZERO);
        let block = block.unwrap();
        assert_eq!(block.header.number, 5);
        assert_eq!(block.len(), 1);
        assert_eq!(second.policy_stats().batches_reordered, 1);
    }
}
