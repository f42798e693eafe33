//! Transaction reordering at the orderer — the Fabric++ baseline.
//!
//! The FabricCRDT paper's related work (§8) discusses Sharma et al.
//! ("Blurring the Lines Between Blockchains and Database Systems",
//! SIGMOD 2019): *"They decrease the number of conflicting transactions
//! by improving the order of the transactions in the ordering service
//! according to a dependency graph. Although they show that reordering
//! is a practical approach for decreasing transaction failures, they do
//! not aim for the total elimination of failures, as FabricCRDT does."*
//!
//! This module implements that baseline so the two approaches can be
//! compared head-to-head (see the `ablation` experiment of `bench`):
//!
//! 1. Build the intra-batch conflict graph: a transaction that reads a
//!    key must be ordered *before* every other transaction that writes
//!    it for both to pass MVCC validation. A key's readers and writers
//!    form a complete bipartite block, so the key is a node of its own,
//!    `reader → key → writer`: one edge per read and per write, not one
//!    per (reader, writer) pair.
//! 2. Transactions on a dependency cycle can never all commit; break
//!    cycles by **early-aborting** every transaction of a strongly
//!    connected component except the one with the smallest index
//!    (read-modify-write transactions on a hot key form exactly such
//!    cliques, which is why reordering cannot rescue the paper's
//!    all-conflicting workload — FabricCRDT can). Key nodes never
//!    count: a lone read-modify-write, `t → key → t`, survives.
//! 3. Emit the survivors in a topological order (deterministic: Kahn's
//!    algorithm with an index-ordered frontier). A key counts down its
//!    unemitted readers and lets a writer go once the readers *other
//!    than that writer* are out: at zero, or at one when the reader left
//!    is the writer itself. After step 2 at most one survivor both reads
//!    and writes a key (two would be a cycle), so no case is left.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use fabriccrdt_ledger::transaction::Transaction;

/// Result of reordering one batch.
#[derive(Debug)]
pub struct ReorderOutcome {
    /// Survivors, in an order where every reader of a key precedes every
    /// (other) writer of that key.
    pub ordered: Vec<Transaction>,
    /// Early-aborted transactions (conflict-cycle members).
    pub aborted: Vec<Transaction>,
}

/// Reorders a batch of transactions to minimize intra-block MVCC
/// conflicts, early-aborting unsalvageable cycles. The batch is taken
/// apart, so a block's shared list is copied out first; the generic is
/// kept for `perf/`, which hands over `block.transactions` (DESIGN.md
/// §4.16).
pub fn reorder_batch(transactions: impl Into<Vec<Transaction>>) -> ReorderOutcome {
    let transactions = transactions.into();
    let txs = transactions.len();
    let (offsets, targets) = conflict_graph(&transactions);
    let successors = |node: usize| &targets[offsets[node]..offsets[node + 1]];
    let aborted = cycle_aborts(txs, &offsets, &targets);
    let survivors = || (0..txs).filter(|&t| !aborted[t]);

    // Per key, its surviving readers not yet emitted: how many, and the
    // sum of their indices — at one, the sum names the reader.
    let mut readers = vec![(0usize, 0usize); offsets.len() - 1];
    for t in survivors() {
        for &key in successors(t) {
            readers[key] = (readers[key].0 + 1, readers[key].1 + t);
        }
    }
    // Per survivor, the keys it writes that have yet to let it go.
    let mut held_by = vec![0usize; txs];
    for (key, &(count, sum)) in readers.iter().enumerate().skip(txs) {
        for &w in successors(key) {
            if !aborted[w] && (count > 1 || (count == 1 && sum != w)) {
                held_by[w] += 1;
            }
        }
    }
    // Kahn's algorithm over the survivors, smallest index first for
    // determinism.
    let mut frontier = BinaryHeap::new();
    frontier.extend(survivors().filter(|&t| held_by[t] == 0).map(Reverse));
    let mut order = Vec::with_capacity(txs);
    while let Some(Reverse(t)) = frontier.pop() {
        order.push(t);
        for &key in successors(t) {
            readers[key] = (readers[key].0 - 1, readers[key].1 - t);
            let (count, last) = readers[key];
            if count > 1 {
                continue;
            }
            // At one the key lets go of the reader left, if it writes;
            // at zero of every writer but `t`, which went at one.
            for &w in successors(key) {
                let goes = if count == 1 { w == last } else { w != t };
                if goes && !aborted[w] {
                    held_by[w] -= 1;
                    if held_by[w] == 0 {
                        frontier.push(Reverse(w));
                    }
                }
            }
        }
    }
    debug_assert_eq!(order.len(), survivors().count(), "survivors are acyclic");

    // Materialize, preserving the original Transaction values; what the
    // order leaves behind is the aborted set, in batch order.
    let mut slots: Vec<Option<Transaction>> = transactions.into_iter().map(Some).collect();
    let ordered = order.into_iter().filter_map(|t| slots[t].take()).collect();
    let aborted = slots.into_iter().flatten().collect();
    ReorderOutcome { ordered, aborted }
}

/// The graph as one edge array: nodes `0..n` are the batch's
/// transactions, the rest its keys, and `targets[offsets[v]..offsets[v + 1]]`
/// are the keys transaction `v` reads or the transactions that write
/// key `v`.
fn conflict_graph(transactions: &[Transaction]) -> (Vec<usize>, Vec<usize>) {
    let txs = transactions.len();
    // Keys become nodes in order of first appearance, so nothing depends
    // on the map's iteration order.
    let mut key_nodes: HashMap<&str, usize> = HashMap::new();
    let mut node_of = |key| {
        let next = txs + key_nodes.len();
        *key_nodes.entry(key).or_insert(next)
    };
    let mut edges = Vec::new();
    for (t, tx) in transactions.iter().enumerate() {
        for (key, _) in tx.rwset.reads.iter() {
            edges.push((t, node_of(key.as_str())));
        }
        for (key, _) in tx.rwset.writes.iter() {
            edges.push((node_of(key.as_str()), t));
        }
    }
    // Counting sort by source node.
    let mut offsets = vec![0; txs + key_nodes.len() + 1];
    for &(from, _) in &edges {
        offsets[from + 1] += 1;
    }
    for node in 1..offsets.len() {
        offsets[node] += offsets[node - 1];
    }
    let mut next = offsets.clone();
    let mut targets = vec![0; edges.len()];
    for (from, to) in edges {
        targets[next[from]] = to;
        next[from] += 1;
    }
    (offsets, targets)
}

/// Iterative Tarjan; marks every node of a strongly connected component
/// but its smallest (the marks on keys mean nothing). A key is reachable
/// only from a reader, so the transactions are all the roots there are.
fn cycle_aborts(txs: usize, offsets: &[usize], targets: &[usize]) -> Vec<bool> {
    const UNVISITED: usize = usize::MAX;
    let nodes = offsets.len() - 1;
    // A node's lowlink is the least index it reaches on the stack; a
    // node popped with its component reaches none, and says so with a
    // lowlink no `min` will take.
    let (mut index, mut lowlink) = (vec![UNVISITED; nodes], vec![0usize; nodes]);
    let mut visited = 0;
    let mut aborted = vec![false; nodes];
    // Explicit DFS state: the stack of open nodes, and per call a node
    // and its cursor into `targets`.
    let (mut stack, mut frames) = (Vec::new(), Vec::new());
    for root in 0..txs {
        if index[root] == UNVISITED {
            frames.push((root, offsets[root]));
        }
        while let Some(frame) = frames.last_mut() {
            let (node, cursor) = *frame;
            if index[node] == UNVISITED {
                (index[node], lowlink[node]) = (visited, visited);
                visited += 1;
                stack.push(node);
            }
            if cursor < offsets[node + 1] {
                let next = targets[cursor];
                if index[next] == UNVISITED {
                    // Descend; the cursor stays, so the return reads
                    // `next`'s lowlink below.
                    frames.push((next, offsets[next]));
                } else {
                    frame.1 += 1;
                    lowlink[node] = lowlink[node].min(lowlink[next]);
                }
                continue;
            }
            // Node finished.
            frames.pop();
            if lowlink[node] == index[node] {
                // Keys are numbered after transactions, so the smallest
                // member is a transaction if the component holds one.
                let mut keep = node;
                while let Some(member) = stack.pop() {
                    lowlink[member] = usize::MAX;
                    aborted[member] = true;
                    keep = keep.min(member);
                    if member == node {
                        break;
                    }
                }
                aborted[keep] = false;
            }
        }
    }
    aborted
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_crypto::Identity;
    use fabriccrdt_ledger::rwset::ReadWriteSet;
    use fabriccrdt_ledger::transaction::TxId;
    use fabriccrdt_ledger::version::Height;

    fn tx(n: u64, reads: &[&str], writes: &[&str]) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        for key in reads {
            rwset.reads.record(*key, Some(Height::new(1, 0)));
        }
        for key in writes {
            rwset.writes.put(*key, vec![n as u8]);
        }
        Transaction {
            id: TxId::derive(&client, n, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        }
    }

    fn nonces(txs: &[Transaction]) -> Vec<u8> {
        txs.iter()
            .map(|t| {
                t.rwset
                    .writes
                    .iter()
                    .next()
                    .map(|(_, e)| e.value[0])
                    .unwrap_or(255)
            })
            .collect()
    }

    #[test]
    fn disjoint_transactions_unchanged() {
        let batch = vec![
            tx(0, &["a"], &["a"]),
            tx(1, &["b"], &["b"]),
            tx(2, &[], &["c"]),
        ];
        let outcome = reorder_batch(batch);
        assert!(outcome.aborted.is_empty());
        assert_eq!(nonces(&outcome.ordered), [0, 1, 2]);
    }

    #[test]
    fn readers_move_before_writers() {
        // Writer of k first, two readers of k after: vanilla order fails
        // both readers; reordering puts readers first, all commit.
        let batch = vec![
            tx(0, &[], &["k"]),     // writer
            tx(1, &["k"], &["p1"]), // reader
            tx(2, &["k"], &["p2"]), // reader
        ];
        let outcome = reorder_batch(batch);
        assert!(outcome.aborted.is_empty());
        let order = nonces(&outcome.ordered);
        let writer_pos = order.iter().position(|&n| n == 0).unwrap();
        assert_eq!(writer_pos, 2, "writer last: {order:?}");
    }

    #[test]
    fn rmw_cycle_aborts_all_but_one() {
        // Three read-modify-write transactions on one hot key form a
        // conflict clique; only one can survive.
        let batch = vec![
            tx(0, &["hot"], &["hot"]),
            tx(1, &["hot"], &["hot"]),
            tx(2, &["hot"], &["hot"]),
        ];
        let outcome = reorder_batch(batch);
        assert_eq!(outcome.ordered.len(), 1);
        assert_eq!(outcome.aborted.len(), 2);
        // Deterministic survivor: smallest index.
        assert_eq!(nonces(&outcome.ordered), [0]);
    }

    #[test]
    fn two_key_cycle_broken() {
        // T0 reads a writes b; T1 reads b writes a: cycle of length 2.
        let batch = vec![tx(0, &["a"], &["b"]), tx(1, &["b"], &["a"])];
        let outcome = reorder_batch(batch);
        assert_eq!(outcome.ordered.len(), 1);
        assert_eq!(outcome.aborted.len(), 1);
    }

    #[test]
    fn chain_orders_topologically() {
        // T0 reads a (written by T1); T1 reads b (written by T2):
        // valid order is T0, T1, T2.
        let batch = vec![
            tx(2, &[], &["b"]),
            tx(0, &["a"], &["p0"]),
            tx(1, &["b"], &["a"]),
        ];
        let outcome = reorder_batch(batch);
        assert!(outcome.aborted.is_empty());
        assert_eq!(nonces(&outcome.ordered), [0, 1, 2]);
    }

    #[test]
    fn empty_and_singleton_batches() {
        assert!(reorder_batch(vec![]).ordered.is_empty());
        let one = reorder_batch(vec![tx(0, &["k"], &["k"])]);
        assert_eq!(one.ordered.len(), 1);
        assert!(one.aborted.is_empty());
    }

    #[test]
    fn deterministic() {
        let make = || {
            vec![
                tx(0, &["a"], &["b"]),
                tx(1, &["b"], &["c"]),
                tx(2, &["c"], &["a"]),
                tx(3, &["a"], &["p"]),
                tx(4, &[], &["a"]),
            ]
        };
        let x = reorder_batch(make());
        let y = reorder_batch(make());
        assert_eq!(nonces(&x.ordered), nonces(&y.ordered));
        assert_eq!(x.aborted.len(), y.aborted.len());
    }

    /// Reordered batches really do commit more under MVCC.
    #[test]
    fn reordering_improves_mvcc_outcomes() {
        use fabriccrdt_ledger::block::Block;
        use fabriccrdt_ledger::mvcc;
        use fabriccrdt_ledger::worldstate::WorldState;

        let batch = || {
            vec![
                tx(0, &[], &["k"]),
                tx(1, &["k"], &["p1"]),
                tx(2, &["k"], &["p2"]),
                tx(3, &["k"], &["p3"]),
            ]
        };
        let seed = |state: &mut WorldState| {
            state.put("k".into(), b"v".to_vec(), Height::new(1, 0));
        };

        // Vanilla order: writer first invalidates all three readers.
        let mut state = WorldState::new();
        seed(&mut state);
        let mut block = Block::assemble(2, [0; 32], batch());
        let vanilla = mvcc::validate_and_commit(&mut block, &mut state, &[], false);

        // Reordered: readers first, everyone commits.
        let mut state = WorldState::new();
        seed(&mut state);
        let outcome = reorder_batch(batch());
        let mut block = Block::assemble(2, [0; 32], outcome.ordered);
        let reordered = mvcc::validate_and_commit(&mut block, &mut state, &[], false);

        assert_eq!(vanilla.successes, 1);
        assert_eq!(reordered.successes, 4);
    }
}
