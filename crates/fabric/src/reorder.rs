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
//! 1. Build the intra-batch conflict graph: an edge `R → W` whenever
//!    transaction `R` reads a key that transaction `W` writes — `R` must
//!    be ordered *before* `W` for both to pass MVCC validation.
//! 2. Transactions on a dependency cycle can never all commit; break
//!    cycles by **early-aborting** every member of a non-trivial
//!    strongly connected component except its smallest-index
//!    representative (read-modify-write transactions on a hot key form
//!    exactly such cliques, which is why reordering cannot rescue the
//!    paper's all-conflicting workload — FabricCRDT can).
//! 3. Emit the survivors in a topological order of the condensed graph
//!    (deterministic: Kahn's algorithm with an index-ordered frontier).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

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
/// conflicts, early-aborting unsalvageable cycles.
pub fn reorder_batch(transactions: Vec<Transaction>) -> ReorderOutcome {
    let n = transactions.len();
    if n <= 1 {
        return ReorderOutcome {
            ordered: transactions,
            aborted: Vec::new(),
        };
    }

    // Key → reader/writer transaction indices.
    let mut readers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut writers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, tx) in transactions.iter().enumerate() {
        for (key, _) in tx.rwset.reads.iter() {
            readers.entry(key).or_default().push(i);
        }
        for (key, _) in tx.rwset.writes.iter() {
            writers.entry(key).or_default().push(i);
        }
    }

    // Dependency edges: reader → writer (reader first).
    let mut successors: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (key, reader_list) in &readers {
        if let Some(writer_list) = writers.get(key) {
            for &r in reader_list {
                for &w in writer_list {
                    if r != w {
                        successors[r].insert(w);
                    }
                }
            }
        }
    }

    // Strongly connected components (iterative Tarjan).
    let components = tarjan_scc(&successors);

    // Abort all but the smallest-index member of each non-trivial SCC.
    // A single node with a self-loop cannot occur (edges exclude r == w).
    let mut aborted_flags = vec![false; n];
    for component in &components {
        if component.len() > 1 {
            let keep = *component.iter().min().expect("nonempty SCC");
            for &member in component {
                if member != keep {
                    aborted_flags[member] = true;
                }
            }
        }
    }

    // Kahn's algorithm over the surviving subgraph, smallest index first
    // for determinism.
    let mut indegree = vec![0usize; n];
    for (from, succs) in successors.iter().enumerate() {
        if aborted_flags[from] {
            continue;
        }
        for &to in succs {
            if !aborted_flags[to] {
                indegree[to] += 1;
            }
        }
    }
    let mut frontier: BinaryHeap<Reverse<usize>> = (0..n)
        .filter(|&i| !aborted_flags[i] && indegree[i] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(i)) = frontier.pop() {
        order.push(i);
        for &to in &successors[i] {
            if aborted_flags[to] {
                continue;
            }
            indegree[to] -= 1;
            if indegree[to] == 0 {
                frontier.push(Reverse(to));
            }
        }
    }
    debug_assert_eq!(
        order.len(),
        aborted_flags.iter().filter(|a| !**a).count(),
        "survivor graph is acyclic after SCC breaking"
    );

    // Materialize, preserving the original Transaction values.
    let mut slots: Vec<Option<Transaction>> = transactions.into_iter().map(Some).collect();
    let ordered = order
        .into_iter()
        .map(|i| slots[i].take().expect("each index used once"))
        .collect();
    let aborted = slots.into_iter().flatten().collect();
    ReorderOutcome { ordered, aborted }
}

/// Iterative Tarjan SCC; returns components in reverse topological
/// order (irrelevant here — only membership is used).
fn tarjan_scc(successors: &[BTreeSet<usize>]) -> Vec<Vec<usize>> {
    let n = successors.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Explicit DFS state: (node, iterator position over successors).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call_stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        let succ_list: Vec<usize> = successors[root].iter().copied().collect();
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call_stack.push((root, succ_list, 0));

        while let Some((node, succs, mut pos)) = call_stack.pop() {
            let mut descended = false;
            while pos < succs.len() {
                let next = succs[pos];
                pos += 1;
                if index[next] == usize::MAX {
                    // Descend.
                    index[next] = next_index;
                    lowlink[next] = next_index;
                    next_index += 1;
                    stack.push(next);
                    on_stack[next] = true;
                    call_stack.push((node, succs, pos));
                    let next_succs: Vec<usize> = successors[next].iter().copied().collect();
                    call_stack.push((next, next_succs, 0));
                    descended = true;
                    break;
                } else if on_stack[next] {
                    lowlink[node] = lowlink[node].min(index[next]);
                }
            }
            if descended {
                continue;
            }
            // Node finished.
            if lowlink[node] == index[node] {
                let mut component = Vec::new();
                loop {
                    let member = stack.pop().expect("tarjan stack nonempty");
                    on_stack[member] = false;
                    component.push(member);
                    if member == node {
                        break;
                    }
                }
                components.push(component);
            }
            if let Some((parent, _, _)) = call_stack.last() {
                lowlink[*parent] = lowlink[*parent].min(lowlink[node]);
            }
        }
    }
    components
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
