//! `reorder_batch`'s key-node graph against the pair graph it replaced.
//!
//! `oracle` is the parent commit's `reorder_batch` and `tarjan_scc`,
//! verbatim: one `BTreeSet` edge per (reader, writer) pair of every key,
//! Tarjan over transactions only, Kahn over pair indegrees. The rewrite
//! must return the same `ordered` and the same `aborted`, element for
//! element — the orderer cuts blocks from the first and reports the
//! second to clients in that order, so every simulated-time figure of
//! the `Reorder` and `Adaptive` policies hangs on both. Driven by
//! `fabriccrdt_sim::gen`.

use fabriccrdt_crypto::Identity;
use fabriccrdt_fabric::reorder::{reorder_batch, ReorderOutcome};
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_sim::gen::{self, Gen};

mod oracle {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

    use super::{ReorderOutcome, Transaction};

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
}

fn tx(nonce: u64, reads: &[&str], writes: &[&str]) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    for key in reads {
        rwset.reads.record(*key, Some(Height::new(1, 0)));
    }
    for key in writes {
        rwset.writes.put(*key, vec![nonce as u8]);
    }
    Transaction {
        id: TxId::derive(&client, nonce, "cc"),
        client,
        chaincode: "cc".into(),
        rwset,
        endorsements: Vec::new(),
    }
}

/// Batch positions of `txs`, read back from the nonce `tx` derived each
/// id from.
fn positions(batch: &[Transaction], txs: &[Transaction]) -> Vec<usize> {
    txs.iter()
        .map(|t| {
            batch
                .iter()
                .position(|b| b.id == t.id)
                .expect("a reordered transaction came from the batch")
        })
        .collect()
}

/// Runs both implementations on `batch`, asserts they agree on both
/// vectors, and returns the batch positions of (`ordered`, `aborted`).
fn agreed(batch: Vec<Transaction>) -> (Vec<usize>, Vec<usize>) {
    let expected = oracle::reorder_batch(batch.clone());
    let outcome = reorder_batch(batch.clone());
    let ordered = positions(&batch, &outcome.ordered);
    let aborted = positions(&batch, &outcome.aborted);
    assert_eq!(ordered, positions(&batch, &expected.ordered), "ordered");
    assert_eq!(aborted, positions(&batch, &expected.aborted), "aborted");
    (ordered, aborted)
}

/// Up to 120 transactions over up to 40 keys, 0-4 reads and 0-3 writes
/// each: read-only, write-only and read-modify-write transactions all
/// occur, and a small pool makes long cycles through several keys.
fn random_batch(g: &mut Gen) -> Vec<Transaction> {
    let pool: Vec<String> = (0..g.size(1, 40)).map(|k| format!("k{k}")).collect();
    (0..g.size(0, 120) as u64)
        .map(|nonce| {
            let reads = g.vec(0, 4, |g| g.pick(&pool).as_str());
            let writes = g.vec(0, 3, |g| g.pick(&pool).as_str());
            tx(nonce, &reads, &writes)
        })
        .collect()
}

#[test]
fn key_node_graph_equals_the_pair_graph() {
    // ci.sh runs this in release at full count; the debug run is a sixth.
    let cases = if cfg!(debug_assertions) { 1_000 } else { 6_000 };
    gen::cases(cases, |g| {
        agreed(random_batch(g));
    });
}

/// `t -> k -> t` is a cycle of the key-node graph and of nothing else.
#[test]
fn a_lone_read_modify_write_survives() {
    let batch = vec![tx(0, &["a"], &["b"]), tx(1, &["k"], &["k"])];
    assert_eq!(agreed(batch), (vec![0, 1], vec![]));
}

/// The paper's all-conflicting batch: one clique, smallest index kept,
/// the other 399 reported in batch order.
#[test]
fn four_hundred_read_modify_writes_of_one_key_keep_the_first() {
    let batch: Vec<Transaction> = (0..400).map(|i| tx(i, &["hot"], &["hot"])).collect();
    assert_eq!(agreed(batch), (vec![0], (1..400).collect()));
}

/// Readers `{t, r}` and writers `{t, w}` of one key: `t` waits for the
/// other reader only, `w` for both — `t` is released while the key still
/// counts one unemitted reader, `t` itself.
#[test]
fn a_surviving_read_modify_write_sits_between_reader_and_writer() {
    let (w, t, r) = (
        tx(0, &[], &["k"]),
        tx(1, &["k"], &["k"]),
        tx(2, &["k"], &[]),
    );
    assert_eq!(agreed(vec![w, t, r]), (vec![2, 1, 0], vec![]));
}

/// A key only read, or only written, constrains nothing.
#[test]
fn a_key_without_a_reader_or_without_a_writer_adds_no_edge() {
    let batch = vec![
        tx(0, &[], &["w"]),
        tx(1, &["r"], &["w"]),
        tx(2, &["r"], &[]),
        tx(3, &[], &["w"]),
    ];
    assert_eq!(agreed(batch), (vec![0, 1, 2, 3], vec![]));
}
