//! `WorldState` against a `BTreeMap` oracle, and the structural-sharing
//! promises no oracle can see: an old root is unchanged after a new one
//! is written, a write through a clone copies one path, a write through
//! an unshared node copies nothing. Driven by `fabriccrdt_sim::gen`.

use std::collections::{BTreeMap, HashSet};
use std::sync::mpsc;

use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::{VersionedValue, WorldState};
use fabriccrdt_sim::gen::{self, Gen};

type Oracle = BTreeMap<String, VersionedValue>;

/// Two key shapes, one per case. Letters: four of them, five to seven
/// long — 21 504 possible keys, a third of the draws from the 1 024
/// shortest, so a growing phase reaches a three-level tree, random
/// probes still hit, and keys are prefixes of one another. Devices:
/// `perf/`'s `device-N`, where every node's keys share a long prefix.
/// Either way one draw in fifty is a key that shares no node's prefix.
#[derive(Clone, Copy)]
enum Shape {
    Letters,
    Devices,
}

fn arb_key(g: &mut Gen, shape: Shape) -> String {
    if g.prob(0.02) {
        return (*g.pick(&["", "d", "device", "device-", "e", "zz"])).to_owned();
    }
    match shape {
        Shape::Letters => g.string_of("abcd", 5, 7),
        Shape::Devices => format!("device-{}", g.range(0, 6_000)),
    }
}

/// A key the oracle holds (nine times in ten, if it holds any).
fn live_key(g: &mut Gen, oracle: &Oracle, shape: Shape) -> String {
    match oracle.keys().nth(g.size(0, oracle.len())) {
        Some(key) if g.prob(0.9) => key.clone(),
        _ => arb_key(g, shape),
    }
}

fn arb_entry(g: &mut Gen) -> VersionedValue {
    VersionedValue {
        value: g.bytes(0, 12),
        version: Height::new(g.range(0, 50), g.range(0, 50)),
    }
}

/// `codec::encode_state`'s layout, written from the oracle.
fn encode_oracle(oracle: &Oracle) -> Vec<u8> {
    let mut out = vec![1u8];
    out.extend((oracle.len() as u64).to_be_bytes());
    for (key, entry) in oracle {
        out.extend((key.len() as u64).to_be_bytes());
        out.extend(key.as_bytes());
        out.extend(entry.version.block_num.to_be_bytes());
        out.extend(entry.version.tx_num.to_be_bytes());
        out.extend((entry.value.len() as u64).to_be_bytes());
        out.extend(&entry.value);
    }
    out
}

/// Full comparison: structure audit, length, ordered contents, bytes.
fn assert_matches(state: &WorldState, oracle: &Oracle) {
    state.audit();
    assert_eq!(state.len(), oracle.len());
    assert_eq!(state.is_empty(), oracle.is_empty());
    assert!(state.iter().eq(oracle.iter()), "ordered contents");
    assert_eq!(codec::encode_state(state), encode_oracle(oracle));
}

fn put(state: &mut WorldState, oracle: &mut Oracle, key: String, entry: VersionedValue) {
    let previous = state.put(key.clone(), entry.value.clone(), entry.version);
    assert_eq!(previous, oracle.insert(key, entry));
}

#[test]
fn random_operations_match_a_btreemap_and_leave_old_roots_alone() {
    // ci.sh runs this in release at full count; the debug run is the
    // same test over fewer seeds.
    let seeds = if cfg!(debug_assertions) { 40 } else { 240 };
    let ops = 3_600;
    gen::cases(seeds, |g| {
        let shape = *g.pick(&[Shape::Letters, Shape::Devices]);
        let mut state = WorldState::new();
        let mut oracle = Oracle::new();
        let mut snapshots: Vec<(WorldState, Oracle)> = Vec::new();
        let (mut tallest, mut lowest_since) = (1, 1);
        for op in 0..ops {
            // Grow to three levels, shrink back to a handful of leaves,
            // grow again: splits, merges, root growth and collapse.
            let growing = !(1_800..3_300).contains(&op);
            if g.prob(if growing { 0.9 } else { 0.1 }) {
                let key = if g.prob(0.15) {
                    live_key(g, &oracle, shape)
                } else {
                    arb_key(g, shape)
                };
                put(&mut state, &mut oracle, key, arb_entry(g));
            } else {
                let key = live_key(g, &oracle, shape);
                assert_eq!(state.delete(&key), oracle.remove(&key));
            }
            match g.range(0, 8) {
                0..=2 => {
                    let key = live_key(g, &oracle, shape);
                    assert_eq!(state.get(&key), oracle.get(&key));
                    assert_eq!(state.value(&key), oracle.get(&key).map(|e| &e.value[..]));
                    assert_eq!(state.version(&key), oracle.get(&key).map(|e| e.version));
                }
                3 => {
                    // Inverted bounds included: the range is then empty.
                    let (start, end) = (arb_key(g, shape), arb_key(g, shape));
                    let expect: Vec<_> = oracle
                        .iter()
                        .filter(|(key, _)| **key >= start && **key < end)
                        .collect();
                    assert!(state.range(&start, &end).eq(expect));
                }
                4 => assert_eq!(state.len(), oracle.len()),
                5 if snapshots.len() < 8 && g.prob(0.05) => {
                    snapshots.push((state.clone(), oracle.clone()));
                }
                _ => {}
            }
            if op % 97 == 0 {
                assert_matches(&state, &oracle);
                let height = state.audit().0;
                if height > tallest {
                    (tallest, lowest_since) = (height, height);
                }
                lowest_since = lowest_since.min(height);
            }
        }
        assert!(tallest >= 3, "grew a three-level tree ({tallest})");
        assert!(lowest_since < tallest, "and lost a level again");

        // Delete to empty, through whatever is still shared.
        let mut doomed: Vec<String> = oracle.keys().cloned().collect();
        while !doomed.is_empty() {
            let key = doomed.swap_remove(g.size(0, doomed.len() - 1));
            assert_eq!(state.delete(&key), oracle.remove(&key));
        }
        assert_matches(&state, &oracle);
        assert_eq!(state, WorldState::new());
        assert_eq!(state.audit().0, 1, "an emptied tree is one leaf again");
        // ...and takes keys again, shorter than anything it ever held.
        for key in ["b", "", "a"] {
            put(&mut state, &mut oracle, key.into(), arb_entry(g));
            assert_eq!(state.get("ab"), None);
        }
        assert_matches(&state, &oracle);

        // Every root taken on the way still holds what it held then.
        for (snapshot, then) in &snapshots {
            assert_matches(snapshot, then);
        }
    });
}

#[test]
fn equality_and_encoding_ignore_insertion_order() {
    gen::cases(60, |g| {
        let shape = *g.pick(&[Shape::Letters, Shape::Devices]);
        let mut oracle = Oracle::new();
        for _ in 0..g.size(0, 600) {
            oracle.insert(arb_key(g, shape), arb_entry(g));
        }
        let build = |order: &[&String]| {
            let mut state = WorldState::new();
            for key in order {
                let entry = &oracle[*key];
                state.put((*key).clone(), entry.value.clone(), entry.version);
            }
            state
        };
        let ascending: Vec<&String> = oracle.keys().collect();
        let descending: Vec<&String> = oracle.keys().rev().collect();
        let mut shuffled = ascending.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, g.size(0, i));
        }
        let (a, b, c) = (build(&ascending), build(&descending), build(&shuffled));
        // A fourth route: overshoot, then delete back down.
        let mut d = c.clone();
        for n in 0..200 {
            d.put(format!("zz-{n}"), vec![n as u8], Height::genesis());
        }
        for n in 0..200 {
            d.delete(&format!("zz-{n}"));
        }
        for state in [&a, &b, &c, &d] {
            assert_matches(state, &oracle);
            assert_eq!(state, &a);
            assert_eq!(&a, state);
        }
        if let Some(key) = ascending.first() {
            let mut changed = b.clone();
            changed.put((*key).clone(), b"other".to_vec(), Height::new(99, 99));
            assert_ne!(changed, a, "same keys, one different entry");
            assert_ne!(changed, b, "differs from the root it was cloned from");
            changed.delete(key);
            assert_ne!(changed, a, "one entry short");
        }
    });
}

fn seeded(keys: usize) -> WorldState {
    let mut state = WorldState::new();
    for n in 0..keys {
        state.put(format!("device-{n}"), b"{}".to_vec(), Height::genesis());
    }
    state
}

#[test]
fn a_tree_emptied_of_long_keys_takes_short_ones() {
    let mut state = seeded(200);
    for n in 0..200 {
        assert!(state.delete(&format!("device-{n}")).is_some());
    }
    assert!(state.is_empty());
    assert_eq!(state.get("d"), None);
    for key in ["d", "", "device-7"] {
        state.put(key.into(), b"v".to_vec(), Height::genesis());
    }
    state.audit();
    let keys: Vec<&String> = state.iter().map(|(key, _)| key).collect();
    assert_eq!(keys, ["", "d", "device-7"]);
}

/// A count, not a stopwatch: what one write through a clone allocates.
#[test]
fn a_write_through_a_clone_copies_one_path_and_an_unshared_write_copies_nothing() {
    let original = seeded(100_000);
    let (height, before) = original.audit();
    let before: HashSet<usize> = before.into_iter().collect();
    assert!(height >= 3, "100 000 keys need inner levels ({height})");

    let mut clone = original.clone();
    assert_eq!(clone.audit().1, original.audit().1, "a clone shares all");
    clone.put("device-4242".into(), b"new".to_vec(), Height::new(1, 0));
    let (_, after) = clone.audit();
    let copied = after.iter().filter(|node| !before.contains(node)).count();
    assert!(
        (1..=height + 1).contains(&copied),
        "one put copied {copied} of {} nodes at height {height}",
        after.len()
    );
    assert_eq!(original.value("device-4242"), Some(&b"{}"[..]));
    assert_eq!(original.audit().1.len(), before.len());

    // With the original gone the copied path is the clone's alone, and
    // a second write down the same path happens in place.
    drop(original);
    clone.put("device-4242".into(), b"newer".to_vec(), Height::new(2, 0));
    assert_eq!(clone.audit().1, after, "no node was reallocated");
    assert_eq!(clone.value("device-4242"), Some(&b"newer"[..]));
    assert_eq!(clone.len(), 100_000);
}

#[test]
fn states_that_share_structure_compare_by_their_difference() {
    let original = seeded(50_000);
    let mut next = original.clone();
    next.put("device-7".into(), b"x".to_vec(), Height::new(1, 0));
    assert_ne!(original, next);
    next.put("device-7".into(), b"{}".to_vec(), Height::genesis());
    assert_eq!(original, next, "equal again, through a copied path");
    assert_ne!(original.audit().1, next.audit().1);
}

#[test]
fn an_old_root_can_be_read_on_another_thread_while_the_owner_commits() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WorldState>();

    let mut state = seeded(5_000);
    let published = state.clone();
    let expect = codec::encode_state(&published);
    let (go, wait) = mpsc::channel();
    std::thread::scope(|scope| {
        let (published, expect) = (&published, &expect);
        let reader = scope.spawn(move || {
            // Start only once the writer is under way, and keep
            // re-reading until it is done.
            wait.recv().expect("writer signals");
            let mut passes = 0;
            loop {
                assert_eq!(&codec::encode_state(published), expect);
                assert_eq!(published.iter().count(), 5_000);
                passes += 1;
                if wait.try_recv().is_ok() {
                    return passes;
                }
            }
        });
        for n in 0..500 {
            if n == 10 {
                go.send(()).expect("reader listens");
            }
            state.put(
                format!("device-{}", n * 7),
                b"w".to_vec(),
                Height::new(1, n),
            );
            state.delete(&format!("device-{}", n * 7 + 1));
        }
        go.send(()).expect("reader listens");
        assert!(reader.join().expect("reader saw a stable root") >= 1);
    });
    assert_eq!(state.len(), 4_500);
    assert_eq!(codec::encode_state(&published), expect);
    state.audit();
}
