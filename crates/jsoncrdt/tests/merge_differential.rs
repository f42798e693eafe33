//! `JsonCrdt::merge_value`'s lockstep walk against the engine it
//! replaced, kept here as the oracle in two halves. The generator
//! (`merge_at` / `emit`) is Algorithm 2 as the parent commit ran it: one
//! `Operation` per node of the source, each fed to the public `apply`
//! and descended from the head. The model (`Model`) is the tree the
//! parent commit kept: a `BTreeMap<OpId, String>` register and
//! `BTreeSet<OpId>` presence and tombstone sets on every entry, rebuilt
//! from the operations in the order they took effect. Driven by
//! `fabriccrdt_sim::gen`.

use std::collections::{BTreeMap, BTreeSet};

use fabriccrdt_jsoncrdt::doc::{ApplyOutcome, DocError};
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::op::{CursorElement, ItemKey};
use fabriccrdt_jsoncrdt::{
    Cursor, Deps, JsonCrdt, Mutation, OpId, Operation, ReplicaId, WorkStats,
};
use fabriccrdt_sim::gen::{self, Gen};

// ------------------------------------------------ the old generator

/// The parent commit's `merge_value`, through the public API only.
fn oracle_merge(doc: &mut JsonCrdt, json: &Value) -> WorkStats {
    let before = doc.work();
    let mut cursor = Cursor::new();
    for (key, value) in json.as_map().expect("generated documents are maps") {
        let mut last_dep = None;
        cursor.push_key(key.as_str());
        merge_at(doc, &mut cursor, value, &mut last_dep);
        cursor.pop();
    }
    WorkStats {
        ops_applied: doc.work().ops_applied - before.ops_applied,
        nodes_visited: doc.work().nodes_visited - before.nodes_visited,
    }
}

/// Generates, applies and chains one operation.
fn emit(doc: &mut JsonCrdt, cursor: &Cursor, mutation: Mutation, last_dep: &mut Option<OpId>) {
    // `clock.tick()`: `apply` observes the id, which leaves the clock there.
    let id = OpId::new(doc.clock().current() + 1, doc.clock().replica());
    let op = Operation::new(id, Deps::from(*last_dep), cursor.clone(), mutation);
    assert_eq!(doc.apply(op), Ok(ApplyOutcome::Applied));
    *last_dep = Some(id);
}

fn merge_at(doc: &mut JsonCrdt, cursor: &mut Cursor, value: &Value, last_dep: &mut Option<OpId>) {
    match value {
        Value::String(s) => emit(doc, cursor, Mutation::Assign(s.clone()), last_dep),
        Value::Number(n) => emit(doc, cursor, Mutation::Assign(n.to_string()), last_dep),
        Value::Bool(b) => emit(doc, cursor, Mutation::Assign(b.to_string()), last_dep),
        Value::Null => emit(doc, cursor, Mutation::Assign("null".to_owned()), last_dep),
        Value::List(items) => {
            emit(doc, cursor, Mutation::MakeList, last_dep);
            for (index, item) in items.iter().enumerate() {
                cursor.push_item(ItemKey::derive(index, item));
                merge_at(doc, cursor, item, last_dep);
                cursor.pop();
            }
        }
        Value::Map(map) => {
            emit(doc, cursor, Mutation::MakeMap, last_dep);
            for (key, item) in map {
                cursor.push_key(key.as_str());
                merge_at(doc, cursor, item, last_dep);
                cursor.pop();
            }
        }
    }
}

// ----------------------------------------------------- the old tree

/// The parent commit's `Entry`: every id in a set.
#[derive(Default)]
struct Model {
    reg: BTreeMap<OpId, String>,
    map: Option<BTreeMap<String, Model>>,
    list: Option<BTreeMap<ItemKey, Model>>,
    presence: BTreeSet<OpId>,
    tombstones: BTreeSet<OpId>,
}

impl Model {
    /// The head (a map that is always visible) after `history`.
    fn replay(history: &[Operation]) -> Value {
        let mut head = Model {
            map: Some(BTreeMap::new()),
            ..Model::default()
        };
        for op in history {
            let mut target = &mut head;
            for (i, step) in op.cursor.elements().iter().enumerate() {
                target = match step {
                    // The head is a map whatever the first step says:
                    // `descend` maps a list step onto a synthetic key.
                    CursorElement::ListItem(item) if i == 0 => {
                        target.child(&CursorElement::Key(item.to_string().into()))
                    }
                    step => target.child(step),
                };
                target.presence.insert(op.id);
            }
            match &op.mutation {
                Mutation::Assign(text) => {
                    target.reg.insert(op.id, text.clone());
                }
                Mutation::MakeMap => {
                    target.map.get_or_insert_with(BTreeMap::new);
                }
                Mutation::MakeList => {
                    target.list.get_or_insert_with(BTreeMap::new);
                }
                Mutation::Delete => {
                    target.tombstone_all();
                    target.tombstones.insert(op.id);
                }
            }
        }
        head.presence.insert(OpId::root());
        head.tombstones.clear();
        head.to_value().expect("the head is visible")
    }

    /// The step's child, in the branch the step's type selects.
    fn child(&mut self, step: &CursorElement) -> &mut Model {
        match step {
            CursorElement::Key(key) => self
                .map
                .get_or_insert_with(BTreeMap::new)
                .entry(key.to_string())
                .or_default(),
            CursorElement::ListItem(item) => self
                .list
                .get_or_insert_with(BTreeMap::new)
                .entry(*item)
                .or_default(),
        }
    }

    fn tombstone_all(&mut self) {
        self.tombstones.extend(self.presence.iter().copied());
        let children = self.map.iter_mut().flat_map(|m| m.values_mut());
        children
            .chain(self.list.iter_mut().flat_map(|l| l.values_mut()))
            .for_each(Model::tombstone_all);
    }

    fn to_value(&self) -> Option<Value> {
        self.presence.difference(&self.tombstones).next()?;
        if let Some(map) = &self.map {
            let converted: BTreeMap<String, Value> = map
                .iter()
                .filter_map(|(k, e)| e.to_value().map(|v| (k.clone(), v)))
                .collect();
            if !converted.is_empty() || self.reg.is_empty() && self.list.is_none() {
                return Some(Value::Map(converted));
            }
        }
        if let Some(list) = &self.list {
            let converted: Vec<Value> = list.values().filter_map(Model::to_value).collect();
            if !converted.is_empty() || self.reg.is_empty() {
                return Some(Value::List(converted));
            }
        }
        let live = |(id, _): &(&OpId, &String)| !self.tombstones.contains(id);
        self.reg.iter().rfind(live).map(|(_, v)| Value::string(v))
    }
}

// ------------------------------------------------------- generators

const KEYS: [&str; 4] = ["a", "b", "readings", "deviceID"];

fn arb_leaf(g: &mut Gen) -> Value {
    match g.range(0, 8) {
        0 => Value::Null,
        1 => Value::Bool(g.flip()),
        2 => Value::from((g.f64_in(-50.0, 50.0) * 10.0).round() / 10.0),
        // Few distinct strings, so list elements of different documents
        // meet at the same content-addressed entry.
        _ => Value::string(g.string_of("xy", 0, 2)),
    }
}

/// Few keys and every type under each, so successive documents put a
/// string where the last put a map or a list; empty containers included.
fn arb_node(g: &mut Gen, depth: usize) -> Value {
    if depth == 0 || g.prob(0.4) {
        return arb_leaf(g);
    }
    if g.flip() {
        Value::list(g.vec(0, 4, |g| arb_node(g, depth - 1)))
    } else {
        arb_map(g, depth - 1)
    }
}

fn arb_map(g: &mut Gen, depth: usize) -> Value {
    let entries = g.vec(0, 3, |g| ((*g.pick(&KEYS)).to_owned(), arb_node(g, depth)));
    Value::Map(entries.into_iter().collect())
}

/// A hand-fed operation: any replica (the document's own included), a
/// counter that continues, skips, repeats or is zero, a cursor that may
/// or may not match the tree, a dependency that may be missing — and,
/// now and then, the operation an earlier one is waiting for.
fn arb_foreign(g: &mut Gen, doc: &JsonCrdt, missing: &mut Vec<OpId>) -> Operation {
    let replica = *g.pick(&[doc.clock().replica(), ReplicaId(7), ReplicaId(9)]);
    let mark = doc.frontier().entry(replica);
    let id = match g.range(0, 6) {
        0 if !missing.is_empty() => missing.swap_remove(g.size(0, missing.len() - 1)),
        0 | 1 => OpId::new(mark + g.range(2, 6), replica),
        2 => OpId::new(g.range(0, mark + 1), replica),
        3 => OpId::new(doc.clock().current() + g.range(1, 4), replica),
        _ => OpId::new(mark + 1, replica),
    };
    let deps = match g.range(0, 5) {
        0 => {
            // Unmet; on the document's own replica the next merge mints it.
            let dep = OpId::new(doc.clock().current() + g.range(1, 6), replica);
            missing.push(dep);
            Deps::from(dep)
        }
        1 => Deps::from(OpId::new(g.range(0, mark + 1), replica)),
        _ => Deps::None,
    };
    let mut cursor = Cursor::new();
    for _ in 0..g.size(0, 3) {
        match g.range(0, 3) {
            0 => cursor.push_item(ItemKey::derive(g.size(0, 3), &arb_leaf(g))),
            _ => cursor.push_key(*g.pick(&KEYS)),
        }
    }
    let mutation = match g.range(0, 5) {
        0 => Mutation::MakeMap,
        1 => Mutation::MakeList,
        2 | 3 => Mutation::Delete,
        _ => Mutation::Assign(g.string_of("xyz", 0, 3)),
    };
    Operation::new(id, deps, cursor, mutation)
}

// ------------------------------------------------------ comparison

fn converged(doc: &JsonCrdt) -> Vec<u8> {
    let mut bytes = Vec::new();
    doc.write_bytes(&mut bytes);
    bytes
}

/// `walk` took every document through `merge_value` and records no
/// history; `oracle` took them through the old generator and records
/// one, which also feeds the old tree.
fn assert_same(walk: &JsonCrdt, oracle: &JsonCrdt) {
    assert_eq!(walk.to_value(), oracle.to_value());
    let history = oracle.history().expect("recorded");
    assert_eq!(
        walk.to_value(),
        Model::replay(history),
        "against the old tree"
    );
    assert_eq!(converged(walk), walk.to_value().to_bytes());
    assert_eq!(converged(oracle), converged(walk));
    assert_eq!(walk.work(), oracle.work());
    assert_eq!(walk.applied_len(), oracle.applied_len());
    assert_eq!(walk.pending_len(), oracle.pending_len());
    assert_eq!(walk.frontier(), oracle.frontier());
    assert_eq!(walk.frontier_is_exact(), oracle.frontier_is_exact());
    assert_eq!(walk.clock(), oracle.clock());
}

/// One case: documents and hand-fed operations in any order, every
/// observable compared after every step.
fn case(g: &mut Gen) {
    let replica = ReplicaId(g.range(1, 4));
    let mut walk = JsonCrdt::new(replica);
    let mut oracle = JsonCrdt::with_history(replica);
    // A recording document whose merges go through `merge_value`: its
    // history must be the old generator's, operation for operation.
    let mut recorded = JsonCrdt::with_history(replica);
    let mut missing = Vec::new();
    for _ in 0..g.range(1, 10) {
        if g.prob(0.35) {
            let op = arb_foreign(g, &walk, &mut missing);
            let outcome: Result<ApplyOutcome, DocError> = oracle.apply(op.clone());
            assert_eq!(walk.apply(op.clone()), outcome);
            assert_eq!(recorded.apply(op), outcome);
        } else {
            let document = arb_map(g, 3);
            let work = oracle_merge(&mut oracle, &document);
            assert_eq!(walk.merge_value(&document), Ok(work));
            assert_eq!(recorded.merge_value(&document), Ok(work));
        }
        assert_same(&walk, &oracle);
        assert_eq!(recorded.history(), oracle.history());
        assert_eq!(recorded.to_value(), oracle.to_value());
    }
}

#[test]
fn lockstep_walk_equals_the_operation_engine() {
    // The release pass (`ci.sh`) runs every seed on the build the
    // benchmark measures; the debug pass a sixth of them.
    let seeds = if cfg!(debug_assertions) { 100 } else { 600 };
    gen::cases(seeds, case);
}

/// What only the old tree can say, since both documents share the new
/// one: a register assigned before a delete stays dead when a later
/// operation makes its entry visible again.
#[test]
fn a_deleted_register_stays_dead_when_its_entry_comes_back() {
    let at_a = |id, mutation| {
        let mut cursor = Cursor::new();
        cursor.push_key("a");
        Operation::new(OpId::new(id, ReplicaId(7)), Deps::None, cursor, mutation)
    };
    let mut walk = JsonCrdt::new(ReplicaId(1));
    let mut oracle = JsonCrdt::with_history(ReplicaId(1));
    for doc in [&mut walk, &mut oracle] {
        doc.apply(at_a(1, Mutation::Assign("old".into()))).unwrap();
        doc.apply(at_a(2, Mutation::Delete)).unwrap();
    }
    let revived: Value = r#"{"a":[],"b":"kept"}"#.parse().unwrap();
    let work = oracle_merge(&mut oracle, &revived);
    assert_eq!(walk.merge_value(&revived), Ok(work));
    assert_same(&walk, &oracle);
    assert_eq!(walk.to_value(), r#"{"b":"kept"}"#.parse().unwrap());
    // A newer assignment is live again.
    for doc in [&mut walk, &mut oracle] {
        doc.apply(at_a(3, Mutation::Assign("new".into()))).unwrap();
    }
    assert_same(&walk, &oracle);
    assert_eq!(walk.to_value().get("a"), Some(&Value::string("new")));
}

/// The paper's own workload shapes, where every merge takes the walk:
/// `bigstate-pipelined`'s one large document per key and `hotkey-merge`'s
/// many small ones into one key.
#[test]
fn benchmark_documents_merge_identically() {
    let readings = |tx: usize, n: usize| {
        Value::list((0..n).map(|j| Value::string(format!("r{tx}-{j}-0123456789abcdef"))))
    };
    let document = |tx: usize, n: usize| -> Value {
        [
            ("deviceID".to_owned(), Value::string("device-7")),
            ("readings".to_owned(), readings(tx % 3, n)),
        ]
        .into_iter()
        .collect()
    };
    for (documents, size) in [(2, 32), (400, 1)] {
        let mut walk = JsonCrdt::new(ReplicaId(1));
        let mut oracle = JsonCrdt::with_history(ReplicaId(1));
        for tx in 0..documents {
            let work = oracle_merge(&mut oracle, &document(tx, size));
            assert_eq!(walk.merge_value(&document(tx, size)), Ok(work));
        }
        assert_same(&walk, &oracle);
    }
}
