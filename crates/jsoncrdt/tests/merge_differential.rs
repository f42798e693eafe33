//! `JsonCrdt::merge_value`'s lockstep walk against the operation engine
//! it replaced, kept here as the oracle in two halves. The generator
//! (`oracle_merge` / `emit`) is Algorithm 2 as stated: one `Operation`
//! per node of the source, stamped by the oracle's own Lamport clock,
//! carrying the cursor a descent from the head follows, and costed as
//! that descent. The model (`Model`) is the tree the engine kept: a
//! `BTreeMap<OpId, String>` register on every entry, converted by
//! greatest id, rebuilt from the operations in the order they were
//! minted. The document keeps no ids, so the oracle's clock, counting
//! the operations minted, is compared with `applied_len`. Driven by
//! `fabriccrdt_sim::gen`.

use std::collections::BTreeMap;

use fabriccrdt_jsoncrdt::doc::write_alone;
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::op::ItemKey;
use fabriccrdt_jsoncrdt::{JsonCrdt, ReplicaId, WorkStats};
use fabriccrdt_sim::gen::{self, Gen};

// ------------------------------------------------- the operations

/// A globally unique operation id (§5.2): Lamport counter, then the
/// replica as tie-breaker.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OpId {
    counter: u64,
    replica: u64,
}

/// The Lamport clock of one document instance: one tick per operation.
struct LamportClock {
    counter: u64,
    replica: u64,
}

impl LamportClock {
    fn tick(&mut self) -> OpId {
        self.counter += 1;
        OpId {
            counter: self.counter,
            replica: self.replica,
        }
    }
}

/// One step of a cursor (Algorithm 2's `AddCursorElement`).
#[derive(Clone)]
enum Step {
    Key(String),
    Item(ItemKey),
}

/// What an operation does at its cursor's target.
enum Mutation {
    /// A leaf's string form (`NewInsertMutation`).
    Assign(String),
    MakeMap,
    MakeList,
}

/// Algorithm 2's `NewOperation`: id, path from the head, mutation.
struct Operation {
    id: OpId,
    cursor: Vec<Step>,
    mutation: Mutation,
}

/// Algorithm 2 run as a generator: its clock, the operations it minted
/// in order, and what applying each from the head costs.
struct Oracle {
    clock: LamportClock,
    history: Vec<Operation>,
    work: WorkStats,
}

impl Oracle {
    fn new(replica: ReplicaId) -> Self {
        Oracle {
            clock: LamportClock {
                counter: 0,
                replica: replica.0,
            },
            history: Vec::new(),
            work: WorkStats::new(),
        }
    }
}

// ------------------------------------------------- the generator

/// Algorithm 2 over `json`, one cursor per top-level key; returns the
/// work of this merge.
fn oracle_merge(oracle: &mut Oracle, json: &Value) -> WorkStats {
    let before = oracle.work;
    let mut cursor = Vec::new();
    for (key, value) in json.as_map().expect("generated documents are maps") {
        cursor.push(Step::Key(key.clone()));
        merge_at(oracle, &mut cursor, value);
        cursor.pop();
    }
    WorkStats {
        ops_applied: oracle.work.ops_applied - before.ops_applied,
        nodes_visited: oracle.work.nodes_visited - before.nodes_visited,
    }
}

/// Mints, costs and records one operation: a descent from the head
/// visits one entry per step of its cursor.
fn emit(oracle: &mut Oracle, cursor: &[Step], mutation: Mutation) {
    let id = oracle.clock.tick();
    oracle.work.ops_applied += 1;
    oracle.work.nodes_visited += cursor.len() as u64;
    oracle.history.push(Operation {
        id,
        cursor: cursor.to_vec(),
        mutation,
    });
}

fn merge_at(oracle: &mut Oracle, cursor: &mut Vec<Step>, value: &Value) {
    match value {
        Value::String(s) => emit(oracle, cursor, Mutation::Assign(s.clone())),
        Value::Number(n) => emit(oracle, cursor, Mutation::Assign(n.to_string())),
        Value::Bool(b) => emit(oracle, cursor, Mutation::Assign(b.to_string())),
        Value::Null => emit(oracle, cursor, Mutation::Assign("null".to_owned())),
        Value::List(items) => {
            emit(oracle, cursor, Mutation::MakeList);
            for (index, item) in items.iter().enumerate() {
                cursor.push(Step::Item(ItemKey::derive(index, item)));
                merge_at(oracle, cursor, item);
                cursor.pop();
            }
        }
        Value::Map(map) => {
            emit(oracle, cursor, Mutation::MakeMap);
            for (key, item) in map {
                cursor.push(Step::Key(key.clone()));
                merge_at(oracle, cursor, item);
                cursor.pop();
            }
        }
    }
}

// ------------------------------------------------------ the model

/// The engine's `Entry`: every register assignment kept by its id.
#[derive(Default)]
struct Model {
    reg: BTreeMap<OpId, String>,
    map: Option<BTreeMap<String, Model>>,
    list: Option<BTreeMap<ItemKey, Model>>,
}

impl Model {
    /// The head (always a map) after `history`.
    fn replay(history: &[Operation]) -> Value {
        let mut head = Model {
            map: Some(BTreeMap::new()),
            ..Model::default()
        };
        for op in history {
            let target = op.cursor.iter().fold(&mut head, Model::child);
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
            }
        }
        head.to_value().expect("the head is a map")
    }

    /// The step's child, in the branch the step's type selects.
    fn child<'m>(&'m mut self, step: &Step) -> &'m mut Model {
        match step {
            Step::Key(key) => self
                .map
                .get_or_insert_with(BTreeMap::new)
                .entry(key.clone())
                .or_default(),
            Step::Item(item) => self
                .list
                .get_or_insert_with(BTreeMap::new)
                .entry(*item)
                .or_default(),
        }
    }

    fn to_value(&self) -> Option<Value> {
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
        self.reg.values().next_back().map(Value::string)
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

// ------------------------------------------------------ comparison

/// `walk` took every document through `merge_value`, `oracle` through
/// the generator: the same value, converged bytes, work, operation
/// count, which the oracle's clock counts too.
fn assert_same(walk: &JsonCrdt, oracle: &Oracle) {
    let value = Model::replay(&oracle.history);
    assert_eq!(walk.to_value(), value);
    let mut converged = Vec::new();
    walk.write_bytes(&mut converged);
    assert_eq!(converged, value.to_bytes());
    assert_eq!(walk.work(), oracle.work);
    assert_eq!(walk.applied_len(), oracle.history.len());
    assert_eq!(walk.applied_len() as u64, oracle.clock.counter);
}

/// One case: a run of documents into one document, every observable
/// compared after every merge.
fn case(g: &mut Gen) {
    let replica = ReplicaId(g.range(1, 4));
    let mut walk = JsonCrdt::new(replica);
    let mut oracle = Oracle::new(replica);
    for _ in 0..g.range(1, 10) {
        let document = arb_map(g, 3);
        let work = oracle_merge(&mut oracle, &document);
        assert_eq!(walk.merge_value(&document), Ok(work));
        assert_same(&walk, &oracle);
    }
}

#[test]
fn lockstep_walk_equals_the_operation_engine() {
    // The release pass (`ci.sh`) runs every seed on the build the
    // benchmark measures; the debug pass a sixth of them.
    let seeds = if cfg!(debug_assertions) { 100 } else { 600 };
    gen::cases(seeds, case);
}

/// The paper's own workload shapes: `bigstate-pipelined`'s one large
/// document per key and `hotkey-merge`'s many small ones into one key.
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
        let mut oracle = Oracle::new(ReplicaId(1));
        for tx in 0..documents {
            let work = oracle_merge(&mut oracle, &document(tx, size));
            assert_eq!(walk.merge_value(&document(tx, size)), Ok(work));
        }
        assert_same(&walk, &oracle);
    }
}

// ------------------------------------------------------- the byte walk

/// The bytes the conversion writes for `json`: the normal form
/// `merge_bytes` walks, given string-only keys without escapes.
fn normal(json: &Value) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_alone(json, &mut bytes).expect("generated documents are maps");
    bytes
}

/// `walk` took `bytes` through `merge_bytes`, `parsed` the same bytes
/// parsed through `merge_value`: the same document, conversion, work
/// and operation count.
fn assert_walked_as_parsed(walk: &JsonCrdt, parsed: &JsonCrdt) {
    assert_eq!(walk.to_value(), parsed.to_value());
    let (mut walked, mut merged) = (Vec::new(), Vec::new());
    walk.write_bytes(&mut walked);
    parsed.write_bytes(&mut merged);
    assert_eq!(walked, merged);
    assert_eq!(walk.work(), parsed.work());
    assert_eq!(walk.applied_len(), parsed.applied_len());
    assert_eq!(walk, parsed, "the same entries, registers and branches");
}

/// One hostile edit of `bytes`: a bit flipped, a byte dropped or
/// repeated, or a slice of `other` spliced in.
fn mutate(g: &mut Gen, bytes: &[u8], other: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = g.size(0, out.len() - 1);
    match g.range(0, 4) {
        0 => out[at] ^= 1 << g.range(0, 8),
        1 => {
            out.remove(at);
        }
        2 => out.insert(at, out[at]),
        _ => {
            let from = g.size(0, other.len());
            let to = g.size(from, other.len());
            out.splice(at..at, other[from..to].iter().copied());
        }
    }
    out
}

/// `bytes` into `walk` through `merge_bytes` and into `parsed` through
/// `merge_value`: either the walk takes them, and both documents merge
/// alike, or it leaves `walk` as it was and returns `None`.
fn merge_both(walk: &mut JsonCrdt, parsed: &mut JsonCrdt, bytes: &[u8]) -> bool {
    let before = walk.clone();
    let shown = String::from_utf8_lossy(bytes).into_owned();
    let Some(work) = walk.merge_bytes(bytes) else {
        assert_eq!(*walk, before, "{shown}");
        return false;
    };
    let value = Value::from_bytes(bytes).unwrap_or_else(|e| panic!("{e}: {shown}"));
    assert_eq!(parsed.merge_value(&value), Ok(work), "{shown}");
    assert_walked_as_parsed(walk, parsed);
    true
}

#[test]
fn byte_walk_equals_the_parsed_merge() {
    // Release (`ci.sh`) at full count, debug a sixth, as above.
    let seeds = if cfg!(debug_assertions) { 100 } else { 600 };
    let (mut taken, mut left) = (0, 0);
    gen::cases(seeds, |g| {
        let mut walk = JsonCrdt::new(ReplicaId(1));
        let mut parsed = JsonCrdt::new(ReplicaId(1));
        for _ in 0..g.range(1, 10) {
            let document = normal(&arb_map(g, 3));
            assert!(merge_both(&mut walk, &mut parsed, &document));
            let other = normal(&arb_map(g, 2));
            for _ in 0..4 {
                let edited = mutate(g, &document, &other);
                if merge_both(&mut walk, &mut parsed, &edited) {
                    taken += 1;
                } else {
                    left += 1;
                }
            }
        }
    });
    // Most edits break the form; some (a letter for a letter, a
    // repeated item) keep it and must merge as parsed.
    assert!(
        taken > 0 && left > taken,
        "{taken} edits taken, {left} left"
    );
}

#[test]
fn byte_walk_leaves_every_other_form_to_the_parser() {
    let mut doc = JsonCrdt::new(ReplicaId(1));
    let first = br#"{"a":"1","l":["x",{"k":"v"}],"m":{"n":"2"}}"#;
    assert!(doc.merge_bytes(first).is_some());
    let before = doc.clone();
    for text in [
        // Escapes, whitespace, numbers and other non-string leaves.
        r#"{"a":"\u0041"}"#,
        r#"{"a":"x\"y"}"#,
        r#"{"a": "1"}"#,
        "{\"a\":\"1\"}\n",
        r#"{"a":1}"#,
        r#"{"l":[true]}"#,
        r#"{"m":{"n":null}}"#,
        // Unsorted or duplicate keys, at the head and below it.
        r#"{"m":{},"a":"1"}"#,
        r#"{"a":"1","a":"2"}"#,
        r#"{"m":{"z":"1","n":"2"}}"#,
        // A typed envelope, not a map, and not JSON.
        r#"{"_crdt":"g-set","elements":[]}"#,
        r#"["a"]"#,
        r#"{"a":"1""#,
    ] {
        assert_eq!(doc.merge_bytes(text.as_bytes()), None, "{text}");
        assert_eq!(doc, before, "{text}");
    }
    // A nested `_crdt` is a plain key, and the walk takes it.
    let nested = br#"{"m":{"_crdt":"x"}}"#;
    let mut parsed = JsonCrdt::new(ReplicaId(1));
    parsed
        .merge_value(&Value::from_bytes(first).unwrap())
        .unwrap();
    assert!(merge_both(&mut doc, &mut parsed, nested));
}

/// `hotkey-merge`'s shape as bytes: 400 small documents into one key,
/// most of them re-sending the same register and list prefix.
#[test]
fn benchmark_bytes_merge_as_parsed() {
    let mut walk = JsonCrdt::new(ReplicaId(1));
    let mut parsed = JsonCrdt::new(ReplicaId(1));
    for tx in 0..400 {
        let text = format!(r#"{{"deviceID":"device-7","readings":["r{}-0"]}}"#, tx % 50);
        assert!(merge_both(&mut walk, &mut parsed, text.as_bytes()));
    }
}
