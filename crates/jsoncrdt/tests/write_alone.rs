//! `doc::write_alone` against what it stands for: `JsonCrdt::new`, one
//! `merge_value` and `write_bytes`. Algorithm 1 takes it for every key
//! one transaction of the block writes, so the bytes it writes are the
//! committed value and the work it counts feeds `fabric::cost`. Driven
//! by `fabriccrdt_sim::gen`.

use std::collections::BTreeMap;

use fabriccrdt_jsoncrdt::doc::{write_alone, DocError};
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::{JsonCrdt, ReplicaId};
use fabriccrdt_sim::gen::{self, Gen};

/// Keys that sort apart, a typed-envelope tag, an escape and non-ASCII.
const KEYS: [&str; 7] = ["a", "readings", "deviceID", "_crdt", "q\"k", "é", "Z"];

/// Strings that need every escape the serializer has, non-ASCII, and
/// few enough of them that a list repeats an element.
const STRINGS: [&str; 8] = [
    "",
    "x",
    "y",
    "a\"b\\c",
    "line\nfeed\ttab",
    "\u{1}\u{1f}",
    "é",
    "😀 r",
];

fn arb_leaf(g: &mut Gen) -> Value {
    match g.range(0, 9) {
        0 => Value::Null,
        1 => Value::Bool(g.flip()),
        2 => Value::from(g.range(0, 2_000) as i64 - 1_000),
        3 => Value::from((g.f64_in(-50.0, 50.0) * 100.0).round() / 100.0),
        // Past the integer fast path of `Number`'s `Display`.
        4 => Value::from(g.f64_in(-1.0, 1.0) * 1e21),
        _ => Value::string(*g.pick(&STRINGS)),
    }
}

/// Every type under every key, empty containers included, and lists
/// whose elements are maps.
fn arb_node(g: &mut Gen, depth: usize) -> Value {
    if depth == 0 || g.prob(0.35) {
        return arb_leaf(g);
    }
    match g.range(0, 3) {
        0 => Value::list(g.vec(0, 5, |g| arb_node(g, depth - 1))),
        1 => Value::list(g.vec(0, 3, |g| arb_map(g, depth - 1))),
        _ => arb_map(g, depth - 1),
    }
}

fn arb_map(g: &mut Gen, depth: usize) -> Value {
    let entries: BTreeMap<String, Value> = g
        .vec(0, 4, |g| ((*g.pick(&KEYS)).to_owned(), arb_node(g, depth)))
        .into_iter()
        .collect();
    Value::Map(entries)
}

/// `json` through `write_alone` and through an empty document: the same
/// bytes (appended after what `out` held), the same work, and as many
/// operations counted as the document applied.
fn assert_alone_equals_merge(json: &Value) {
    let mut doc = JsonCrdt::new(ReplicaId(1));
    let merged = doc.merge_value(json);
    let mut bytes = b"prefix".to_vec();
    let alone = write_alone(json, &mut bytes);
    assert_eq!(alone, merged, "{json}");
    let Ok(work) = alone else {
        return;
    };
    let mut expected = b"prefix".to_vec();
    doc.write_bytes(&mut expected);
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&expected),
        "{json}"
    );
    assert_eq!(work.ops_applied, doc.applied_len() as u64, "{json}");
    assert_eq!(work, doc.work(), "{json}");
}

#[test]
fn alone_equals_merge_into_an_empty_document() {
    // ci.sh runs the release pass at full count; the debug pass a sixth.
    let cases = if cfg!(debug_assertions) { 200 } else { 1_200 };
    gen::cases(cases, |g| assert_alone_equals_merge(&arb_map(g, 4)));
}

#[test]
fn leaves_become_strings_and_empty_containers_stay() {
    let json: Value = r#"{"n":1.5,"i":-3,"b":true,"z":null,"m":{},"l":[],"s":"é\n"}"#
        .parse()
        .unwrap();
    let mut bytes = Vec::new();
    let work = write_alone(&json, &mut bytes).unwrap();
    assert_eq!(
        String::from_utf8(bytes).unwrap(),
        r#"{"b":"true","i":"-3","l":[],"m":{},"n":"1.5","s":"é\n","z":"null"}"#
    );
    assert_eq!((work.ops_applied, work.nodes_visited), (7, 7));
    assert_alone_equals_merge(&json);
}

#[test]
fn depth_counts_from_one_below_the_head() {
    let json: Value = r#"{"a":[{"b":["x","x"]}],"c":{}}"#.parse().unwrap();
    let work = write_alone(&json, &mut Vec::new()).unwrap();
    // a:1, [0]:2, b:3, two items at 4, c:1.
    assert_eq!((work.ops_applied, work.nodes_visited), (6, 15));
    assert_alone_equals_merge(&json);
}

#[test]
fn only_a_map_merges() {
    for text in ["[]", r#"["a"]"#, r#""s""#, "1", "null"] {
        let json: Value = text.parse().unwrap();
        let mut bytes = Vec::new();
        assert_eq!(write_alone(&json, &mut bytes), Err(DocError::RootNotMap));
        assert!(bytes.is_empty(), "nothing written for {text}");
        assert_alone_equals_merge(&json);
    }
    assert_alone_equals_merge(&Value::empty_map());
}
