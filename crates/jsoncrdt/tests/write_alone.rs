//! `doc::write_alone` against what it stands for: `JsonCrdt::new`, one
//! `merge_value` and `write_bytes`. Algorithm 1 takes it for every key
//! one transaction of the block writes, so the bytes it writes are the
//! committed value and the work it counts feeds `fabric::cost`.
//!
//! Then `doc::alone_as_is`, which lets Algorithm 1 skip the parse and
//! the walk when the bytes already are what `write_alone` would write:
//! sound (whatever it takes, from generated documents in every
//! rendering and from hostile mutations of them, parses to a map
//! without a top-level `_crdt` that `write_alone` writes back byte for
//! byte, with the same work) and complete (it takes every `write_alone`
//! output that holds no escape). Driven by `fabriccrdt_sim::gen`.

use std::collections::BTreeMap;

use fabriccrdt_jsoncrdt::doc::{alone_as_is, write_alone, DocError};
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::{JsonCrdt, ReplicaId};
use fabriccrdt_sim::gen::{self, Gen};

/// Keys that sort apart, a typed-envelope tag, an escape and non-ASCII.
const KEYS: [&str; 7] = ["a", "readings", "deviceID", "_crdt", "q\"k", "é", "Z"];

/// Strings that need every escape the serializer has, non-ASCII, some
/// longer than a word with an escape late in them, and few enough of
/// them that a list repeats an element.
const STRINGS: [&str; 11] = [
    "",
    "x",
    "y",
    "a\"b\\c",
    "line\nfeed\ttab",
    "\u{1}\u{1f}",
    "é",
    "😀 r",
    "r7-0-0123456789abcdef0123456789abcdef",
    "sixteen plain by\u{7f}tes, then a \"quote",
    "seventeen bytes é\\",
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

/// Whether `alone_as_is` takes `bytes`; when it does, they must parse to
/// a map without a top-level `_crdt` that `write_alone` writes back as
/// they are, counting the work `alone_as_is` returned.
fn assert_sound(bytes: &[u8]) -> bool {
    let Some(work) = alone_as_is(bytes) else {
        return false;
    };
    let shown = String::from_utf8_lossy(bytes);
    let value = Value::from_bytes(bytes).unwrap_or_else(|e| panic!("{e}: {shown}"));
    assert!(value.as_map().is_some(), "{shown}");
    assert!(value.get("_crdt").is_none(), "{shown}");
    let mut written = Vec::new();
    assert_eq!(write_alone(&value, &mut written), Ok(work), "{shown}");
    assert_eq!(String::from_utf8_lossy(&written), shown);
    true
}

/// The bytes of `json` as the conversion writes them.
fn normal(json: &Value) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_alone(json, &mut bytes).unwrap();
    bytes
}

/// One hostile edit of `bytes`: a bit flipped, a byte dropped or
/// repeated, or a slice of `other` spliced in.
fn mutate(g: &mut Gen, bytes: &[u8], other: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return other.to_vec();
    }
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

#[test]
fn as_is_claims_only_what_write_alone_writes() {
    // ci.sh runs the release pass at full count; the debug pass a sixth.
    let cases = if cfg!(debug_assertions) { 100 } else { 600 };
    let mut taken = 0;
    gen::cases(cases, |g| {
        let json = arb_map(g, 4);
        let other = normal(&arb_map(g, 2));
        let renderings = [
            json.to_bytes(),
            json.to_pretty_string().into_bytes(),
            normal(&json),
        ];
        for bytes in &renderings {
            taken += usize::from(assert_sound(bytes));
            for _ in 0..16 {
                let mut edited = mutate(g, bytes, &other);
                if g.flip() {
                    edited = mutate(g, &edited, &other);
                }
                assert_sound(&edited);
            }
        }
        let normal = &renderings[2];
        for end in 0..normal.len() {
            assert_sound(&normal[..end]);
        }
    });
    assert!(
        taken > cases / 4,
        "only {taken} documents taken as they are"
    );
}

#[test]
fn as_is_takes_every_output_without_an_escape() {
    let cases = if cfg!(debug_assertions) { 200 } else { 1_200 };
    let mut taken = 0;
    gen::cases(cases, |g| {
        let json = arb_map(g, 4);
        let mut bytes = Vec::new();
        let work = write_alone(&json, &mut bytes).unwrap();
        let plain = !bytes.contains(&b'\\') && json.get("_crdt").is_none();
        let shown = String::from_utf8_lossy(&bytes);
        assert_eq!(alone_as_is(&bytes), plain.then_some(work), "{shown}");
        taken += usize::from(plain);
    });
    assert!(taken > cases / 4, "only {taken} outputs without an escape");
}

#[test]
fn as_is_named_cases() {
    let taken = [
        "{}",
        r#"{"":"","a":""}"#,
        r#"{"a":"x y","b":[],"c":{},"d":[{}],"e":["x","x"]}"#,
        r#"{"z":"é","é":"😀"}"#,
        r#"{"a":"/","m":{"_crdt":"nested tags are plain keys"}}"#,
        "{\"del\":\"\u{7f}\"}",
    ];
    for text in taken {
        assert!(assert_sound(text.as_bytes()), "{text}");
    }
    let left = [
        // Not a map.
        "[]",
        r#""s""#,
        "",
        // Duplicate and unsorted keys.
        r#"{"a":"1","a":"2"}"#,
        r#"{"b":"1","a":"2"}"#,
        r#"{"é":"1","z":"2"}"#,
        r#"{"m":{"b":"1","a":"2"}}"#,
        // Whitespace outside strings, and control bytes inside.
        r#"{ "a":"1"}"#,
        r#"{"a": "1"}"#,
        "{\"a\":\"1\"}\n",
        "{\"a\":\"\t\"}",
        // Escapes, even those the conversion would write the same.
        r#"{"a":"\/"}"#,
        r#"{"a":"\u0041"}"#,
        r#"{"a":"\""}"#,
        r#"{"\\":"a"}"#,
        // Leaves the conversion turns into strings.
        r#"{"a":1}"#,
        r#"{"a":true}"#,
        r#"{"a":null}"#,
        // A typed envelope, and trailing bytes.
        r#"{"_crdt":"g-set","elements":[]}"#,
        r#"{"a":"1"}x"#,
        r#"{"a":"1"}{}"#,
        // Cut short, or a separator too many.
        r#"{"a":"1""#,
        r#"{"a":"1",}"#,
        r#"{"a":["1",]}"#,
    ];
    for text in left {
        assert!(!assert_sound(text.as_bytes()), "{text}");
    }
    // Invalid UTF-8, raw or cut in the middle of a character.
    for bytes in [
        &b"{\"a\":\"\xff\"}"[..],
        b"{\"a\":\"\xc3\"}",
        b"{\"\xe9\":\"\"}",
    ] {
        assert_eq!(alone_as_is(bytes), None);
        assert!(Value::from_bytes(bytes).is_err());
    }
}

#[test]
fn as_is_stops_where_the_parser_does() {
    // `levels` lists around one string: the string is `levels + 1`
    // below the head, and the parser takes nothing deeper than 256.
    let nested = |levels: usize, leaf: &str| {
        format!(
            r#"{{"a":{}{leaf}{}}}"#,
            "[".repeat(levels),
            "]".repeat(levels)
        )
    };
    let deepest = nested(255, r#""x""#);
    let work = alone_as_is(deepest.as_bytes()).expect("a string 256 below the head");
    assert_eq!((work.ops_applied, work.nodes_visited), (256, 256 * 257 / 2));
    assert!(assert_sound(deepest.as_bytes()));
    let too_deep = nested(256, r#""x""#);
    assert!(Value::from_bytes(too_deep.as_bytes()).is_err());
    assert_eq!(alone_as_is(too_deep.as_bytes()), None);
    // An empty list 256 below the head holds nothing deeper.
    assert!(assert_sound(nested(256, "").as_bytes()));
}

#[test]
fn as_is_finds_a_delimiter_at_every_offset() {
    let plain = "0123456789abcdef0123456789abcdef0123";
    for at in 0..=plain.len() {
        let (head, tail) = plain.split_at(at);
        for (inserted, taken) in [
            ("\\", false),
            ("\u{0}", false),
            ("\n", false),
            ("\u{1f}", false),
            ("\"", false),
            (" ", true),
            ("\u{7f}", true),
            ("é", true),
        ] {
            let text = format!(r#"{{"a":"{head}{inserted}{tail}","b":""}}"#);
            assert_eq!(assert_sound(text.as_bytes()), taken, "{text:?}");
        }
    }
}
