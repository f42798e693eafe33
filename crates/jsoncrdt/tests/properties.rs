//! Randomized property tests for the JSON model and the CRDT laws,
//! driven by the deterministic in-repo generator (`fabriccrdt_sim::gen`)
//! so the suite runs with no external dependencies.

use std::collections::BTreeMap;

use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::op::{fnv1a, ItemKey};
use fabriccrdt_jsoncrdt::{JsonCrdt, ReplicaId};
use fabriccrdt_sim::gen::{self, Gen};

/// An arbitrary JSON value (strings at the leaves, as in the paper's
/// programming model, but also numbers/bools/null for the parser).
fn arb_value(g: &mut Gen, depth: usize) -> Value {
    if depth == 0 || g.prob(0.45) {
        return match g.range(0, 4) {
            0 => Value::Null,
            1 => Value::Bool(g.flip()),
            2 => Value::from((g.f64_in(-1.0e9, 1.0e9) * 1e3).round() / 1e3),
            _ => Value::string(g.string_of("abcdefXYZ0189 .-", 0, 12)),
        };
    }
    if g.flip() {
        Value::list(g.vec(0, 5, |g| arb_value(g, depth - 1)))
    } else {
        let entries: BTreeMap<String, Value> = g
            .vec(0, 5, |g| (g.ident(1, 6), arb_value(g, depth - 1)))
            .into_iter()
            .collect();
        Value::Map(entries)
    }
}

/// A JSON document whose leaves are strings only — the shape FabricCRDT
/// chaincodes submit (paper §5.2).
fn arb_string_doc(g: &mut Gen) -> Value {
    fn node(g: &mut Gen, depth: usize) -> Value {
        if depth == 0 || g.prob(0.5) {
            return Value::string(g.string_of("abcdefghij0123456789.", 1, 8));
        }
        if g.flip() {
            Value::list(g.vec(0, 4, |g| node(g, depth - 1)))
        } else {
            let entries: BTreeMap<String, Value> = g
                .vec(0, 4, |g| (g.ident(1, 4), node(g, depth - 1)))
                .into_iter()
                .collect();
            Value::Map(entries)
        }
    }
    let entries: BTreeMap<String, Value> = g
        .vec(0, 4, |g| (g.ident(1, 4), node(g, 3)))
        .into_iter()
        .collect();
    Value::Map(entries)
}

#[test]
fn json_compact_roundtrip() {
    gen::cases(128, |g| {
        let v = arb_value(g, 4);
        let text = v.to_compact_string();
        assert_eq!(text.parse::<Value>().unwrap(), v, "{text}");
    });
}

#[test]
fn json_pretty_roundtrip() {
    gen::cases(128, |g| {
        let v = arb_value(g, 4);
        let text = v.to_pretty_string();
        assert_eq!(text.parse::<Value>().unwrap(), v, "{text}");
    });
}

#[test]
fn json_canonical_form_is_stable() {
    gen::cases(128, |g| {
        let v = arb_value(g, 4);
        let once = v.to_compact_string();
        let twice = once.parse::<Value>().unwrap().to_compact_string();
        assert_eq!(once, twice);
    });
}

/// Merging the same document repeatedly never changes the result.
#[test]
fn crdt_merge_idempotent() {
    gen::cases(64, |g| {
        let doc = arb_string_doc(g);
        let mut once = JsonCrdt::new(ReplicaId(1));
        once.merge_value(&doc).unwrap();
        let mut many = JsonCrdt::new(ReplicaId(1));
        for _ in 0..3 {
            many.merge_value(&doc).unwrap();
        }
        assert_eq!(once.to_value(), many.to_value());
    });
}

/// The same merge sequence always produces the same result (determinism
/// is what lets every peer converge in block order).
#[test]
fn crdt_merge_deterministic() {
    gen::cases(64, |g| {
        let docs = g.vec(1, 4, arb_string_doc);
        let run = || {
            let mut d = JsonCrdt::new(ReplicaId(1));
            for doc in &docs {
                d.merge_value(doc).unwrap();
            }
            d.to_value()
        };
        assert_eq!(run(), run());
    });
}

/// A single merged document converts back to itself (roundtrip through
/// the CRDT, modulo the string-leaf normalization which arb_string_doc
/// never triggers).
#[test]
fn crdt_single_source_roundtrip() {
    gen::cases(64, |g| {
        let doc = arb_string_doc(g);
        let mut d = JsonCrdt::new(ReplicaId(1));
        d.merge_value(&doc).unwrap();
        assert_eq!(d.to_value(), doc);
    });
}

/// Merging sources with disjoint top-level keys is order-insensitive.
#[test]
fn crdt_disjoint_sources_commute() {
    gen::cases(64, |g| {
        let side = |g: &mut Gen, prefix: &str| {
            let entries: BTreeMap<String, Value> = g
                .vec(0, 4, |g| {
                    (
                        format!("{prefix}{}", g.ident(1, 3)),
                        Value::string(g.ident(1, 6)),
                    )
                })
                .into_iter()
                .collect();
            Value::Map(entries)
        };
        let a = side(g, "a");
        let b = side(g, "b");
        let mut ab = JsonCrdt::new(ReplicaId(1));
        ab.merge_value(&a).unwrap();
        ab.merge_value(&b).unwrap();
        let mut ba = JsonCrdt::new(ReplicaId(1));
        ba.merge_value(&b).unwrap();
        ba.merge_value(&a).unwrap();
        assert_eq!(ab.to_value(), ba.to_value());
    });
}

/// No update loss: every distinct list item contributed by any source
/// survives the merge (the paper's "no update loss" requirement).
#[test]
fn crdt_list_items_never_lost() {
    gen::cases(64, |g| {
        let lists = g.vec(1, 3, |g| g.vec(0, 4, |g| g.string_of("abcdef012", 1, 6)));
        let mut doc = JsonCrdt::new(ReplicaId(1));
        for items in &lists {
            let source = Value::Map(
                [(
                    "l".to_owned(),
                    Value::list(items.iter().map(|s| Value::string(s.clone()))),
                )]
                .into_iter()
                .collect(),
            );
            doc.merge_value(&source).unwrap();
        }
        let merged = doc.to_value();
        let merged_items: Vec<&str> = merged
            .get("l")
            .map(|l| {
                l.as_list()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_str().unwrap())
                    .collect()
            })
            .unwrap_or_default();
        for items in &lists {
            for item in items {
                assert!(merged_items.contains(&item.as_str()), "lost item {item:?}");
            }
        }
    });
}

/// Two sources writing the same list key converge to the same value
/// regardless of merge order: list-element identity is content-addressed
/// and ordering is deterministic, so list unions are order-insensitive
/// (unlike registers, which arbitrate by merge order — the property
/// FabricCRDT gets from identical block order).
#[test]
fn crdt_list_unions_commute() {
    gen::cases(64, |g| {
        let a = g.vec(0, 6, |g| g.string_of("abcdef012", 1, 6));
        let b = g.vec(0, 6, |g| g.string_of("abcdef012", 1, 6));
        let src = |items: &[String]| {
            Value::Map(
                [(
                    "l".to_owned(),
                    Value::list(items.iter().map(|s| Value::string(s.clone()))),
                )]
                .into_iter()
                .collect(),
            )
        };
        let mut ab = JsonCrdt::new(ReplicaId(1));
        ab.merge_value(&src(&a)).unwrap();
        ab.merge_value(&src(&b)).unwrap();
        let mut ba = JsonCrdt::new(ReplicaId(1));
        ba.merge_value(&src(&b)).unwrap();
        ba.merge_value(&src(&a)).unwrap();
        assert_eq!(ab.to_value(), ba.to_value());
    });
}

/// Merge work counters are deterministic.
#[test]
fn crdt_work_deterministic() {
    gen::cases(64, |g| {
        let doc = arb_string_doc(g);
        let run = || {
            let mut d = JsonCrdt::new(ReplicaId(1));
            d.merge_value(&doc).unwrap()
        };
        assert_eq!(run(), run());
    });
}

/// The JSON parser is total: arbitrary input never panics.
#[test]
fn parser_is_total() {
    gen::cases(256, |g| {
        let input: String = g
            .vec(0, 60, |g| {
                char::from_u32(g.range(1, 0xd800) as u32).unwrap()
            })
            .into_iter()
            .collect();
        let _ = Value::parse(&input);
        // And inputs biased toward JSON-looking text.
        let jsonish = g.string_of("{}[]\",:.0123456789truefalsenul \\", 0, 60);
        let _ = Value::parse(&jsonish);
    });
}

/// ... including arbitrary non-UTF-8 byte strings via from_bytes.
#[test]
fn from_bytes_is_total() {
    gen::cases(256, |g| {
        let bytes = g.bytes(0, 200);
        let _ = Value::from_bytes(&bytes);
    });
}

/// Text the other generators never draw: quotes, backslashes, control
/// characters and multi-byte characters next to one another, where a
/// run of plain bytes ends in the middle of the string.
fn arb_hostile_text(g: &mut Gen) -> String {
    let alphabet = "\"\\/\u{8}\u{c}\n\r\t\u{1}\u{1f}\u{7f} abu\u{e9}\u{65e5}\u{1f600}\u{10ffff}";
    g.string_of(alphabet, 0, 16)
}

/// Any string survives compact and pretty serialisation and `to_bytes`,
/// alone, as a map key and inside a list, and `ItemKey` hashes exactly
/// the compact text (the serialiser writes into the hash; no `String`
/// in between).
#[test]
fn hostile_strings_roundtrip_and_hash_as_their_compact_text() {
    gen::cases(256, |g| {
        let text = arb_hostile_text(g);
        let nested: Value = [(arb_hostile_text(g), Value::list([Value::string(&text)]))]
            .into_iter()
            .collect();
        for v in [Value::string(&text), nested, arb_value(g, 3)] {
            assert_eq!(v.to_compact_string().parse::<Value>().unwrap(), v);
            assert_eq!(v.to_pretty_string().parse::<Value>().unwrap(), v);
            assert_eq!(Value::from_bytes(&v.to_bytes()).unwrap(), v);
            let index = g.size(0, 9);
            let key = ItemKey::derive(index, &v);
            assert_eq!(key.index, index as u64);
            assert_eq!(key.hash, fnv1a(v.to_compact_string().as_bytes()));
        }
    });
}

/// Escapes, `\u` escapes and surrogate pairs beside raw multi-byte
/// text: what each parses to, what it serialises back to, and every
/// error with its byte offset — recorded from the byte-at-a-time parser
/// this one replaced.
#[test]
fn string_escapes_parse_serialise_and_fail_where_they_did() {
    let parsed = [
        (
            r#""a\"b\\c\/d\b\f\n\r\t""#,
            "a\"b\\c/d\u{8}\u{c}\n\r\t",
            r#""a\"b\\c/d\b\f\n\r\t""#,
        ),
        (
            "\"\u{e9}\\n\u{1f600}\\\"x\"",
            "\u{e9}\n\u{1f600}\"x",
            "\"\u{e9}\\n\u{1f600}\\\"x\"",
        ),
        (
            r#""\u00e9\ud83d\ude00""#,
            "\u{e9}\u{1f600}",
            "\"\u{e9}\u{1f600}\"",
        ),
        (
            r#""\ud800\udc00\udbff\udfff\uffff""#,
            "\u{10000}\u{10ffff}\u{ffff}",
            "\"\u{10000}\u{10ffff}\u{ffff}\"",
        ),
        (
            r#""\u0000\u001f\u007f""#,
            "\0\u{1f}\u{7f}",
            "\"\\u0000\\u001f\u{7f}\"",
        ),
        (
            "\"\u{65e5}\u{672c}\\\"\u{30c6}\\\\\u{30b9}\"",
            "\u{65e5}\u{672c}\"\u{30c6}\\\u{30b9}",
            "\"\u{65e5}\u{672c}\\\"\u{30c6}\\\\\u{30b9}\"",
        ),
    ];
    for (input, text, compact) in parsed {
        let value: Value = input.parse().unwrap();
        assert_eq!(value.as_str(), Some(text), "{input}");
        assert_eq!(value.to_compact_string(), compact, "{input}");
    }
    let key: Value = "{\"k\\n\u{e9}\":\"v\\t\"}".parse().unwrap();
    assert_eq!(key.to_pretty_string(), "{\n  \"k\\n\u{e9}\": \"v\\t\"\n}");

    let failures = [
        (
            r#""x\ud83d""#,
            "high surrogate not followed by \\u escape at byte 9",
        ),
        (
            r#""x\ud83dzz""#,
            "high surrogate not followed by \\u escape at byte 9",
        ),
        (r#""\ud83d\u0041""#, "invalid low surrogate at byte 13"),
        (r#""\ude00""#, "unexpected low surrogate at byte 7"),
        (r#""ab\x""#, "invalid escape sequence at byte 4"),
        (r#""ab\"#, "invalid escape sequence at byte 3"),
        ("{\"a\":\"\u{e9}\\", "invalid escape sequence at byte 8"),
        (r#""ab"#, "unterminated string at byte 3"),
        ("\"\u{e9}\u{1f600}", "unterminated string at byte 7"),
        (
            "\"a\u{1}b\"",
            "unescaped control character in string at byte 2",
        ),
        (
            "\"\u{e9}\nb\"",
            "unescaped control character in string at byte 3",
        ),
        (
            "\"tab\there\"",
            "unescaped control character in string at byte 4",
        ),
        (r#""\u12g4""#, "invalid hex digit in \\u escape at byte 5"),
        (r#""\u12"#, "truncated \\u escape at byte 5"),
        ("[true, xalse]", "unexpected character 'x' at byte 7"),
    ];
    for (input, message) in failures {
        let error = input.parse::<Value>().unwrap_err();
        assert_eq!(error.to_string(), message, "{input:?}");
    }
    let not_utf8 = Value::from_bytes(b"\"\xc3\"").unwrap_err();
    assert_eq!(not_utf8.to_string(), "input is not valid UTF-8 at byte 0");
}
