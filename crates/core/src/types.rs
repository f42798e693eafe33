//! Typed CRDT value envelopes.
//!
//! The paper's prototype merges JSON CRDTs; its conclusion plans "more
//! CRDTs, such as list, map, and graph CRDTs". This module adds that
//! extension: a CRDT-flagged write whose JSON carries a reserved
//! `"_crdt"` type tag is merged with the semantics of that datatype
//! instead of the generic JSON-document merge:
//!
//! | tag | state encoding | merge |
//! |---|---|---|
//! | `g-counter` | `{"_crdt":"g-counter","counts":{"<actor>":"<n>"}}` | per-actor max |
//! | `pn-counter` | `{"_crdt":"pn-counter","inc":{..},"dec":{..}}` | per-actor max, both halves |
//! | `g-set` | `{"_crdt":"g-set","elements":["…"]}` | set union |
//! | `lww` | `{"_crdt":"lww","value":"…","stamp":"<n>"}` | greatest stamp (value breaks ties) |
//!
//! Counts are carried as strings, per the paper's §5.2 convention that
//! chaincodes encode non-string scalars as strings. Committed state
//! keeps the same envelope, so the next block's read-modify-write
//! transactions merge against it seamlessly.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use fabriccrdt_jsoncrdt::json::Value;

/// Reserved type-tag key in CRDT value envelopes.
pub const TYPE_TAG: &str = "_crdt";

/// Error produced when a tagged envelope is malformed or two envelopes
/// for the same key disagree on type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypedCrdtError {
    /// The `_crdt` tag names no known datatype.
    UnknownType(String),
    /// The envelope is missing fields or has wrong field types.
    MalformedEnvelope(&'static str),
    /// Two values for one key carry different types.
    TypeMismatch {
        /// Type established by the first value of the block.
        expected: &'static str,
        /// Type carried by the offending value.
        got: &'static str,
    },
}

impl fmt::Display for TypedCrdtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypedCrdtError::UnknownType(t) => write!(f, "unknown CRDT type tag {t:?}"),
            TypedCrdtError::MalformedEnvelope(what) => {
                write!(f, "malformed CRDT envelope: {what}")
            }
            TypedCrdtError::TypeMismatch { expected, got } => {
                write!(f, "CRDT type mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl Error for TypedCrdtError {}

/// A typed CRDT state parsed from an envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypedCrdt {
    /// Grow-only counter: per-actor monotone counts.
    GCounter(BTreeMap<String, u64>),
    /// Increment/decrement counter: two grow-only halves.
    PnCounter {
        /// Per-actor increments.
        inc: BTreeMap<String, u64>,
        /// Per-actor decrements.
        dec: BTreeMap<String, u64>,
    },
    /// Grow-only set of strings.
    GSet(BTreeSet<String>),
    /// Last-writer-wins register with an explicit stamp.
    Lww {
        /// The value.
        value: String,
        /// Write stamp; greatest wins, value breaks ties.
        stamp: u64,
    },
}

fn parse_counts(
    value: Option<&Value>,
    field: &'static str,
) -> Result<BTreeMap<String, u64>, TypedCrdtError> {
    let Some(map) = value.and_then(Value::as_map) else {
        return Err(TypedCrdtError::MalformedEnvelope(field));
    };
    map.iter()
        .map(|(actor, count)| {
            count
                .as_str()
                .and_then(|s| s.parse::<u64>().ok())
                .map(|n| (actor.clone(), n))
                .ok_or(TypedCrdtError::MalformedEnvelope(field))
        })
        .collect()
}

fn counts_to_value(counts: &BTreeMap<String, u64>) -> Value {
    Value::Map(
        counts
            .iter()
            .map(|(actor, n)| (actor.clone(), Value::string(n.to_string())))
            .collect(),
    )
}

fn merge_counts(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
    for (actor, &count) in from {
        let slot = into.entry(actor.clone()).or_insert(0);
        *slot = (*slot).max(count);
    }
}

impl TypedCrdt {
    /// Parses a typed envelope. Returns `None` when the value carries no
    /// `_crdt` tag (i.e. it is a generic JSON-document CRDT).
    ///
    /// # Errors
    ///
    /// Returns an error for a tagged but malformed or unknown envelope.
    pub fn parse(value: &Value) -> Option<Result<TypedCrdt, TypedCrdtError>> {
        let tag = value.get(TYPE_TAG)?.as_str().unwrap_or("");
        Some(Self::parse_tagged(tag, value))
    }

    fn parse_tagged(tag: &str, value: &Value) -> Result<TypedCrdt, TypedCrdtError> {
        match tag {
            "g-counter" => Ok(TypedCrdt::GCounter(parse_counts(
                value.get("counts"),
                "counts",
            )?)),
            "pn-counter" => Ok(TypedCrdt::PnCounter {
                inc: parse_counts(value.get("inc"), "inc")?,
                dec: parse_counts(value.get("dec"), "dec")?,
            }),
            "g-set" => {
                let Some(list) = value.get("elements").and_then(Value::as_list) else {
                    return Err(TypedCrdtError::MalformedEnvelope("elements"));
                };
                let elements = list
                    .iter()
                    .map(|e| {
                        e.as_str()
                            .map(str::to_owned)
                            .ok_or(TypedCrdtError::MalformedEnvelope("elements"))
                    })
                    .collect::<Result<BTreeSet<String>, _>>()?;
                Ok(TypedCrdt::GSet(elements))
            }
            "lww" => {
                let value_field = value
                    .get("value")
                    .and_then(Value::as_str)
                    .ok_or(TypedCrdtError::MalformedEnvelope("value"))?;
                let stamp = value
                    .get("stamp")
                    .and_then(Value::as_str)
                    .and_then(|s| s.parse().ok())
                    .ok_or(TypedCrdtError::MalformedEnvelope("stamp"))?;
                Ok(TypedCrdt::Lww {
                    value: value_field.to_owned(),
                    stamp,
                })
            }
            other => Err(TypedCrdtError::UnknownType(other.to_owned())),
        }
    }

    /// The type tag of this state.
    pub fn tag(&self) -> &'static str {
        match self {
            TypedCrdt::GCounter(_) => "g-counter",
            TypedCrdt::PnCounter { .. } => "pn-counter",
            TypedCrdt::GSet(_) => "g-set",
            TypedCrdt::Lww { .. } => "lww",
        }
    }

    /// Joins another state of the same type into this one.
    ///
    /// # Errors
    ///
    /// Returns [`TypedCrdtError::TypeMismatch`] for differing types.
    pub fn merge(&mut self, other: &TypedCrdt) -> Result<(), TypedCrdtError> {
        match (self, other) {
            (TypedCrdt::GCounter(a), TypedCrdt::GCounter(b)) => {
                merge_counts(a, b);
                Ok(())
            }
            (
                TypedCrdt::PnCounter { inc, dec },
                TypedCrdt::PnCounter {
                    inc: other_inc,
                    dec: other_dec,
                },
            ) => {
                merge_counts(inc, other_inc);
                merge_counts(dec, other_dec);
                Ok(())
            }
            (TypedCrdt::GSet(a), TypedCrdt::GSet(b)) => {
                a.extend(b.iter().cloned());
                Ok(())
            }
            (
                TypedCrdt::Lww { value, stamp },
                TypedCrdt::Lww {
                    value: other_value,
                    stamp: other_stamp,
                },
            ) => {
                if (*other_stamp, other_value) > (*stamp, value) {
                    *value = other_value.clone();
                    *stamp = *other_stamp;
                }
                Ok(())
            }
            (this, other) => Err(TypedCrdtError::TypeMismatch {
                expected: this.tag(),
                got: other.tag(),
            }),
        }
    }

    /// The numeric value of a counter state, if this is a counter.
    pub fn counter_value(&self) -> Option<i64> {
        match self {
            TypedCrdt::GCounter(counts) => Some(counts.values().sum::<u64>() as i64),
            TypedCrdt::PnCounter { inc, dec } => {
                Some(inc.values().sum::<u64>() as i64 - dec.values().sum::<u64>() as i64)
            }
            _ => None,
        }
    }

    /// Serializes back into the committed envelope. Counters include a
    /// redundant `"value"` field for human consumption; it is ignored on
    /// parse.
    pub fn to_value(&self) -> Value {
        let mut map = Value::empty_map();
        map.insert(TYPE_TAG, Value::string(self.tag()));
        match self {
            TypedCrdt::GCounter(counts) => {
                map.insert("counts", counts_to_value(counts));
                map.insert(
                    "value",
                    Value::string(self.counter_value().unwrap_or(0).to_string()),
                );
            }
            TypedCrdt::PnCounter { inc, dec } => {
                map.insert("inc", counts_to_value(inc));
                map.insert("dec", counts_to_value(dec));
                map.insert(
                    "value",
                    Value::string(self.counter_value().unwrap_or(0).to_string()),
                );
            }
            TypedCrdt::GSet(elements) => {
                map.insert(
                    "elements",
                    Value::list(elements.iter().map(|e| Value::string(e.clone()))),
                );
            }
            TypedCrdt::Lww { value, stamp } => {
                map.insert("value", Value::string(value.clone()));
                map.insert("stamp", Value::string(stamp.to_string()));
            }
        }
        map
    }

    /// Abstract merge work units for the cost model.
    pub fn work_units(&self) -> u64 {
        match self {
            TypedCrdt::GCounter(counts) => counts.len() as u64 + 1,
            TypedCrdt::PnCounter { inc, dec } => (inc.len() + dec.len()) as u64 + 1,
            TypedCrdt::GSet(elements) => elements.len() as u64 + 1,
            TypedCrdt::Lww { .. } => 1,
        }
    }
}

/// Chaincode-side envelope builders.
pub mod envelope {
    use super::*;

    /// A g-counter increment: this actor's count *after* the increment.
    /// Read-modify-write: read the committed envelope, bump your own
    /// count, submit.
    pub fn g_counter(counts: &BTreeMap<String, u64>) -> Value {
        TypedCrdt::GCounter(counts.clone()).to_value()
    }

    /// An LWW register write.
    pub fn lww(value: impl Into<String>, stamp: u64) -> Value {
        TypedCrdt::Lww {
            value: value.into(),
            stamp,
        }
        .to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(text: &str) -> Value {
        text.parse().unwrap()
    }

    #[test]
    fn untagged_values_are_not_typed() {
        assert!(TypedCrdt::parse(&v(r#"{"deviceID":"d"}"#)).is_none());
        assert!(TypedCrdt::parse(&v(r#"["list"]"#)).is_none());
    }

    #[test]
    fn g_counter_roundtrip_and_merge() {
        let a = TypedCrdt::parse(&v(r#"{"_crdt":"g-counter","counts":{"alice":"3"}}"#))
            .unwrap()
            .unwrap();
        let b = TypedCrdt::parse(&v(
            r#"{"_crdt":"g-counter","counts":{"bob":"4","alice":"1"}}"#,
        ))
        .unwrap()
        .unwrap();
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        assert_eq!(merged.counter_value(), Some(7)); // max(3,1) + 4
                                                     // Roundtrip through the envelope.
        let reparsed = TypedCrdt::parse(&merged.to_value()).unwrap().unwrap();
        assert_eq!(reparsed, merged);
    }

    #[test]
    fn pn_counter_merge() {
        let a = TypedCrdt::parse(&v(
            r#"{"_crdt":"pn-counter","inc":{"a":"10"},"dec":{"a":"2"}}"#,
        ))
        .unwrap()
        .unwrap();
        let b = TypedCrdt::parse(&v(r#"{"_crdt":"pn-counter","inc":{"b":"1"},"dec":{}}"#))
            .unwrap()
            .unwrap();
        let mut merged = a;
        merged.merge(&b).unwrap();
        assert_eq!(merged.counter_value(), Some(9));
    }

    #[test]
    fn g_set_union() {
        let a = TypedCrdt::parse(&v(r#"{"_crdt":"g-set","elements":["x","y"]}"#))
            .unwrap()
            .unwrap();
        let b = TypedCrdt::parse(&v(r#"{"_crdt":"g-set","elements":["y","z"]}"#))
            .unwrap()
            .unwrap();
        let mut merged = a;
        merged.merge(&b).unwrap();
        assert_eq!(
            merged,
            TypedCrdt::GSet(["x", "y", "z"].iter().map(|s| s.to_string()).collect())
        );
    }

    #[test]
    fn lww_greatest_stamp_wins() {
        let old = TypedCrdt::parse(&v(r#"{"_crdt":"lww","value":"old","stamp":"1"}"#))
            .unwrap()
            .unwrap();
        let new = TypedCrdt::parse(&v(r#"{"_crdt":"lww","value":"new","stamp":"2"}"#))
            .unwrap()
            .unwrap();
        for (mut a, b) in [(old.clone(), &new), (new.clone(), &old)] {
            a.merge(b).unwrap();
            assert!(matches!(a, TypedCrdt::Lww { ref value, .. } if value == "new"));
        }
    }

    #[test]
    fn lww_tie_breaks_on_value() {
        let a = TypedCrdt::Lww {
            value: "a".into(),
            stamp: 5,
        };
        let b = TypedCrdt::Lww {
            value: "b".into(),
            stamp: 5,
        };
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba); // deterministic regardless of order
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut counter = TypedCrdt::GCounter(BTreeMap::new());
        let set = TypedCrdt::GSet(BTreeSet::new());
        assert_eq!(
            counter.merge(&set).unwrap_err(),
            TypedCrdtError::TypeMismatch {
                expected: "g-counter",
                got: "g-set"
            }
        );
    }

    #[test]
    fn malformed_envelopes_error() {
        for text in [
            r#"{"_crdt":"g-counter"}"#,
            r#"{"_crdt":"g-counter","counts":{"a":"NaN"}}"#,
            r#"{"_crdt":"g-set","elements":"not-a-list"}"#,
            r#"{"_crdt":"lww","value":"x"}"#,
            r#"{"_crdt":"nope"}"#,
        ] {
            assert!(TypedCrdt::parse(&v(text)).unwrap().is_err(), "{text}");
        }
    }

    #[test]
    fn envelope_builders_parse_back() {
        let counts: BTreeMap<String, u64> = [("me".to_owned(), 7u64)].into_iter().collect();
        let built = envelope::g_counter(&counts);
        let parsed = TypedCrdt::parse(&built).unwrap().unwrap();
        assert_eq!(parsed.counter_value(), Some(7));

        let built = envelope::lww("v", 3);
        assert!(TypedCrdt::parse(&built).unwrap().is_ok());
    }

    #[test]
    fn merge_is_idempotent_and_commutative() {
        let a = TypedCrdt::parse(&v(r#"{"_crdt":"g-counter","counts":{"a":"2","b":"5"}}"#))
            .unwrap()
            .unwrap();
        let b = TypedCrdt::parse(&v(r#"{"_crdt":"g-counter","counts":{"b":"3","c":"1"}}"#))
            .unwrap()
            .unwrap();
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        ab.merge(&b).unwrap(); // idempotent
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba);
    }
}
