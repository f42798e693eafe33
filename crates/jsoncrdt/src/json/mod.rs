//! A self-contained JSON value model.
//!
//! The FabricCRDT chaincode programming model exchanges JSON documents, and
//! the JSON CRDT of Section 5.2 operates on maps, lists and strings. This
//! module provides the [`Value`] type plus a full parser ([`Value::parse`]) and
//! serializers — no external JSON dependency.
//!
//! Maps are backed by [`BTreeMap`] so iteration order (and therefore every
//! downstream hash, merge and simulation) is deterministic.

mod parse;
pub(crate) mod ser;

pub use parse::{ParseError, MAX_DEPTH};

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A JSON number.
///
/// Stored as an `f64`; equality and hashing use the canonical bit pattern
/// (with `-0.0` normalized to `0.0`) so that [`Value`] can implement `Eq`.
/// The paper's workloads carry numbers as strings (Section 5.2), so numeric
/// edge cases never reach the CRDT layer, but the JSON model is complete.
#[derive(Debug, Clone, Copy)]
pub struct Number(f64);

impl Number {
    /// Wraps an `f64`. `NaN` is normalized to a single canonical NaN.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            Number(f64::NAN)
        } else if v == 0.0 {
            Number(0.0)
        } else {
            Number(v)
        }
    }

    /// The numeric value.
    pub fn value(self) -> f64 {
        self.0
    }

    fn canonical_bits(self) -> u64 {
        if self.0.is_nan() {
            f64::NAN.to_bits()
        } else {
            self.0.to_bits()
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_bits() == other.canonical_bits()
    }
}

impl Eq for Number {}

impl std::hash::Hash for Number {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.canonical_bits().hash(state);
    }
}

impl PartialOrd for Number {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Number {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or_else(|| self.canonical_bits().cmp(&other.canonical_bits()))
    }
}

impl From<f64> for Number {
    fn from(v: f64) -> Self {
        Number::new(v)
    }
}

impl From<i64> for Number {
    fn from(v: i64) -> Self {
        Number::new(v as f64)
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_nan() || self.0.is_infinite() {
            // JSON has no NaN/Infinity; emit null like most serializers.
            write!(f, "null")
        } else if self.0 == self.0.trunc() && self.0.abs() < 1e15 {
            write!(f, "{}", self.0 as i64)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A JSON value: null, boolean, number, string, list or map.
///
/// # Examples
///
/// ```
/// use fabriccrdt_jsoncrdt::json::Value;
///
/// let v: Value = r#"{"deviceID": "Device1", "readings": ["50.5"]}"#.parse()?;
/// assert_eq!(v.get("deviceID").unwrap().as_str(), Some("Device1"));
/// assert_eq!(v.to_string(), r#"{"deviceID":"Device1","readings":["50.5"]}"#);
/// # Ok::<(), fabriccrdt_jsoncrdt::json::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A JSON number.
    Number(Number),
    /// A JSON string.
    String(String),
    /// A JSON array.
    List(Vec<Value>),
    /// A JSON object with deterministic (sorted) key order.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a JSON document from text.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first syntax error.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        parse::parse(input)
    }

    /// Builds an empty map value.
    pub fn empty_map() -> Value {
        Value::Map(BTreeMap::new())
    }

    /// Builds a string value.
    pub fn string(s: impl Into<String>) -> Value {
        Value::String(s.into())
    }

    /// Builds a list value from any iterator of values.
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Returns the string slice if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the number if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.value()),
            _ => None,
        }
    }

    /// Returns the bool if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the list slice if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the map if this is a map.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable access to the map if this is a map.
    pub fn as_map_mut(&mut self) -> Option<&mut BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable access to the list if this is a list.
    pub fn as_list_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up `key` if this is a map.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Inserts `key -> value` if this is a map; returns the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a map — inserting into a non-map is a
    /// programming error in the caller.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        self.as_map_mut()
            .expect("Value::insert requires a map")
            .insert(key.into(), value)
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes to compact JSON text (no whitespace). Map keys appear in
    /// sorted order, making the output canonical — two equal values always
    /// serialize identically, which the ledger relies on for hashing.
    pub fn to_compact_string(&self) -> String {
        ser::to_compact(self)
    }

    /// Serializes to human-readable, indented JSON text.
    pub fn to_pretty_string(&self) -> String {
        ser::to_pretty(self)
    }

    /// Serializes to canonical bytes (compact form).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_compact_string().into_bytes()
    }

    /// Parses a value from canonical bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the bytes are not valid UTF-8 JSON.
    pub fn from_bytes(bytes: &[u8]) -> Result<Value, ParseError> {
        let text = std::str::from_utf8(bytes).map_err(|_| ParseError::invalid_utf8())?;
        Value::parse(text)
    }

    /// Total number of nodes in the value tree (maps, lists, leaves). Used
    /// by the workload layer to size documents.
    pub fn node_count(&self) -> usize {
        match self {
            Value::List(items) => 1 + items.iter().map(Value::node_count).sum::<usize>(),
            Value::Map(m) => 1 + m.values().map(Value::node_count).sum::<usize>(),
            _ => 1,
        }
    }

    /// Maximum nesting depth (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Value::List(items) => 1 + items.iter().map(Value::depth).max().unwrap_or(0),
            Value::Map(m) => 1 + m.values().map(Value::depth).max().unwrap_or(0),
            _ => 1,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

impl FromStr for Value {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Value::parse(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(Number::new(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Number(Number::from(v))
    }
}

impl FromIterator<(String, Value)> for Value {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Value::Map(iter.into_iter().collect())
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Value::List(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let v: Value = r#"{"a": "x", "b": ["1", "2"], "c": true, "d": 3.5, "e": null}"#
            .parse()
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_list().unwrap().len(), 2);
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d").unwrap().as_number(), Some(3.5));
        assert!(v.get("e").unwrap().is_null());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn insert_into_map() {
        let mut v = Value::empty_map();
        assert!(v.insert("k", Value::string("v")).is_none());
        assert_eq!(
            v.insert("k", Value::string("w")).unwrap(),
            Value::string("v")
        );
        assert_eq!(v.get("k").unwrap().as_str(), Some("w"));
    }

    #[test]
    #[should_panic(expected = "requires a map")]
    fn insert_into_non_map_panics() {
        Value::Null.insert("k", Value::Null);
    }

    #[test]
    fn node_count_and_depth() {
        let v: Value = r#"{"a": {"b": ["x", "y"]}}"#.parse().unwrap();
        // map + map + list + 2 strings = 5 nodes
        assert_eq!(v.node_count(), 5);
        assert_eq!(v.depth(), 4);
        assert_eq!(Value::string("leaf").depth(), 1);
    }

    #[test]
    fn number_equality_normalizes_zero_and_nan() {
        assert_eq!(Number::new(0.0), Number::new(-0.0));
        assert_eq!(Number::new(f64::NAN), Number::new(f64::NAN));
        assert_ne!(Number::new(1.0), Number::new(2.0));
    }

    #[test]
    fn canonical_bytes_roundtrip() {
        let v: Value = r#"{"z": "1", "a": ["true", {"k": "v"}]}"#.parse().unwrap();
        let bytes = v.to_bytes();
        assert_eq!(Value::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn equal_values_have_equal_canonical_form() {
        let a: Value = r#"{ "x" : "1", "y" : "2" }"#.parse().unwrap();
        let b: Value = r#"{"y":"2","x":"1"}"#.parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_compact_string(), b.to_compact_string());
    }

    #[test]
    fn from_iterators() {
        let m: Value = vec![("a".to_owned(), Value::from("1"))]
            .into_iter()
            .collect();
        assert_eq!(m.get("a").unwrap().as_str(), Some("1"));
        let l: Value = vec![Value::from("1"), Value::from("2")]
            .into_iter()
            .collect();
        assert_eq!(l.as_list().unwrap().len(), 2);
    }
}
