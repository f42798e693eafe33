//! Hostile client input.
//!
//! A byzantine client cannot forge blocks — the orderer seals those —
//! but it controls its write values outright: arbitrary bytes where
//! JSON is expected, and arbitrary JSON where a map is expected. No
//! client ever hands a peer a CRDT operation (every peer derives its
//! own from the block), so these two are the whole surface:
//! [`parse_hostile_bytes`] and [`merge_hostile_value`] must never
//! panic. `crates/core/tests/properties.rs` drives hostile values
//! through Algorithm 1 itself.

use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::{JsonCrdt, ReplicaId};

/// Feeds `bytes` to the JSON parser, returning whether they parsed.
/// The property is absence of panics; rejection is the expected
/// outcome for almost every draw.
pub fn parse_hostile_bytes(bytes: &[u8]) -> bool {
    Value::from_bytes(bytes).is_ok()
}

/// Merges a hostile value into a fresh document the way Algorithm 1
/// does ([`JsonCrdt::merge_value`]): the merge path rejects non-map
/// heads with a typed error and never panics. Returns whether the value
/// merged.
pub fn merge_hostile_value(value: &Value) -> bool {
    let mut doc = JsonCrdt::new(ReplicaId(3));
    doc.merge_value(value).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_sim::gen;

    #[test]
    fn random_bytes_never_panic_the_parser() {
        gen::cases(50, |g| {
            let bytes = g.bytes(0, 200);
            let _ = parse_hostile_bytes(&bytes);
        });
    }

    #[test]
    fn non_map_heads_are_rejected_not_panicked() {
        assert!(!merge_hostile_value(&Value::String("naked".into())));
        assert!(!merge_hostile_value(&Value::List(vec![Value::Null])));
        assert!(merge_hostile_value(&Value::parse(r#"{"k":"v"}"#).unwrap()));
    }
}
