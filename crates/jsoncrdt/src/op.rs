//! List-element identity: the key a list item of a JSON CRDT document
//! is stored under.

use crate::json::ser::{self, Sink};
use crate::json::Value;

/// Identity of a list element.
///
/// Real JSON CRDTs identify list elements by the id of the operation that
/// inserted them, shared through a common operation history. FabricCRDT
/// peers reconstruct CRDTs from *plain JSON* write-set values (Algorithm 1
/// line 9), so two transactions that both carry the unchanged committed
/// prefix of a list must map that prefix onto the *same* element
/// identities or every block would duplicate it. We therefore derive
/// element identity from content and position: `(source index,
/// content hash)`. Identical `(index, content)` pairs from different
/// transactions merge idempotently (the "no duplication" half of the
/// paper's §2.2 requirement); divergent suffixes get distinct identities
/// and are all preserved (the "no update loss" requirement, §4.2),
/// ordered deterministically by `(index, hash)` on every peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemKey {
    /// Position of the element in the source JSON list.
    pub index: u64,
    /// FNV-1a hash of the element's canonical serialization.
    pub hash: u64,
}

impl ItemKey {
    /// Derives the key for the element at `index` with content `value`;
    /// the compact serializer writes straight into the hash.
    pub fn derive(index: usize, value: &Value) -> Self {
        let mut hash = Fnv1a(FNV_OFFSET_BASIS);
        ser::write_compact(&mut hash, value);
        ItemKey {
            index: index as u64,
            hash: hash.0,
        }
    }
}

/// 64-bit FNV-1a hash; content addressing for list elements.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a(FNV_OFFSET_BASIS);
    hash.put_bytes(bytes);
    hash.0
}

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A running [`fnv1a`]: hashes the serializer's text as it is written.
struct Fnv1a(u64);

impl Fnv1a {
    fn put_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Sink for Fnv1a {
    fn put(&mut self, text: &str) {
        self.put_bytes(text.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_key_is_content_addressed() {
        let a = ItemKey::derive(0, &Value::string("50.0"));
        let b = ItemKey::derive(0, &Value::string("50.0"));
        let c = ItemKey::derive(0, &Value::string("50.1"));
        let d = ItemKey::derive(1, &Value::string("50.0"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn item_key_orders_by_index_first() {
        let early = ItemKey::derive(0, &Value::string("zzz"));
        let late = ItemKey::derive(1, &Value::string("aaa"));
        assert!(early < late);
    }

    #[test]
    fn fnv_known_values() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
