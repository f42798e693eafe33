//! Cursors, mutations and operations — the vocabulary of the JSON CRDT.
//!
//! Following Kleppmann & Beresford (and Algorithm 2 of the FabricCRDT
//! paper), every modification of a JSON CRDT document is an [`Operation`]:
//! a globally unique id, a set of causal dependencies, a [`Cursor`]
//! describing the path from the document head to the mutation site, and the
//! [`Mutation`] itself.

use crate::clock::OpId;
use crate::json::ser::{self, Sink};
use crate::json::Value;
use std::fmt;
use std::sync::Arc;

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

impl fmt::Display for ItemKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}#{:08x}]", self.index, self.hash)
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

/// One step of a cursor path.
///
/// Map keys are shared `Arc<str>`s rather than owned `String`s: every
/// operation beneath a key carries a clone of the cursor that leads to
/// it, and each of those is a reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CursorElement {
    /// Descend into the map child with this key.
    Key(Arc<str>),
    /// Descend into the list element with this identity.
    ListItem(ItemKey),
}

impl fmt::Display for CursorElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CursorElement::Key(k) => write!(f, ".{k}"),
            CursorElement::ListItem(item) => write!(f, "{item}"),
        }
    }
}

/// A path from the head of the document to a mutation site
/// (paper Algorithm 2: `NewCursorElements` / `AddCursorElement` /
/// `RemoveCursorElement`).
///
/// # Examples
///
/// ```
/// use fabriccrdt_jsoncrdt::Cursor;
///
/// let mut cursor = Cursor::new();
/// cursor.push_key("readings");
/// assert_eq!(cursor.to_string(), ".readings");
/// cursor.pop();
/// assert!(cursor.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Cursor {
    elements: Vec<CursorElement>,
}

impl Cursor {
    /// An empty cursor pointing at the document head.
    pub fn new() -> Self {
        Cursor::default()
    }

    /// Appends a map-key step. Accepts `&str`, `String` or a shared
    /// `Arc<str>`.
    pub fn push_key(&mut self, key: impl Into<Arc<str>>) {
        self.elements.push(CursorElement::Key(key.into()));
    }

    /// Appends a list-element step.
    pub fn push_item(&mut self, item: ItemKey) {
        self.elements.push(CursorElement::ListItem(item));
    }

    /// Removes the last step.
    pub fn pop(&mut self) -> Option<CursorElement> {
        self.elements.pop()
    }

    /// The steps in order.
    pub fn elements(&self) -> &[CursorElement] {
        &self.elements
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the cursor points at the document head.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

impl fmt::Display for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.elements.is_empty() {
            return write!(f, "<head>");
        }
        for e in &self.elements {
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// The modification applied at a cursor target.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mutation {
    /// Assign a leaf (string) value to the register at the target
    /// (paper Algorithm 2, `NewInsertMutation`).
    Assign(String),
    /// Materialize a map at the target (needed so that empty maps survive
    /// the merge).
    MakeMap,
    /// Materialize a list at the target.
    MakeList,
    /// Delete the target: tombstones everything currently present beneath
    /// it. Concurrent (unseen) additions survive — add-wins semantics.
    Delete,
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::Assign(v) => write!(f, "assign {v:?}"),
            Mutation::MakeMap => write!(f, "make-map"),
            Mutation::MakeList => write!(f, "make-list"),
            Mutation::Delete => write!(f, "delete"),
        }
    }
}

/// Causal dependencies of an operation.
///
/// The dependency chains [`crate::JsonCrdt::merge_value`] generates
/// are transitively reduced, so in practice every operation has zero
/// or one dependency; those cases are inline. `Deps` derefs to
/// `&[OpId]`, so iteration and indexing read like a `Vec`'s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Deps {
    /// No dependencies (the first operation of a chain).
    #[default]
    None,
    /// A single dependency — what every merge-generated operation has.
    One(OpId),
    /// An arbitrary dependency set (hand-built operation graphs).
    Many(Vec<OpId>),
}

impl std::ops::Deref for Deps {
    type Target = [OpId];

    fn deref(&self) -> &[OpId] {
        match self {
            Deps::None => &[],
            Deps::One(id) => std::slice::from_ref(id),
            Deps::Many(ids) => ids,
        }
    }
}

impl From<Option<OpId>> for Deps {
    fn from(dep: Option<OpId>) -> Self {
        match dep {
            None => Deps::None,
            Some(id) => Deps::One(id),
        }
    }
}

impl From<OpId> for Deps {
    fn from(dep: OpId) -> Self {
        Deps::One(dep)
    }
}

impl From<Vec<OpId>> for Deps {
    fn from(deps: Vec<OpId>) -> Self {
        match deps.len() {
            0 => Deps::None,
            1 => Deps::One(deps[0]),
            _ => Deps::Many(deps),
        }
    }
}

/// An operation: unique id, causal dependencies, cursor, mutation
/// (paper Algorithm 2, `NewOperation`).
///
/// The dependency list is kept transitively reduced: each operation
/// depends on the previous operation generated from the same source JSON,
/// which transitively orders the whole source (the paper's `dependencies`
/// set grows instead; both encode the same causal order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Globally unique identifier.
    pub id: OpId,
    /// Ids that must be applied before this operation.
    pub deps: Deps,
    /// Path to the mutation site.
    pub cursor: Cursor,
    /// The modification.
    pub mutation: Mutation,
}

impl Operation {
    /// Creates an operation. `deps` accepts a `Vec<OpId>`, an
    /// `Option<OpId>`, a bare `OpId` or a [`Deps`].
    pub fn new(id: OpId, deps: impl Into<Deps>, cursor: Cursor, mutation: Mutation) -> Self {
        Operation {
            id,
            deps: deps.into(),
            cursor,
            mutation,
        }
    }

    /// The replica that generated this operation — the coordinate the
    /// document's version-vector frontier is indexed by.
    pub fn replica(&self) -> crate::clock::ReplicaId {
        self.id.replica
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} at {}", self.id, self.mutation, self.cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ReplicaId;

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

    #[test]
    fn cursor_push_pop() {
        let mut c = Cursor::new();
        assert!(c.is_empty());
        c.push_key("a");
        c.push_item(ItemKey::derive(2, &Value::string("x")));
        assert_eq!(c.len(), 2);
        assert!(matches!(c.pop(), Some(CursorElement::ListItem(_))));
        assert_eq!(c.pop(), Some(CursorElement::Key("a".into())));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn deps_inline_small_sets() {
        let a = OpId::new(1, ReplicaId(1));
        let b = OpId::new(2, ReplicaId(1));
        assert_eq!(Deps::from(vec![]), Deps::None);
        assert_eq!(Deps::from(vec![a]), Deps::One(a));
        assert_eq!(Deps::from(vec![a, b]), Deps::Many(vec![a, b]));
        assert_eq!(Deps::from(None), Deps::None);
        assert_eq!(Deps::from(Some(a)), Deps::One(a));
        // Deref: slice-identical views in every representation.
        assert!(Deps::None.is_empty());
        assert_eq!(&*Deps::One(a), &[a]);
        assert_eq!(Deps::Many(vec![a, b]).len(), 2);
        assert_eq!(Deps::default(), Deps::None);
    }

    #[test]
    fn display_forms() {
        let mut c = Cursor::new();
        assert_eq!(c.to_string(), "<head>");
        c.push_key("readings");
        assert!(c.to_string().contains("readings"));
        let op = Operation::new(
            OpId::new(1, ReplicaId(1)),
            vec![],
            c,
            Mutation::Assign("50.0".into()),
        );
        let s = op.to_string();
        assert!(s.contains("assign"));
        assert!(s.contains("readings"));
    }
}
