//! The JSON CRDT document.
//!
//! A [`JsonCrdt`] is a tree of map, list and register entries that
//! plain JSON values merge into. [`JsonCrdt::merge_value`] implements
//! **Algorithm 2** of the FabricCRDT paper: it folds a JSON object into
//! the document, one operation per node of the source value, each
//! applied at the tree entry in hand, in one walk over both.
//! [`JsonCrdt::to_value`] and [`JsonCrdt::write_bytes`] implement the
//! paper's `ConvertCRDTToDataType`: they strip all CRDT metadata and
//! return plain JSON (Algorithm 1, lines 20–21).
//!
//! Every peer derives the same operations from the same block order
//! (§5.2), so no document ever receives another's operations: merging
//! values is all it does.
//!
//! # Conflict semantics
//!
//! - **Registers** (leaf strings) keep the newest assignment: each merge
//!   overwrites the register, and every peer merges the transactions of
//!   a block in the same block order (the property §5.2 exploits), so
//!   this is last-writer-wins in block order on every peer. No operation
//!   needs an id to say which assignment is newest.
//! - **Maps** merge key-wise, recursively.
//! - **Lists** are unions of content-addressed elements (see
//!   [`crate::op::ItemKey`]) ordered by `(source index, content hash)`:
//!   common prefixes deduplicate, divergent suffixes are all preserved —
//!   this is what produces the merged readings list of paper Listing 2.
//! - **Type conflicts** (one transaction writes a string, another a map at
//!   the same key) keep all branches internally; conversion prefers
//!   map over list over register, deterministically on every peer.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::json::ser::{self, Sink};
use crate::json::{Value, MAX_DEPTH};
use crate::op::ItemKey;
use crate::work::WorkStats;

/// An entry in a map (under a string key) or in a list (under an
/// [`ItemKey`]). Kleppmann-style: the entry holds one branch per possible
/// type so that differently typed writes never clobber each other. The
/// walk creates an entry only to merge a value into it, so every entry
/// has at least one branch.
#[derive(Debug, Clone, Default)]
struct Entry {
    /// Register: the newest leaf assigned here, as its string form.
    reg: Option<String>,
    /// Map branch.
    map: Option<MapNode>,
    /// List branch.
    list: Option<ListNode>,
}

#[derive(Debug, Clone, Default)]
struct MapNode {
    children: BTreeMap<String, Entry>,
}

#[derive(Debug, Clone, Default)]
struct ListNode {
    items: BTreeMap<ItemKey, Entry>,
}

/// The branch conversion shows of an entry. Precedence on type
/// conflicts: map > list > register, except that an empty container
/// gives way to anything else the entry holds.
enum Shown<'a> {
    Map(&'a MapNode),
    List(&'a ListNode),
    Register(&'a str),
}

impl Entry {
    fn shown(&self) -> Option<Shown<'_>> {
        if let Some(map) = &self.map {
            if !map.children.is_empty() || self.reg.is_none() && self.list.is_none() {
                return Some(Shown::Map(map));
            }
        }
        if let Some(list) = &self.list {
            if !list.items.is_empty() || self.reg.is_none() {
                return Some(Shown::List(list));
            }
        }
        self.reg.as_deref().map(Shown::Register)
    }
}

impl Shown<'_> {
    /// Converts to plain JSON.
    fn to_value(&self) -> Value {
        match *self {
            Shown::Map(map) => Value::Map(map.to_value()),
            Shown::List(list) => Value::List(
                list.items
                    .values()
                    .filter_map(Entry::shown)
                    .map(|item| item.to_value())
                    .collect(),
            ),
            Shown::Register(text) => Value::string(text),
        }
    }

    /// Appends the canonical bytes of [`Shown::to_value`] to `out`.
    fn write_bytes(&self, out: &mut Vec<u8>) {
        match *self {
            Shown::Map(map) => map.write_bytes(out),
            Shown::List(list) => {
                let start = out.len();
                out.put("[");
                for item in list.items.values().filter_map(Entry::shown) {
                    item.write_bytes(out);
                    out.put(",");
                }
                close(out, start, "]");
            }
            Shown::Register(text) => ser::write_string(out, text),
        }
    }
}

impl MapNode {
    /// The children that show, in key order.
    fn shown(&self) -> impl Iterator<Item = (&String, Shown<'_>)> {
        self.children
            .iter()
            .filter_map(|(key, child)| Some((key, child.shown()?)))
    }

    fn to_value(&self) -> BTreeMap<String, Value> {
        self.shown()
            .map(|(key, child)| (key.clone(), child.to_value()))
            .collect()
    }

    /// Appends the canonical bytes of [`MapNode::to_value`] to `out`.
    fn write_bytes(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.put("{");
        for (key, child) in self.shown() {
            ser::write_string(out, key);
            out.put(":");
            child.write_bytes(out);
            out.put(",");
        }
        close(out, start, "}");
    }
}

/// Ends the container opened at `start`: the separator after its last
/// element, if it has one, becomes the bracket.
fn close(out: &mut Vec<u8>, start: usize, bracket: &str) {
    if out.len() > start + 1 {
        out.pop();
    }
    out.put(bracket);
}

/// Errors from merging values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// `merge_value` requires the source to be a JSON map — the document
    /// head is a map, exactly as in the paper's chaincode model.
    RootNotMap,
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::RootNotMap => write!(f, "merge source must be a JSON map"),
        }
    }
}

impl Error for DocError {}

/// Names the peer that holds a document. [`JsonCrdt::new`] takes one
/// and reads nothing of it: every peer derives the same operations from
/// the same block order, so no operation carries an id (§5.2). The
/// parameter is pinned for `perf/` (DESIGN.md §4.16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaId(pub u64);

/// A JSON CRDT document (paper §5.2).
///
/// # Examples
///
/// Reproducing the paper's Listing 1 → Listing 2 merge:
///
/// ```
/// use fabriccrdt_jsoncrdt::{json::Value, JsonCrdt, ReplicaId};
///
/// let tx1: Value = r#"{"deviceID": "Device1", "readings": ["51.0", "49.5"]}"#.parse()?;
/// let tx2: Value = r#"{"deviceID": "Device1", "readings": ["50.0"]}"#.parse()?;
///
/// let mut doc = JsonCrdt::new(ReplicaId(1));
/// doc.merge_value(&tx1)?;
/// doc.merge_value(&tx2)?;
///
/// let merged = doc.to_value();
/// assert_eq!(merged.get("deviceID").unwrap().as_str(), Some("Device1"));
/// // All three readings survive the merge — no update loss.
/// assert_eq!(merged.get("readings").unwrap().as_list().unwrap().len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct JsonCrdt {
    root: MapNode,
    /// The operations applied so far, counted (DESIGN.md §4.1).
    work: WorkStats,
}

impl JsonCrdt {
    /// Creates an empty document (paper Algorithm 1, `InitEmptyCRDT`).
    /// See [`ReplicaId`] for why `_replica` is unread.
    pub fn new(_replica: ReplicaId) -> Self {
        JsonCrdt {
            root: MapNode::default(),
            work: WorkStats::new(),
        }
    }

    /// Number of operations applied so far.
    pub fn applied_len(&self) -> usize {
        self.work.ops_applied as usize
    }

    /// Accumulated work counters (see [`WorkStats`]).
    pub fn work(&self) -> WorkStats {
        self.work
    }

    /// Merges a plain JSON object into the document — **Algorithm 2** of
    /// the paper (`MergeCRDT`). Returns the work performed by this merge.
    ///
    /// Non-string leaves (numbers, booleans, null) are carried as their
    /// canonical string forms, per the paper's §5.2 convention that
    /// chaincodes convert other datatypes to strings.
    ///
    /// # Errors
    ///
    /// Returns [`DocError::RootNotMap`] if `json` is not a JSON map.
    pub fn merge_value(&mut self, json: &Value) -> Result<WorkStats, DocError> {
        let map = json.as_map().ok_or(DocError::RootNotMap)?;
        let before = self.work;
        merge_map(&mut self.work, &mut self.root, map, 1);
        let after = self.work;
        Ok(WorkStats {
            ops_applied: after.ops_applied - before.ops_applied,
            nodes_visited: after.nodes_visited - before.nodes_visited,
        })
    }

    /// Converts the document to plain JSON, stripping all CRDT metadata
    /// (paper Algorithm 1 line 20, `ConvertCRDTToDataType`).
    pub fn to_value(&self) -> Value {
        Value::Map(self.root.to_value())
    }

    /// Appends `self.to_value().to_bytes()` to `out` — the converged
    /// write value of Algorithm 1 line 20 — without building the
    /// [`Value`] in between.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        self.root.write_bytes(out);
    }
}

/// The string form a leaf's register holds (containers never ask).
fn leaf_text(leaf: &Value) -> Cow<'_, str> {
    match leaf {
        Value::String(s) => Cow::Borrowed(s),
        Value::Number(n) => Cow::Owned(n.to_string()),
        Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
        _ => Cow::Borrowed("null"),
    }
}

/// Appends what [`JsonCrdt::new`], [`JsonCrdt::merge_value`]`(json)` and
/// [`JsonCrdt::write_bytes`] would, and returns the work that merge
/// counts (one operation per node, visiting its depth) — without the
/// document: Algorithm 1 for a key written once (DESIGN.md §4.1).
///
/// # Errors
///
/// Returns [`DocError::RootNotMap`] if `json` is not a JSON map.
pub fn write_alone(json: &Value, out: &mut Vec<u8>) -> Result<WorkStats, DocError> {
    let map = json.as_map().ok_or(DocError::RootNotMap)?;
    let mut work = WorkStats::new();
    alone_map(&mut work, map, 1, out);
    Ok(work)
}

/// [`merge_map`] into an empty node, then [`MapNode::write_bytes`].
fn alone_map(work: &mut WorkStats, map: &BTreeMap<String, Value>, depth: u64, out: &mut Vec<u8>) {
    let start = out.len();
    out.put("{");
    for (key, value) in map {
        ser::write_string(out, key);
        out.put(":");
        alone_node(work, value, depth, out);
        out.put(",");
    }
    close(out, start, "}");
}

/// [`merge_node`] into a new entry, then [`Shown::write_bytes`]: one
/// branch, items at `(index, hash)` in index order, empty ones kept.
fn alone_node(work: &mut WorkStats, value: &Value, depth: u64, out: &mut Vec<u8>) {
    work.ops_applied += 1;
    work.nodes_visited += depth;
    match value {
        Value::List(items) => {
            let start = out.len();
            out.put("[");
            for item in items {
                alone_node(work, item, depth + 1, out);
                out.put(",");
            }
            close(out, start, "]");
        }
        Value::Map(map) => alone_map(work, map, depth + 1, out),
        leaf => ser::write_string(out, &leaf_text(leaf)),
    }
}

/// The work [`write_alone`] counts when `bytes` are already what it
/// would write for `Value::from_bytes(bytes)`, a map without a top-level
/// `_crdt` key; `None` otherwise, which claims nothing about the bytes.
/// One pass, no allocation: Algorithm 1 commits a key written once as it
/// came when the chaincode wrote it in this normal form (DESIGN.md §4.1).
///
/// The form is the compact one with every map's keys strictly rising
/// bytewise (`BTreeMap` order, so no duplicates), every leaf a string
/// without `\` or a byte below 0x20, valid UTF-8, and no value nested
/// deeper than the parser accepts.
pub fn alone_as_is(bytes: &[u8]) -> Option<WorkStats> {
    let mut scan = AsIs {
        bytes,
        pos: 0,
        work: WorkStats::new(),
    };
    scan.map(0, true)?;
    (scan.pos == bytes.len()).then_some(scan.work)
}

/// [`alone_as_is`]'s cursor, counting as [`alone_node`] counts.
struct AsIs<'a> {
    bytes: &'a [u8],
    pos: usize,
    work: WorkStats,
}

impl<'a> AsIs<'a> {
    fn next(&mut self) -> Option<u8> {
        let byte = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(byte)
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.bytes.get(self.pos) == Some(&byte);
        self.pos += usize::from(found);
        found
    }

    /// A value `depth` below the head, the parser's count.
    fn value(&mut self, depth: u64) -> Option<()> {
        if depth > MAX_DEPTH as u64 {
            return None;
        }
        self.work.ops_applied += 1;
        self.work.nodes_visited += depth;
        match self.bytes.get(self.pos)? {
            b'{' => self.map(depth, false),
            b'[' => self.list(depth),
            _ => self.string().map(drop),
        }
    }

    fn map(&mut self, depth: u64, head: bool) -> Option<()> {
        if !self.eat(b'{') {
            return None;
        }
        if self.eat(b'}') {
            return Some(());
        }
        let mut last = None;
        loop {
            let key = self.string()?;
            if last.is_some_and(|last| last >= key) || head && key == b"_crdt" || !self.eat(b':') {
                return None;
            }
            last = Some(key);
            self.value(depth + 1)?;
            match self.next()? {
                b',' => {}
                b'}' => return Some(()),
                _ => return None,
            }
        }
    }

    fn list(&mut self, depth: u64) -> Option<()> {
        self.eat(b'[');
        if self.eat(b']') {
            return Some(());
        }
        loop {
            self.value(depth + 1)?;
            match self.next()? {
                b',' => {}
                b']' => return Some(()),
                _ => return None,
            }
        }
    }

    /// A string that serializes as it stands: its bytes between the
    /// quotes.
    fn string(&mut self) -> Option<&'a [u8]> {
        if !self.eat(b'"') {
            return None;
        }
        let rest = &self.bytes[self.pos..];
        let len = plain_len(rest);
        if rest.get(len) != Some(&b'"') {
            return None;
        }
        self.pos += len + 1;
        let text = &rest[..len];
        (text.is_ascii() || std::str::from_utf8(text).is_ok()).then_some(text)
    }
}

/// How many bytes `bytes` starts with that a string holds as they are:
/// none is `"`, `\` or below 0x20. Eight at a time while no byte of the
/// word can be one: the zero-byte test on the word XOR each delimiter,
/// and the below-0x20 test on the word, flag every such byte (and at
/// worst some byte after it), so a flagged word is counted byte by byte.
fn plain_len(bytes: &[u8]) -> usize {
    let splat = |byte: u8| u64::from_ne_bytes([byte; 8]);
    let below = |word: u64, bound: u8| word.wrapping_sub(splat(bound)) & !word & splat(0x80);
    let plain = |&byte: &u8| byte != b'"' && byte != b'\\' && byte >= 0x20;
    let mut len = 0;
    while let Some(word) = bytes
        .get(len..len + 8)
        .and_then(|word| word.try_into().ok())
    {
        let word = u64::from_ne_bytes(word);
        let quote = below(word ^ splat(b'"'), 1);
        let backslash = below(word ^ splat(b'\\'), 1);
        if quote | backslash | below(word, 0x20) != 0 {
            break;
        }
        len += 8;
    }
    len + bytes[len..].iter().take_while(|byte| plain(byte)).count()
}

/// Algorithm 2 as one walk over the source and the tree in lockstep:
/// [`merge_node`] for every value of `map`, at the child of `node` under
/// its key.
fn merge_map(work: &mut WorkStats, node: &mut MapNode, map: &BTreeMap<String, Value>, depth: u64) {
    for (key, value) in map {
        let child = match node.children.get_mut(key) {
            Some(child) => child,
            None => node.children.entry(key.clone()).or_default(),
        };
        merge_node(work, child, value, depth);
    }
}

/// Merges `value` at `entry`, `depth` steps below the head: the
/// operation for this node of the source (lines 5–11: a leaf becomes an
/// assignment of its string form), then one for every node beneath it.
/// The work counted is what a descent from the head per operation
/// would visit.
fn merge_node(work: &mut WorkStats, entry: &mut Entry, value: &Value, depth: u64) {
    work.ops_applied += 1;
    work.nodes_visited += depth;
    match value {
        Value::List(items) => {
            let list = entry.list.get_or_insert_with(ListNode::default);
            for (index, item) in items.iter().enumerate() {
                let child = list.items.entry(ItemKey::derive(index, item)).or_default();
                merge_node(work, child, item, depth + 1);
            }
        }
        Value::Map(map) => {
            let node = entry.map.get_or_insert_with(MapNode::default);
            merge_map(work, node, map, depth + 1);
        }
        leaf => entry.reg = Some(leaf_text(leaf).into_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(text: &str) -> Value {
        text.parse().unwrap()
    }

    fn merged(sources: &[&str]) -> Value {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        for s in sources {
            doc.merge_value(&v(s)).unwrap();
        }
        doc.to_value()
    }

    #[test]
    fn single_merge_roundtrips() {
        let src = r#"{"deviceID":"Device1","readings":["50.0","51.2"]}"#;
        assert_eq!(merged(&[src]), v(src));
    }

    #[test]
    fn paper_listing_1_and_2() {
        // Two transactions write the same key; the merged write-set keeps
        // the common string and unions the readings lists.
        let out = merged(&[
            r#"{"deviceID":"Device1","readings":["51.0","49.5"]}"#,
            r#"{"deviceID":"Device1","readings":["50.0"]}"#,
        ]);
        assert_eq!(out.get("deviceID").unwrap().as_str(), Some("Device1"));
        let readings = out.get("readings").unwrap().as_list().unwrap();
        assert_eq!(readings.len(), 3);
        for r in ["51.0", "49.5", "50.0"] {
            assert!(readings.iter().any(|x| x.as_str() == Some(r)), "{r}");
        }
    }

    #[test]
    fn common_prefix_deduplicates() {
        // Read-modify-write: both transactions carry the committed prefix.
        let out = merged(&[
            r#"{"readings":["a","b","new1"]}"#,
            r#"{"readings":["a","b","new2"]}"#,
        ]);
        let readings = out.get("readings").unwrap().as_list().unwrap();
        assert_eq!(readings.len(), 4, "prefix a,b must not duplicate");
    }

    #[test]
    fn register_lww_in_merge_order() {
        let out = merged(&[r#"{"k":"first"}"#, r#"{"k":"second"}"#]);
        assert_eq!(out.get("k").unwrap().as_str(), Some("second"));
    }

    #[test]
    fn disjoint_keys_union() {
        let out = merged(&[r#"{"a":"1"}"#, r#"{"b":"2"}"#]);
        assert_eq!(out, v(r#"{"a":"1","b":"2"}"#));
    }

    #[test]
    fn nested_maps_merge_keywise() {
        let out = merged(&[
            r#"{"sensor":{"temp":"20","loc":"A"}}"#,
            r#"{"sensor":{"humidity":"40"}}"#,
        ]);
        assert_eq!(
            out,
            v(r#"{"sensor":{"temp":"20","loc":"A","humidity":"40"}}"#)
        );
    }

    #[test]
    fn deeply_nested_lists_in_maps_in_lists() {
        let out = merged(&[r#"{"a":[{"x":["1"]}]}"#, r#"{"a":[{"x":["1"]},{"y":"2"}]}"#]);
        let a = out.get("a").unwrap().as_list().unwrap();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn empty_containers_survive() {
        let out = merged(&[r#"{"m":{},"l":[]}"#]);
        assert_eq!(out, v(r#"{"m":{},"l":[]}"#));
    }

    #[test]
    fn non_string_leaves_stringified() {
        let out = merged(&[r#"{"n":1.5,"b":true,"z":null}"#]);
        assert_eq!(out, v(r#"{"n":"1.5","b":"true","z":"null"}"#));
    }

    #[test]
    fn merge_root_must_be_map() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        for head in [r#"["not","a","map"]"#, r#""naked""#, "null"] {
            assert_eq!(
                doc.merge_value(&v(head)).unwrap_err(),
                DocError::RootNotMap,
                "{head}"
            );
        }
    }

    #[test]
    fn merge_is_idempotent() {
        let src = r#"{"deviceID":"d","readings":["1","2","3"]}"#;
        let once = merged(&[src]);
        let thrice = merged(&[src, src, src]);
        assert_eq!(once, thrice);
    }

    #[test]
    fn merge_is_deterministic() {
        let sources = [
            r#"{"a":"1","l":["x"]}"#,
            r#"{"b":"2","l":["y"]}"#,
            r#"{"a":"3","l":["x","z"]}"#,
        ];
        assert_eq!(merged(&sources), merged(&sources));
    }

    #[test]
    fn type_conflict_prefers_map() {
        let out = merged(&[r#"{"k":"str"}"#, r#"{"k":{"inner":"1"}}"#]);
        assert_eq!(out.get("k").unwrap(), &v(r#"{"inner":"1"}"#));
        // ...and the same result regardless of merge order.
        let out = merged(&[r#"{"k":{"inner":"1"}}"#, r#"{"k":"str"}"#]);
        assert_eq!(out.get("k").unwrap(), &v(r#"{"inner":"1"}"#));
    }

    #[test]
    fn hydrate_then_merge_models_cross_block_flow() {
        // Block 1 commits {"readings":["a"]}; block 2 has two conflicting
        // read-modify-write transactions.
        let committed = v(r#"{"readings":["a"]}"#);
        let mut doc = JsonCrdt::new(ReplicaId(2));
        doc.merge_value(&committed).unwrap();
        doc.merge_value(&v(r#"{"readings":["a","b"]}"#)).unwrap();
        doc.merge_value(&v(r#"{"readings":["a","c"]}"#)).unwrap();
        let readings_len = doc
            .to_value()
            .get("readings")
            .unwrap()
            .as_list()
            .unwrap()
            .len();
        assert_eq!(readings_len, 3); // a, b, c — no loss, no duplication
    }

    #[test]
    fn work_counters_grow_with_document_size() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        let small = doc
            .merge_value(&v(r#"{"readings":["1"]}"#))
            .unwrap()
            .units();
        let mut doc2 = JsonCrdt::new(ReplicaId(1));
        let big = doc2
            .merge_value(&v(r#"{"readings":["1","2","3","4","5","6","7","8"]}"#))
            .unwrap()
            .units();
        assert!(big > small);
    }

    #[test]
    fn one_operation_per_source_node() {
        let mut doc = JsonCrdt::new(ReplicaId(3));
        doc.merge_value(&v(r#"{"a":"1","b":{"c":"2"}}"#)).unwrap();
        doc.merge_value(&v(r#"{"l":["x","y"]}"#)).unwrap();
        // a, b, b.c; l, l[0], l[1].
        assert_eq!(doc.applied_len(), 6);
    }
}
