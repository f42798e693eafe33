//! The JSON CRDT document.
//!
//! A [`JsonCrdt`] is a tree of map, list and register nodes whose unit
//! of change is the [`Operation`] (dependency-checked, idempotent,
//! commutative for concurrent operations). [`JsonCrdt::merge_value`]
//! implements **Algorithm 2** of the FabricCRDT paper: it folds a plain
//! JSON object into the document, one operation per node of the source
//! value — minted and applied at the tree entry in hand, in one walk
//! over both. [`JsonCrdt::to_value`] and [`JsonCrdt::write_bytes`]
//! implement the paper's `ConvertCRDTToDataType`: they strip all CRDT
//! metadata and return plain JSON (Algorithm 1, lines 20–21).
//!
//! # Conflict semantics
//!
//! - **Registers** (leaf strings) are multi-value registers; conversion
//!   arbitrates by greatest operation id. Because every peer merges the
//!   transactions of a block in the same block order (the property §5.2
//!   exploits), this is last-writer-wins in block order on every peer.
//! - **Maps** merge key-wise, recursively.
//! - **Lists** are unions of content-addressed elements (see
//!   [`crate::op::ItemKey`]) ordered by `(source index, content hash)`:
//!   common prefixes deduplicate, divergent suffixes are all preserved —
//!   this is what produces the merged readings list of paper Listing 2.
//! - **Type conflicts** (one transaction writes a string, another a map at
//!   the same key) keep all branches internally; conversion prefers
//!   map over list over register, deterministically on every peer.
//! - **Deletes** tombstone everything currently present beneath the
//!   target; concurrent (unseen) additions survive — add-wins.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::clock::{LamportClock, OpId, ReplicaId, VersionVector};
use crate::json::ser::{self, Sink};
use crate::json::Value;
use crate::op::{Cursor, CursorElement, Deps, ItemKey, Mutation, Operation};
use crate::work::WorkStats;

/// An entry in a map (under a string key) or in a list (under an
/// [`ItemKey`]). Kleppmann-style: the entry holds one branch per possible
/// type so that concurrently written types never clobber each other.
#[derive(Debug, Clone, Default)]
struct Entry {
    /// Multi-value register: concurrent leaf assignments accumulate, in
    /// arrival order. Almost every register is a leaf written once, so
    /// the first assignment is inline and only later ones allocate.
    reg: Option<(OpId, String)>,
    reg_more: Vec<(OpId, String)>,
    /// Map branch.
    map: Option<MapNode>,
    /// List branch.
    list: Option<ListNode>,
    /// Size of the paper's presence set, the operations that touched
    /// this entry: each is applied once and its path meets an entry
    /// once, so nothing ever asks which ids they were.
    present: u64,
    /// Size of the tombstone set. A delete tombstones everything present
    /// when it arrives: always the first `tombstoned` operations to have
    /// touched the entry, and the first `reg_tombstoned` of `reg`.
    tombstoned: u64,
    reg_tombstoned: usize,
}

/// Map children are keyed by shared `Arc<str>` so that the descent in
/// [`descend`] can do an `entry(key.clone())` lookup with a refcount
/// bump instead of allocating a fresh `String` per step.
#[derive(Debug, Clone, Default)]
struct MapNode {
    children: BTreeMap<Arc<str>, Entry>,
}

#[derive(Debug, Clone, Default)]
struct ListNode {
    items: BTreeMap<ItemKey, Entry>,
}

impl Entry {
    /// Whether some operation present here is not tombstoned.
    fn is_visible(&self) -> bool {
        self.present > self.tombstoned
    }

    /// Tombstones every operation currently present in this subtree.
    fn tombstone_all(&mut self) {
        self.tombstoned = self.present;
        self.reg_tombstoned = self.reg.iter().len() + self.reg_more.len();
        if let Some(map) = &mut self.map {
            for child in map.children.values_mut() {
                child.tombstone_all();
            }
        }
        if let Some(list) = &mut self.list {
            for item in list.items.values_mut() {
                item.tombstone_all();
            }
        }
    }

    fn assign(&mut self, id: OpId, text: String) {
        match self.reg {
            None => self.reg = Some((id, text)),
            Some(_) => self.reg_more.push((id, text)),
        }
    }

    /// The newest live register assignment.
    fn live_register(&self) -> Option<&str> {
        let live = self
            .reg
            .iter()
            .chain(&self.reg_more)
            .skip(self.reg_tombstoned);
        live.max_by_key(|(id, _)| id).map(|(_, v)| &**v)
    }

    /// Converts to plain JSON. Precedence on type conflicts:
    /// map > list > register.
    fn to_value(&self) -> Option<Value> {
        if !self.is_visible() {
            return None;
        }
        if let Some(map) = &self.map {
            let converted = map.to_value();
            if !converted.is_empty() || self.reg.is_none() && self.list.is_none() {
                return Some(Value::Map(converted));
            }
        }
        if let Some(list) = &self.list {
            let converted: Vec<Value> = list.items.values().filter_map(Entry::to_value).collect();
            if !converted.is_empty() || self.reg.is_none() {
                return Some(Value::List(converted));
            }
        }
        self.live_register().map(Value::string)
    }

    /// Appends the canonical bytes of [`Entry::to_value`] to `out` and
    /// says whether there were any: the same precedence, decided by
    /// writing a branch and taking it back if it came out empty.
    fn write_bytes(&self, out: &mut Vec<u8>) -> bool {
        if !self.is_visible() {
            return false;
        }
        let start = out.len();
        if let Some(map) = &self.map {
            if map.write_bytes(out) || self.reg.is_none() && self.list.is_none() {
                return true;
            }
            out.truncate(start);
        }
        if let Some(list) = &self.list {
            out.put("[");
            for item in list.items.values() {
                if item.write_bytes(out) {
                    out.put(",");
                }
            }
            if close(out, start, "]") || self.reg.is_none() {
                return true;
            }
            out.truncate(start);
        }
        self.live_register()
            .map(|text| ser::write_string(out, text))
            .is_some()
    }
}

impl MapNode {
    fn to_value(&self) -> BTreeMap<String, Value> {
        self.children
            .iter()
            .filter_map(|(k, e)| e.to_value().map(|v| (k.to_string(), v)))
            .collect()
    }

    /// Appends the canonical bytes of [`MapNode::to_value`] to `out`
    /// and says whether any child converted (`{}` is written if none).
    fn write_bytes(&self, out: &mut Vec<u8>) -> bool {
        let start = out.len();
        out.put("{");
        for (key, child) in &self.children {
            let before_key = out.len();
            ser::write_string(out, key);
            out.put(":");
            if child.write_bytes(out) {
                out.put(",");
            } else {
                out.truncate(before_key);
            }
        }
        close(out, start, "}")
    }
}

/// Ends the container opened at `start` (the separator after its last
/// element becomes the bracket) and says whether it has elements.
fn close(out: &mut Vec<u8>, start: usize, bracket: &str) -> bool {
    let filled = out.len() > start + 1;
    if filled {
        out.pop();
    }
    out.put(bracket);
    filled
}

/// Errors from applying operations or merging values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// `merge_value` requires the source to be a JSON map — the document
    /// head is a map, exactly as in the paper's chaincode model.
    RootNotMap,
    /// An `Assign`, `MakeList` or `Delete`-of-register mutation targeted
    /// the document head, which is always a map.
    MutationAtHead,
    /// [`JsonCrdt::merge`] needs the source document's operation history,
    /// but it was constructed without one (see [`JsonCrdt::with_history`]).
    MissingHistory,
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::RootNotMap => write!(f, "merge source must be a JSON map"),
            DocError::MutationAtHead => {
                write!(f, "mutation with an empty cursor targets the document head")
            }
            DocError::MissingHistory => {
                write!(f, "merge source keeps no operation history")
            }
        }
    }
}

impl Error for DocError {}

/// Outcome of [`JsonCrdt::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The operation (and possibly buffered successors) took effect.
    Applied,
    /// Some dependencies are missing; the operation is buffered until they
    /// arrive (paper §5.1: "we queue the operation until all dependencies
    /// are applied").
    Buffered,
    /// The operation had already been applied; no effect (idempotence).
    AlreadyApplied,
}

/// What a document records about the operations that took effect —
/// apart from the tree, so the merge walk can hold both at once.
#[derive(Debug, Clone)]
struct Log {
    clock: LamportClock,
    /// Causal frontier: per-replica high-water mark over contiguously
    /// applied counters.
    frontier: VersionVector,
    /// Whether `frontier` covers the applied set *exactly* (every
    /// applied op was observed contiguously). A counter gap — possible
    /// only for hand-fed foreign operations, never for merge chains —
    /// clears this, and `merge` then falls back to full replay.
    frontier_exact: bool,
    /// The applied ids the frontier cannot say: those that arrived
    /// across a counter gap, and counter 0.
    beyond_frontier: BTreeSet<OpId>,
    /// Number of operations applied.
    applied: usize,
    work: WorkStats,
    /// Applied operations in application order, kept only for documents
    /// built by [`JsonCrdt::with_history`] (it is what `merge` replays).
    history: Option<Vec<Operation>>,
}

impl Log {
    /// Whether `id` has been applied.
    fn seen(&self, id: OpId) -> bool {
        (id.counter > 0 && self.frontier.contains(id)) || self.beyond_frontier.contains(&id)
    }

    /// Counts `id` as applied.
    fn finish(&mut self, id: OpId) {
        let contiguous = self.frontier.observe(id);
        self.frontier_exact &= contiguous;
        if !contiguous || id.counter == 0 {
            self.beyond_frontier.insert(id);
        }
        self.applied += 1;
        self.clock.observe(id);
        self.work.ops_applied += 1;
    }
}

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
    log: Log,
    pending: Vec<Operation>,
}

impl JsonCrdt {
    /// Creates an empty document whose operations will be stamped with
    /// `replica` (paper Algorithm 1, `InitEmptyCRDT`).
    pub fn new(replica: ReplicaId) -> Self {
        JsonCrdt {
            root: MapNode::default(),
            log: Log {
                clock: LamportClock::new(replica),
                frontier: VersionVector::new(),
                frontier_exact: true,
                beyond_frontier: BTreeSet::new(),
                applied: 0,
                work: WorkStats::new(),
                history: None,
            },
            pending: Vec::new(),
        }
    }

    /// Like [`JsonCrdt::new`], but the document also records every
    /// applied operation in application order, making it a valid source
    /// for [`JsonCrdt::merge`].
    pub fn with_history(replica: ReplicaId) -> Self {
        let mut doc = JsonCrdt::new(replica);
        doc.log.history = Some(Vec::new());
        doc
    }

    /// Creates a document hydrated from an existing plain JSON value (for
    /// example, the committed ledger state of a CRDT key).
    ///
    /// # Errors
    ///
    /// Returns [`DocError::RootNotMap`] if `base` is not a JSON map.
    pub fn from_value(replica: ReplicaId, base: &Value) -> Result<Self, DocError> {
        let mut doc = JsonCrdt::new(replica);
        doc.merge_value(base)?;
        Ok(doc)
    }

    /// The document's Lamport clock.
    pub fn clock(&self) -> &LamportClock {
        &self.log.clock
    }

    /// Number of operations applied so far.
    pub fn applied_len(&self) -> usize {
        self.log.applied
    }

    /// Number of operations buffered waiting for dependencies.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Accumulated work counters (see [`WorkStats`]).
    pub fn work(&self) -> WorkStats {
        self.log.work
    }

    /// The document's causal frontier (per-replica high-water marks
    /// over contiguously applied operation counters).
    pub fn frontier(&self) -> &VersionVector {
        &self.log.frontier
    }

    /// Whether the frontier covers the applied set exactly. While true,
    /// [`JsonCrdt::merge`] can skip already-applied prefixes by frontier
    /// comparison alone; once false it replays full histories (still
    /// correct — application is idempotent).
    pub fn frontier_is_exact(&self) -> bool {
        self.log.frontier_exact
    }

    /// Applied operations in application order, if this document records
    /// them (see [`JsonCrdt::with_history`]).
    pub fn history(&self) -> Option<&[Operation]> {
        self.log.history.as_deref()
    }

    /// The operations of this document's history a peer whose causal
    /// frontier is `frontier` has not yet observed, in application
    /// order — the incremental delta an offline-first client ships at
    /// rejoin instead of replaying its entire history. Counter-0 ops
    /// are vacuously "contained" by any frontier, so they are always
    /// included, mirroring [`JsonCrdt::merge`]'s skip rule.
    ///
    /// # Errors
    ///
    /// Returns [`DocError::MissingHistory`] if this document was not
    /// built with [`JsonCrdt::with_history`].
    pub fn delta_since(&self, frontier: &VersionVector) -> Result<Vec<Operation>, DocError> {
        let log = self.history().ok_or(DocError::MissingHistory)?;
        Ok(log
            .iter()
            .filter(|op| !(frontier.contains(op.id) && op.id.counter > 0))
            .cloned()
            .collect())
    }

    /// Applies an operation, buffering it if dependencies are missing
    /// (paper §5.1, `ApplyOperationToJSON`).
    ///
    /// # Errors
    ///
    /// Returns [`DocError::MutationAtHead`] for a non-`MakeMap`/`Delete`
    /// mutation with an empty cursor.
    pub fn apply(&mut self, op: Operation) -> Result<ApplyOutcome, DocError> {
        if self.log.seen(op.id) {
            return Ok(ApplyOutcome::AlreadyApplied);
        }
        if !op.deps.iter().all(|d| self.log.seen(*d)) {
            self.pending.push(op);
            return Ok(ApplyOutcome::Buffered);
        }
        self.apply_ready(op)?;
        self.drain_pending()?;
        Ok(ApplyOutcome::Applied)
    }

    /// Merges another document into this one by replaying its operation
    /// history — incremental when possible: while this document's
    /// frontier is exact, every operation at or below the frontier is
    /// skipped outright instead of being re-applied and rejected as a
    /// duplicate. On an inexact frontier the whole history is replayed
    /// (idempotence makes that correct, just slower).
    ///
    /// Returns the work performed (skipped operations cost nothing).
    ///
    /// # Errors
    ///
    /// Returns [`DocError::MissingHistory`] if `other` was not built
    /// with [`JsonCrdt::with_history`], or propagates the first
    /// application error.
    pub fn merge(&mut self, other: &JsonCrdt) -> Result<WorkStats, DocError> {
        let log = other.history().ok_or(DocError::MissingHistory)?;
        let before = self.log.work;
        for op in log {
            if self.log.frontier_exact && self.log.frontier.contains(op.id) && op.id.counter > 0 {
                continue;
            }
            self.apply(op.clone())?;
        }
        Ok(self.work_since(before))
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
        let before = self.log.work;
        if self.log.history.is_none() && self.pending.is_empty() {
            merge_map(&mut self.log, &mut self.root, map, 1);
            return Ok(self.work_since(before));
        }
        // Somebody reads the operations: a history records them, or
        // buffered ones wait on their ids and, released, move the clock
        // and the tree mid-merge. Algorithm 2 as stated, lines 2–21: one
        // cursor and dependency chain per top-level key.
        let mut cursor = Cursor::new();
        for (key, value) in map {
            cursor.push_key(key.as_str());
            self.merge_by_operations(&mut cursor, value, &mut None)?;
            cursor.pop();
        }
        Ok(self.work_since(before))
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

    fn work_since(&self, before: WorkStats) -> WorkStats {
        WorkStats {
            ops_applied: self.log.work.ops_applied - before.ops_applied,
            nodes_visited: self.log.work.nodes_visited - before.nodes_visited,
        }
    }

    /// Mints the operation for `value`, whose element `cursor` already
    /// ends at, applies it through [`JsonCrdt::apply`], and recurses.
    fn merge_by_operations(
        &mut self,
        cursor: &mut Cursor,
        value: &Value,
        last_dep: &mut Option<OpId>,
    ) -> Result<(), DocError> {
        let id = self.log.clock.tick();
        let op = Operation::new(
            id,
            Deps::from(*last_dep),
            cursor.clone(),
            mutation_for(value),
        );
        // Dependencies are generated in order, so this never buffers.
        self.apply(op)?;
        *last_dep = Some(id);
        match value {
            Value::List(items) => {
                for (index, item) in items.iter().enumerate() {
                    cursor.push_item(ItemKey::derive(index, item));
                    self.merge_by_operations(cursor, item, last_dep)?;
                    cursor.pop();
                }
            }
            Value::Map(map) => {
                for (key, item) in map {
                    cursor.push_key(key.as_str());
                    self.merge_by_operations(cursor, item, last_dep)?;
                    cursor.pop();
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Applies an operation whose dependencies are satisfied.
    fn apply_ready(&mut self, op: Operation) -> Result<(), DocError> {
        if op.cursor.is_empty() && !matches!(op.mutation, Mutation::MakeMap | Mutation::Delete) {
            return Err(DocError::MutationAtHead);
        }
        // Past the only failure point: the operation will take effect,
        // so it belongs to the replayable history (if recorded).
        if let Some(history) = &mut self.log.history {
            history.push(op.clone());
        }
        if op.cursor.is_empty() {
            // The head is always a map; materializing it is a no-op.
            if op.mutation == Mutation::Delete {
                for child in self.root.children.values_mut() {
                    child.tombstone_all();
                }
            }
            self.log.finish(op.id);
            return Ok(());
        }

        // Descend the cursor, creating intermediate nodes and recording
        // presence (paper §5.2: "For every node in the cursor, if the node
        // already exists, we add the identifier of the current operation
        // to the node...").
        let target = descend(&mut self.root, op.cursor.elements());
        self.log.work.nodes_visited += op.cursor.len() as u64;

        match op.mutation {
            Mutation::Assign(value) => target.assign(op.id, value),
            Mutation::MakeMap => {
                target.map.get_or_insert_with(MapNode::default);
            }
            Mutation::MakeList => {
                target.list.get_or_insert_with(ListNode::default);
            }
            // The delete itself is present since the descent, so it is
            // tombstoned with the rest and keeps the entry invisible.
            Mutation::Delete => target.tombstone_all(),
        }
        self.log.finish(op.id);
        Ok(())
    }

    /// Applies buffered operations whose dependencies have become
    /// satisfied, to fixpoint.
    fn drain_pending(&mut self) -> Result<(), DocError> {
        loop {
            let log = &self.log;
            let ready = |op: &Operation| op.deps.iter().all(|d| log.seen(*d));
            let Some(at) = self.pending.iter().position(ready) else {
                return Ok(());
            };
            let op = self.pending.swap_remove(at);
            if !self.log.seen(op.id) {
                self.apply_ready(op)?;
            }
        }
    }
}

/// The mutation Algorithm 2 generates for one node of a source value
/// (lines 5–11: a leaf becomes an assignment of its string form).
fn mutation_for(value: &Value) -> Mutation {
    match value {
        Value::List(_) => Mutation::MakeList,
        Value::Map(_) => Mutation::MakeMap,
        leaf => Mutation::Assign(leaf_text(leaf).into_owned()),
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

/// [`merge_node`] into a new entry, then [`Entry::write_bytes`]: one
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

/// Algorithm 2 on a document nobody reads operations from, as one walk
/// over the source and the tree in lockstep: [`merge_node`] for every
/// value of `map`, at the child of `node` under its key.
fn merge_map(log: &mut Log, node: &mut MapNode, map: &BTreeMap<String, Value>, depth: u64) {
    for (key, value) in map {
        let child = match node.children.get_mut(key.as_str()) {
            Some(child) => child,
            None => node.children.entry(Arc::from(key.as_str())).or_default(),
        };
        merge_node(log, child, value, depth);
    }
}

/// Merges `value` at `entry`, `depth` steps below the head: what
/// [`JsonCrdt::apply`] does for the operation of this node and of every
/// node beneath it, without leaving the subtree.
fn merge_node(log: &mut Log, entry: &mut Entry, value: &Value, depth: u64) {
    let id = log.clock.tick();
    log.work.nodes_visited += depth;
    log.finish(id);
    match value {
        Value::List(items) => {
            let list = entry.list.get_or_insert_with(ListNode::default);
            for (index, item) in items.iter().enumerate() {
                let child = list.items.entry(ItemKey::derive(index, item)).or_default();
                merge_node(log, child, item, depth + 1);
            }
        }
        Value::Map(map) => {
            let node = entry.map.get_or_insert_with(MapNode::default);
            merge_map(log, node, map, depth + 1);
        }
        leaf => entry.assign(id, leaf_text(leaf).into_owned()),
    }
    // Every id minted since `id` belongs to this subtree, and each of
    // those operations passes through this entry.
    entry.present += log.clock.current() - id.counter + 1;
}

/// Walks `elements` from the document root, creating intermediate nodes on
/// demand, counting the operation present at every entry on the path, and
/// returning the target entry.
fn descend<'a>(root: &'a mut MapNode, elements: &[CursorElement]) -> &'a mut Entry {
    enum Container<'c> {
        Map(&'c mut MapNode),
        List(&'c mut ListNode),
    }
    let mut container = Container::Map(root);
    let last = elements.len() - 1;
    for (i, elem) in elements.iter().enumerate() {
        let entry = match (container, elem) {
            (Container::Map(map), CursorElement::Key(k)) => {
                map.children.entry(k.clone()).or_default()
            }
            (Container::List(list), CursorElement::ListItem(ik)) => {
                list.items.entry(*ik).or_default()
            }
            // Structural mismatches cannot arise from cursors generated by
            // merge_value (the branch is always chosen from the next
            // element's type); for hand-built cursors we map the step onto
            // a deterministic synthetic child rather than panic.
            (Container::Map(map), CursorElement::ListItem(ik)) => {
                map.children.entry(ik.to_string().into()).or_default()
            }
            (Container::List(list), CursorElement::Key(k)) => list
                .items
                .entry(ItemKey {
                    index: 0,
                    hash: crate::op::fnv1a(k.as_bytes()),
                })
                .or_default(),
        };
        entry.present += 1;
        if i == last {
            return entry;
        }
        // Choose the branch the next element descends into.
        container = match &elements[i + 1] {
            CursorElement::Key(_) => Container::Map(entry.map.get_or_insert_with(MapNode::default)),
            CursorElement::ListItem(_) => {
                Container::List(entry.list.get_or_insert_with(ListNode::default))
            }
        };
    }
    unreachable!("empty cursors are handled before descending")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(text: &str) -> Value {
        text.parse().unwrap()
    }

    #[test]
    fn delta_since_ships_only_unseen_operations() {
        let mut server = JsonCrdt::with_history(ReplicaId(1));
        server
            .merge_value(&v(r#"{"deviceID":"d1","temp":"20"}"#))
            .unwrap();
        let mut client = JsonCrdt::with_history(ReplicaId(2));
        client.merge(&server).unwrap();
        // The client edits offline, accumulating local history on top
        // of everything it already shares with the server.
        client
            .merge_value(&v(r#"{"temp":"25","hum":"40"}"#))
            .unwrap();
        client.merge_value(&v(r#"{"hum":"41"}"#)).unwrap();

        let full = client.history().unwrap().len();
        let delta = client.delta_since(server.frontier()).unwrap();
        assert!(
            delta.len() < full,
            "incremental delta ({}) must undercut full replay ({full})",
            delta.len()
        );

        // Shipping just the delta converges the server exactly like a
        // full-history merge would.
        let mut via_delta = server.clone();
        for op in &delta {
            via_delta.apply(op.clone()).unwrap();
        }
        let mut via_full = server;
        via_full.merge(&client).unwrap();
        assert_eq!(via_delta.to_value(), via_full.to_value());
        assert_eq!(via_delta.frontier(), via_full.frontier());

        // A history-free document cannot produce a delta.
        assert_eq!(
            JsonCrdt::new(ReplicaId(3)).delta_since(&VersionVector::new()),
            Err(DocError::MissingHistory)
        );
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
        assert_eq!(
            doc.merge_value(&v(r#"["not","a","map"]"#)).unwrap_err(),
            DocError::RootNotMap
        );
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
        let mut doc = JsonCrdt::from_value(ReplicaId(2), &committed).unwrap();
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
    fn delete_operation_tombstones_subtree() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        doc.merge_value(&v(r#"{"a":{"x":"1"},"b":"2"}"#)).unwrap();
        let mut cursor = Cursor::new();
        cursor.push_key("a");
        let id = OpId::new(1000, ReplicaId(9));
        doc.apply(Operation::new(id, vec![], cursor, Mutation::Delete))
            .unwrap();
        assert_eq!(doc.to_value(), v(r#"{"b":"2"}"#));
    }

    #[test]
    fn additions_after_delete_resurrect_entry_add_wins() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        doc.merge_value(&v(r#"{"a":{"x":"1"}}"#)).unwrap();
        let mut cursor = Cursor::new();
        cursor.push_key("a");
        doc.apply(Operation::new(
            OpId::new(1000, ReplicaId(9)),
            vec![],
            cursor,
            Mutation::Delete,
        ))
        .unwrap();
        doc.merge_value(&v(r#"{"a":{"y":"2"}}"#)).unwrap();
        // x stays deleted; y is visible.
        assert_eq!(doc.to_value(), v(r#"{"a":{"y":"2"}}"#));
    }

    #[test]
    fn delete_at_head_clears_document() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        doc.merge_value(&v(r#"{"a":"1","b":["2"]}"#)).unwrap();
        doc.apply(Operation::new(
            OpId::new(1000, ReplicaId(9)),
            vec![],
            Cursor::new(),
            Mutation::Delete,
        ))
        .unwrap();
        assert_eq!(doc.to_value(), v("{}"));
    }

    #[test]
    fn assign_at_head_is_an_error() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        let err = doc
            .apply(Operation::new(
                OpId::new(1, ReplicaId(1)),
                vec![],
                Cursor::new(),
                Mutation::Assign("x".into()),
            ))
            .unwrap_err();
        assert_eq!(err, DocError::MutationAtHead);
    }

    #[test]
    fn duplicate_operation_is_idempotent() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        let mut cursor = Cursor::new();
        cursor.push_key("k");
        let op = Operation::new(
            OpId::new(5, ReplicaId(2)),
            vec![],
            cursor,
            Mutation::Assign("v".into()),
        );
        assert_eq!(doc.apply(op.clone()).unwrap(), ApplyOutcome::Applied);
        assert_eq!(doc.apply(op).unwrap(), ApplyOutcome::AlreadyApplied);
        assert_eq!(doc.applied_len(), 1);
    }

    #[test]
    fn out_of_order_operations_buffer_until_deps_arrive() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        let mut cursor = Cursor::new();
        cursor.push_key("k");
        let first = Operation::new(
            OpId::new(1, ReplicaId(2)),
            vec![],
            cursor.clone(),
            Mutation::Assign("first".into()),
        );
        let second = Operation::new(
            OpId::new(2, ReplicaId(2)),
            vec![OpId::new(1, ReplicaId(2))],
            cursor,
            Mutation::Assign("second".into()),
        );
        // Deliver out of order: the dependent op buffers.
        assert_eq!(doc.apply(second).unwrap(), ApplyOutcome::Buffered);
        assert_eq!(doc.pending_len(), 1);
        assert_eq!(doc.to_value(), v("{}"));
        // Delivering the dependency drains the buffer.
        assert_eq!(doc.apply(first).unwrap(), ApplyOutcome::Applied);
        assert_eq!(doc.pending_len(), 0);
        assert_eq!(doc.to_value().get("k").unwrap().as_str(), Some("second"));
    }

    #[test]
    fn chained_pending_operations_drain_transitively() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        let mut cursor = Cursor::new();
        cursor.push_key("k");
        let id = |n| OpId::new(n, ReplicaId(2));
        let op = |n: u64, deps: Vec<OpId>, val: &str| {
            Operation::new(id(n), deps, cursor.clone(), Mutation::Assign(val.into()))
        };
        assert_eq!(
            doc.apply(op(3, vec![id(2)], "c")).unwrap(),
            ApplyOutcome::Buffered
        );
        assert_eq!(
            doc.apply(op(2, vec![id(1)], "b")).unwrap(),
            ApplyOutcome::Buffered
        );
        assert_eq!(
            doc.apply(op(1, vec![], "a")).unwrap(),
            ApplyOutcome::Applied
        );
        assert_eq!(doc.pending_len(), 0);
        assert_eq!(doc.to_value().get("k").unwrap().as_str(), Some("c"));
    }

    #[test]
    fn op_level_commutativity_for_concurrent_ops() {
        // Concurrent assigns to different keys commute exactly.
        let mut cursor_a = Cursor::new();
        cursor_a.push_key("a");
        let mut cursor_b = Cursor::new();
        cursor_b.push_key("b");
        let op_a = Operation::new(
            OpId::new(1, ReplicaId(1)),
            vec![],
            cursor_a,
            Mutation::Assign("1".into()),
        );
        let op_b = Operation::new(
            OpId::new(1, ReplicaId(2)),
            vec![],
            cursor_b,
            Mutation::Assign("2".into()),
        );
        let mut d1 = JsonCrdt::new(ReplicaId(9));
        d1.apply(op_a.clone()).unwrap();
        d1.apply(op_b.clone()).unwrap();
        let mut d2 = JsonCrdt::new(ReplicaId(9));
        d2.apply(op_b).unwrap();
        d2.apply(op_a).unwrap();
        assert_eq!(d1.to_value(), d2.to_value());
    }

    #[test]
    fn concurrent_register_assigns_arbitrate_by_op_id() {
        let mut cursor = Cursor::new();
        cursor.push_key("k");
        let op1 = Operation::new(
            OpId::new(1, ReplicaId(1)),
            vec![],
            cursor.clone(),
            Mutation::Assign("low".into()),
        );
        let op2 = Operation::new(
            OpId::new(1, ReplicaId(2)),
            vec![],
            cursor,
            Mutation::Assign("high".into()),
        );
        for order in [[&op1, &op2], [&op2, &op1]] {
            let mut doc = JsonCrdt::new(ReplicaId(9));
            for op in order {
                doc.apply(op.clone()).unwrap();
            }
            assert_eq!(doc.to_value().get("k").unwrap().as_str(), Some("high"));
        }
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
    fn clock_advances_past_applied_foreign_ops() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        let mut cursor = Cursor::new();
        cursor.push_key("k");
        doc.apply(Operation::new(
            OpId::new(50, ReplicaId(7)),
            vec![],
            cursor,
            Mutation::Assign("x".into()),
        ))
        .unwrap();
        // A subsequent local merge must stamp ids above 50.
        doc.merge_value(&v(r#"{"y":"1"}"#)).unwrap();
        assert!(doc.clock().current() > 50);
    }

    #[test]
    fn frontier_tracks_merge_chains_exactly() {
        let mut doc = JsonCrdt::new(ReplicaId(3));
        doc.merge_value(&v(r#"{"a":"1","b":{"c":"2"}}"#)).unwrap();
        assert!(doc.frontier_is_exact());
        assert_eq!(
            doc.frontier().entry(ReplicaId(3)),
            doc.clock().current(),
            "merge chains observe every counter contiguously"
        );
        assert_eq!(doc.frontier().len(), 1);
    }

    #[test]
    fn frontier_gap_from_foreign_op_clears_exactness() {
        let mut doc = JsonCrdt::new(ReplicaId(1));
        let mut cursor = Cursor::new();
        cursor.push_key("k");
        doc.apply(Operation::new(
            OpId::new(50, ReplicaId(7)),
            vec![],
            cursor,
            Mutation::Assign("x".into()),
        ))
        .unwrap();
        assert!(!doc.frontier_is_exact());
        assert!(!doc.frontier().contains(OpId::new(50, ReplicaId(7))));
    }

    #[test]
    fn merge_requires_history() {
        let plain = JsonCrdt::new(ReplicaId(1));
        let mut dst = JsonCrdt::new(ReplicaId(2));
        assert_eq!(dst.merge(&plain), Err(DocError::MissingHistory));
    }

    #[test]
    fn merge_replays_history_into_empty_doc() {
        let mut src = JsonCrdt::with_history(ReplicaId(1));
        src.merge_value(&v(r#"{"deviceID":"d1","readings":["51.0","49.5"]}"#))
            .unwrap();
        let mut dst = JsonCrdt::new(ReplicaId(2));
        let work = dst.merge(&src).unwrap();
        assert_eq!(dst.to_value(), src.to_value());
        assert_eq!(work.ops_applied, src.applied_len() as u64);
    }

    #[test]
    fn incremental_merge_applies_only_ops_beyond_frontier() {
        let mut src = JsonCrdt::with_history(ReplicaId(1));
        src.merge_value(&v(r#"{"readings":["1","2"]}"#)).unwrap();
        // A replica that has seen everything so far…
        let mut dst = src.clone();
        let ops_shared = src.applied_len();
        // …then the source advances.
        src.merge_value(&v(r#"{"readings":["3"]}"#)).unwrap();
        let work = dst.merge(&src).unwrap();
        assert_eq!(dst.to_value(), src.to_value());
        assert_eq!(
            work.ops_applied,
            (src.applied_len() - ops_shared) as u64,
            "ops at or below the frontier are skipped, not re-applied"
        );
        // Re-merging an already-covered source is free.
        assert_eq!(dst.merge(&src).unwrap().ops_applied, 0);
    }

    #[test]
    fn inexact_frontier_falls_back_to_full_replay_correctly() {
        let mut src = JsonCrdt::with_history(ReplicaId(1));
        src.merge_value(&v(r#"{"a":"1"}"#)).unwrap();
        let mut dst = JsonCrdt::new(ReplicaId(2));
        // Punch a gap into dst's frontier first.
        let mut cursor = Cursor::new();
        cursor.push_key("foreign");
        dst.apply(Operation::new(
            OpId::new(40, ReplicaId(9)),
            vec![],
            cursor,
            Mutation::Assign("x".into()),
        ))
        .unwrap();
        assert!(!dst.frontier_is_exact());
        dst.merge(&src).unwrap();
        let merged = dst.to_value();
        assert_eq!(merged.get("a").unwrap().as_str(), Some("1"));
        assert_eq!(merged.get("foreign").unwrap().as_str(), Some("x"));
        // Idempotent under replay even without the frontier fast path.
        let before = dst.to_value();
        dst.merge(&src).unwrap();
        assert_eq!(dst.to_value(), before);
    }

    #[test]
    fn history_records_application_order_and_survives_clone() {
        let mut doc = JsonCrdt::with_history(ReplicaId(5));
        doc.merge_value(&v(r#"{"a":"1","b":"2"}"#)).unwrap();
        let history = doc.history().expect("history enabled");
        assert_eq!(history.len(), doc.applied_len());
        // Application order == counter order for a lone merge chain.
        for (i, op) in history.iter().enumerate() {
            assert_eq!(op.id.counter, (i + 1) as u64);
            assert_eq!(op.replica(), ReplicaId(5));
        }
        assert!(JsonCrdt::new(ReplicaId(5)).history().is_none());
    }
}
