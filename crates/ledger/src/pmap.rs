//! The persistent ordered map behind [`crate::WorldState`]: a
//! path-copying B+tree with `Arc` nodes (DESIGN.md §4.18).
//!
//! Entries live in leaves, sorted; inner nodes hold separator keys and
//! children. A clone shares the root. A write walks root-to-leaf with
//! [`Arc::make_mut`]: a node nobody else holds is mutated in place, a
//! shared one is copied first — so a write through a freshly cloned map
//! copies one path (`height` nodes, one leaf's entries) and every later
//! write through the same nodes is as cheap as in an unshared tree.
//! Whatever the old root reached, it still reaches.
//!
//! Separators are `Arc<str>` so copying an inner node bumps reference
//! counts instead of allocating; `seps[i]` is a lower bound of
//! `kids[i + 1]` and a strict upper bound of `kids[i]`. A delete may
//! leave a separator that is no longer a key; the bound still holds.
//!
//! Searching a node does not chase every probed key's heap pointer.
//! Each node keeps an [`Index`]: how many leading bytes all its keys
//! share, and per key the eight bytes after that prefix as one
//! big-endian integer. A lookup checks the prefix against the node's
//! first key, binary-searches the integers, which sit in one or two
//! cache lines, and compares whole strings only where two of them tie
//! (`BTreeMap`'s search reads a key per step; `micro` has both rows).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::worldstate::VersionedValue;

type Entry = (String, VersionedValue);

/// Most entries in a leaf / children of an inner node. Measured with
/// `micro`'s `worldstate/{seed,get}` rows: 16 adds a level at 100k keys
/// and 64 makes the in-leaf insert move two kilobytes on average.
const MAX: usize = 32;
/// Fewest entries / children of a node other than the root. A quarter,
/// not a half, so a node that was just merged full and then split is
/// eight deletes away from the next merge.
const MIN: usize = MAX / 4;

/// What a node knows about its keys without reading them.
#[derive(Clone)]
struct Index {
    /// How many leading bytes every key in the node shares.
    skip: usize,
    /// Per key, the up to eight bytes after the prefix, big-endian and
    /// zero-padded: `heads[i] < heads[j]` implies `key i < key j`, and
    /// equal heads decide nothing.
    heads: Vec<u64>,
}

fn head_of(key: &[u8], skip: usize) -> u64 {
    let tail = &key[skip..];
    match tail.first_chunk::<8>() {
        Some(chunk) => u64::from_be_bytes(*chunk),
        None => tail.iter().enumerate().fold(0, |head, (at, byte)| {
            head | u64::from(*byte) << (56 - 8 * at)
        }),
    }
}

impl Index {
    /// The position of `key` among the node's keys (`Ok`), or where it
    /// would be inserted (`Err`); `key_at` reads a key for a tie-break.
    fn locate<'a>(&self, key: &str, key_at: impl Fn(usize) -> &'a str) -> Result<usize, usize> {
        let bytes = key.as_bytes();
        if self.skip > 0 {
            let prefix = &key_at(0).as_bytes()[..self.skip];
            if !bytes.starts_with(prefix) {
                // Sorts before every key that has the prefix, or after.
                return Err(if bytes < prefix { 0 } else { self.heads.len() });
            }
        }
        let head = head_of(bytes, self.skip);
        let mut low = self.heads.partition_point(|other| *other < head);
        let ties = self.heads[low..].iter().take_while(|other| **other == head);
        let mut high = low + ties.count();
        // Usually zero or one tie. Keys that agree on eight bytes past
        // the prefix tie in runs, and this is then a plain binary search.
        while low < high {
            let middle = (low + high) / 2;
            match key_at(middle).cmp(key) {
                Ordering::Less => low = middle + 1,
                Ordering::Equal => return Ok(middle),
                Ordering::Greater => high = middle,
            }
        }
        Err(low)
    }
}

struct Node {
    index: Index,
    body: Body,
}

enum Body {
    Leaf(Vec<Entry>),
    Inner {
        seps: Vec<Arc<str>>,
        kids: Vec<Arc<Node>>,
    },
}

/// A copy made for writing gets room for the insert that caused it.
impl Clone for Node {
    fn clone(&self) -> Self {
        let index = Index {
            heads: with_room(&self.index.heads),
            ..self.index
        };
        let body = match &self.body {
            Body::Leaf(entries) => Body::Leaf(with_room(entries)),
            Body::Inner { seps, kids } => Body::Inner {
                seps: with_room(seps),
                kids: with_room(kids),
            },
        };
        Node { index, body }
    }
}

fn with_room<T: Clone>(items: &[T]) -> Vec<T> {
    let mut copy = Vec::with_capacity(MAX + 1);
    copy.extend_from_slice(items);
    copy
}

fn split_off<T>(items: &mut Vec<T>, at: usize) -> Vec<T> {
    let mut tail = Vec::with_capacity(MAX + 1);
    tail.extend(items.drain(at..));
    tail
}

/// A new sibling produced by a split, with its lower-bound separator.
type Split = (Arc<str>, Arc<Node>);

/// From a position among an inner node's separators to the child that
/// covers the key: a separator is its right-hand child's lower bound.
fn child(found: Result<usize, usize>) -> usize {
    found.map_or_else(|at| at, |at| at + 1)
}

impl Node {
    fn new(body: Body) -> Self {
        let index = Index {
            skip: 0,
            heads: Vec::with_capacity(MAX + 1),
        };
        let mut node = Node { index, body };
        node.reindex();
        node
    }

    /// Entries of a leaf, children of an inner node.
    fn len(&self) -> usize {
        match &self.body {
            Body::Leaf(entries) => entries.len(),
            Body::Inner { kids, .. } => kids.len(),
        }
    }

    /// The node's keys: a leaf's entry keys, an inner node's separators.
    fn key(&self, at: usize) -> &str {
        match &self.body {
            Body::Leaf(entries) => &entries[at].0,
            Body::Inner { seps, .. } => &seps[at],
        }
    }

    fn keys(&self) -> usize {
        match &self.body {
            Body::Leaf(entries) => entries.len(),
            Body::Inner { seps, .. } => seps.len(),
        }
    }

    fn locate(&self, key: &str) -> Result<usize, usize> {
        self.index.locate(key, |at| self.key(at))
    }

    /// The child of an inner node that covers `key`.
    fn child_of(&self, key: &str) -> usize {
        child(self.locate(key))
    }

    /// Rebuilds the index from the keys: sorted, so what the first and
    /// the last share, all share.
    fn reindex(&mut self) {
        let keys = self.keys();
        let (first, last) = match keys {
            0 => (&[][..], &[][..]),
            _ => (self.key(0).as_bytes(), self.key(keys - 1).as_bytes()),
        };
        let shared = first.iter().zip(last).take_while(|(a, b)| a == b);
        let skip = shared.count();
        let mut heads = std::mem::take(&mut self.index.heads);
        heads.clear();
        heads.extend((0..keys).map(|at| head_of(self.key(at).as_bytes(), skip)));
        self.index = Index { skip, heads };
    }

    /// Indexes the key that was just inserted at `at`.
    fn index_inserted(&mut self, at: usize) {
        let key = self.key(at).as_bytes();
        // Any other key carries the prefix (an only key finds `skip` 0).
        let other = self
            .key(if at == 0 { self.keys() - 1 } else { 0 })
            .as_bytes();
        if key.get(..self.index.skip) == Some(&other[..self.index.skip]) {
            let head = head_of(key, self.index.skip);
            self.index.heads.insert(at, head);
        } else {
            self.reindex();
        }
    }

    /// Moves the upper half out into a new right sibling.
    fn split(&mut self) -> Split {
        let (sep, right) = match &mut self.body {
            Body::Leaf(entries) => {
                let right = split_off(entries, entries.len() / 2);
                (Arc::from(right[0].0.as_str()), Body::Leaf(right))
            }
            Body::Inner { seps, kids } => {
                let mid = kids.len() / 2;
                let right = Body::Inner {
                    kids: split_off(kids, mid),
                    seps: split_off(seps, mid),
                };
                let sep = seps.pop().expect("an inner node that splits has a middle");
                (sep, right)
            }
        };
        self.reindex();
        (sep, Arc::new(Node::new(right)))
    }

    /// Appends the right sibling `other`; `sep` is the separator that
    /// stood between the two in their parent. Leaves the index stale.
    fn absorb(&mut self, sep: Arc<str>, other: Node) {
        match (&mut self.body, other.body) {
            (Body::Leaf(entries), Body::Leaf(more)) => entries.extend(more),
            (
                Body::Inner { seps, kids },
                Body::Inner {
                    seps: more_seps,
                    kids: more_kids,
                },
            ) => {
                seps.push(sep);
                seps.extend(more_seps);
                kids.extend(more_kids);
            }
            _ => unreachable!("siblings sit at one depth"),
        }
    }

    /// Child `at` fell under [`MIN`]: pour its right-hand neighbour (or
    /// itself into its left-hand one) together, and split the result
    /// again if it does not fit one node — the two then hold half each.
    fn rebalance(&mut self, at: usize) {
        let Body::Inner { seps, kids } = &mut self.body else {
            unreachable!("only inner nodes have children");
        };
        let left = if at + 1 < kids.len() { at } else { at - 1 };
        let sep = seps.remove(left);
        let right = kids.remove(left + 1);
        let right = Arc::try_unwrap(right).unwrap_or_else(|shared| (*shared).clone());
        let merged = Arc::make_mut(&mut kids[left]);
        merged.absorb(sep, right);
        if merged.len() > MAX {
            let (sep, right) = merged.split();
            seps.insert(left, sep);
            kids.insert(left + 1, right);
        } else {
            merged.reindex();
        }
        self.reindex();
    }
}

fn insert(
    node: &mut Arc<Node>,
    key: String,
    value: VersionedValue,
) -> (Option<VersionedValue>, Option<Split>) {
    let node = Arc::make_mut(node);
    let found = node.locate(&key);
    let (at, previous) = match &mut node.body {
        Body::Leaf(entries) => match found {
            Ok(at) => return (Some(std::mem::replace(&mut entries[at].1, value)), None),
            Err(at) => {
                entries.insert(at, (key, value));
                (at, None)
            }
        },
        Body::Inner { seps, kids } => {
            let at = child(found);
            let (previous, split) = insert(&mut kids[at], key, value);
            let Some((sep, right)) = split else {
                return (previous, None);
            };
            seps.insert(at, sep);
            kids.insert(at + 1, right);
            (at, previous)
        }
    };
    node.index_inserted(at);
    let split = (node.len() > MAX).then(|| node.split());
    (previous, split)
}

/// Removes `key`, which the caller has checked is present (so a miss
/// never copies a path).
fn remove(node: &mut Arc<Node>, key: &str) -> VersionedValue {
    let node = Arc::make_mut(node);
    let found = node.locate(key);
    match &mut node.body {
        Body::Leaf(entries) => {
            let at = found.expect("caller checked the key is present");
            node.index.heads.remove(at);
            if node.index.heads.is_empty() {
                // An emptied root leaf: no first key to hold a prefix.
                node.index.skip = 0;
            }
            entries.remove(at).1
        }
        Body::Inner { kids, .. } => {
            let at = child(found);
            let removed = remove(&mut kids[at], key);
            if kids[at].len() < MIN {
                node.rebalance(at);
            }
            removed
        }
    }
}

/// A persistent sorted map from `String` to [`VersionedValue`].
#[derive(Clone)]
pub(crate) struct PMap {
    root: Arc<Node>,
    len: usize,
}

impl Default for PMap {
    fn default() -> Self {
        PMap {
            root: Arc::new(Node::new(Body::Leaf(Vec::new()))),
            len: 0,
        }
    }
}

impl PMap {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, key: &str) -> Option<&VersionedValue> {
        let mut node = &*self.root;
        loop {
            match &node.body {
                Body::Inner { kids, .. } => node = &kids[node.child_of(key)],
                Body::Leaf(entries) => return node.locate(key).ok().map(|at| &entries[at].1),
            }
        }
    }

    pub(crate) fn insert(&mut self, key: String, value: VersionedValue) -> Option<VersionedValue> {
        let (previous, split) = insert(&mut self.root, key, value);
        if let Some((sep, right)) = split {
            let mut seps = Vec::with_capacity(MAX + 1);
            seps.push(sep);
            let mut kids = Vec::with_capacity(MAX + 1);
            kids.extend([Arc::clone(&self.root), right]);
            self.root = Arc::new(Node::new(Body::Inner { seps, kids }));
        }
        self.len += usize::from(previous.is_none());
        previous
    }

    pub(crate) fn remove(&mut self, key: &str) -> Option<VersionedValue> {
        self.get(key)?;
        let removed = remove(&mut self.root, key);
        self.len -= 1;
        while let Body::Inner { kids, .. } = &self.root.body {
            if kids.len() > 1 {
                break;
            }
            let only = Arc::clone(&kids[0]);
            self.root = only;
        }
        Some(removed)
    }

    pub(crate) fn iter(&self) -> Cursor<'_> {
        let mut cursor = Cursor {
            path: Vec::new(),
            leaf: &[],
            at: 0,
        };
        cursor.descend(&self.root);
        cursor
    }

    /// A cursor at the first entry whose key is `>= start`.
    pub(crate) fn iter_from(&self, start: &str) -> Cursor<'_> {
        let mut path = Vec::new();
        let mut node = &*self.root;
        loop {
            match &node.body {
                Body::Inner { kids, .. } => {
                    let at = node.child_of(start);
                    path.push((kids.as_slice(), at));
                    node = &kids[at];
                }
                Body::Leaf(entries) => {
                    let at = node.locate(start).unwrap_or_else(|at| at);
                    return Cursor {
                        path,
                        leaf: entries,
                        at,
                    };
                }
            }
        }
    }

    /// Walks the whole tree, panicking on a broken structural invariant
    /// (uniform leaf depth, node fill, separator bounds, sorted keys, an
    /// index that agrees with the keys, entry count), and returns the
    /// height (a lone leaf is 1) and the address of every node, root
    /// first. For tests.
    pub(crate) fn audit(&self) -> (usize, Vec<usize>) {
        fn walk<'a>(
            node: &'a Arc<Node>,
            is_root: bool,
            keys: &mut Vec<&'a str>,
            nodes: &mut Vec<usize>,
        ) -> usize {
            nodes.push(Arc::as_ptr(node) as usize);
            let floor = if is_root { 0 } else { MIN };
            assert!((floor..=MAX).contains(&node.len()), "node fill");
            let index = &node.index;
            assert_eq!(index.heads.len(), node.keys(), "one head per key");
            assert!(index.heads.is_sorted(), "heads keep key order");
            for at in 0..node.keys() {
                let key = node.key(at).as_bytes();
                let prefix = &node.key(0).as_bytes()[..index.skip];
                assert!(key.starts_with(prefix), "shared prefix");
                assert_eq!(index.heads[at], head_of(key, index.skip), "head");
            }
            match &node.body {
                Body::Leaf(entries) => {
                    keys.extend(entries.iter().map(|entry| entry.0.as_str()));
                    1
                }
                Body::Inner { seps, kids } => {
                    assert!(kids.len() >= 2, "an inner node separates something");
                    assert_eq!(seps.len() + 1, kids.len());
                    let mut depth = None;
                    for (at, kid) in kids.iter().enumerate() {
                        let first = keys.len();
                        let below = walk(kid, false, keys, nodes);
                        assert_eq!(*depth.get_or_insert(below), below, "uniform leaf depth");
                        assert!(
                            at == 0 || keys[first] >= &*seps[at - 1],
                            "lower separator bound"
                        );
                        assert!(
                            at == seps.len() || *keys.last().expect("nonempty") < &*seps[at],
                            "upper separator bound"
                        );
                    }
                    depth.expect("has children") + 1
                }
            }
        }
        let (mut keys, mut nodes) = (Vec::new(), Vec::new());
        let height = walk(&self.root, true, &mut keys, &mut nodes);
        assert!(keys.windows(2).all(|pair| pair[0] < pair[1]), "sorted keys");
        assert_eq!(keys.len(), self.len, "entry count");
        (height, nodes)
    }
}

/// Layout never decides equality: two maps are equal when they hold the
/// same entries. Subtrees both sides share are skipped, so comparing a
/// map with a descendant of its clone costs the difference, not the
/// size.
impl PartialEq for PMap {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.root, &other.root) {
            return true;
        }
        if self.len != other.len {
            return false;
        }
        let (mut ours, mut theirs) = (self.iter(), other.iter());
        loop {
            while ours.skip_shared(&mut theirs) {}
            match (ours.next(), theirs.next()) {
                (None, None) => return true,
                (Some(a), Some(b)) if a == b => {}
                _ => return false,
            }
        }
    }
}

impl Eq for PMap {}

impl fmt::Debug for PMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// An in-order position: the children slice and chosen index at every
/// inner level (root first), then the leaf and the next entry in it.
pub(crate) struct Cursor<'a> {
    path: Vec<(&'a [Arc<Node>], usize)>,
    leaf: &'a [Entry],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Positions at the first entry under `node`.
    fn descend(&mut self, mut node: &'a Node) {
        loop {
            match &node.body {
                Body::Inner { kids, .. } => {
                    self.path.push((kids, 0));
                    node = &kids[0];
                }
                Body::Leaf(entries) => {
                    self.leaf = entries;
                    self.at = 0;
                    return;
                }
            }
        }
    }

    /// Leaves the subtree `levels` above the leaf (0 is the leaf
    /// itself) for the first entry after it; `false` at the end.
    fn leave(&mut self, levels: usize) -> bool {
        self.path.truncate(self.path.len() - levels);
        while let Some((kids, at)) = self.path.pop() {
            if at + 1 < kids.len() {
                self.path.push((kids, at + 1));
                self.descend(&kids[at + 1]);
                return true;
            }
        }
        self.at = self.leaf.len();
        false
    }

    /// Moves off an exhausted leaf onto the next entry; `false` at the
    /// end.
    fn settle(&mut self) -> bool {
        while self.at == self.leaf.len() {
            if !self.leave(0) {
                return false;
            }
        }
        true
    }

    /// How many nodes on the path — the leaf, its parent, … — this
    /// cursor stands at the very first entry of.
    fn fresh(&self) -> usize {
        if self.at > 0 || self.path.is_empty() {
            return 0;
        }
        let zeros = self.path.iter().rev().take_while(|(_, at)| *at == 0);
        (zeros.count() + 1).min(self.path.len())
    }

    /// The node `level` above the leaf.
    fn ancestor(&self, level: usize) -> &'a Arc<Node> {
        let (kids, at) = self.path[self.path.len() - 1 - level];
        &kids[at]
    }

    /// If both cursors stand at the start of one shared subtree, steps
    /// both past the largest such.
    fn skip_shared(&mut self, other: &mut Self) -> bool {
        self.settle();
        other.settle();
        for level in (0..self.fresh().min(other.fresh())).rev() {
            if Arc::ptr_eq(self.ancestor(level), other.ancestor(level)) {
                self.leave(level);
                other.leave(level);
                return true;
            }
        }
        false
    }
}

impl<'a> Iterator for Cursor<'a> {
    type Item = (&'a String, &'a VersionedValue);

    fn next(&mut self) -> Option<Self::Item> {
        if !self.settle() {
            return None;
        }
        let (key, value) = &self.leaf[self.at];
        self.at += 1;
        Some((key, value))
    }
}
