//! Binary Merkle roots over transaction bytes.
//!
//! Fabric computes a block's data hash over the serialized transactions;
//! we use a conventional binary Merkle tree (odd nodes promoted) and keep
//! only what the ledger reads from it — the root. A caller hashes each
//! leaf with [`leaf`] or [`leaf_of`] (so it can serialize every
//! transaction into one reused buffer) and hands the digests to [`root`],
//! which folds them pairwise in place.
//!
//! A transaction's leaf is `SHA-256(0x00 ‖ SHA-256(response payload) ‖
//! endorsement bytes)`: its inner digest is the one every endorsement
//! signs, so a peer hashes each payload once (`fabriccrdt_ledger::block`).

use crate::sha256::{self, Digest};

/// Domain-separation prefixes so leaves can never collide with interior
/// nodes.
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// The digest of one leaf: `SHA-256(0x00 ‖ data)`.
pub fn leaf(data: &[u8]) -> Digest {
    leaf_of(&[data])
}

/// The digest of one leaf whose data arrives in pieces:
/// `SHA-256(0x00 ‖ parts[0] ‖ parts[1] ‖ …)`, without joining them.
pub fn leaf_of(parts: &[&[u8]]) -> Digest {
    let mut h = sha256::Sha256::new();
    h.update(&[LEAF_PREFIX]);
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

/// The digest of an interior node: `SHA-256(0x01 ‖ left ‖ right)`.
fn node(left: &Digest, right: &Digest) -> Digest {
    let mut bytes = [NODE_PREFIX; 65];
    bytes[1..33].copy_from_slice(left);
    bytes[33..].copy_from_slice(right);
    sha256::digest(&bytes)
}

/// The Merkle root over [`leaf`] digests, in order. A level's last node
/// is promoted unchanged when it has no sibling; an empty leaf set
/// produces the digest of the empty string.
///
/// # Examples
///
/// ```
/// use fabriccrdt_crypto::merkle;
///
/// let one = merkle::root(vec![merkle::leaf(b"tx1")]);
/// assert_eq!(one, merkle::leaf(b"tx1"));
/// let two = merkle::root(vec![merkle::leaf(b"tx1"), merkle::leaf(b"tx2")]);
/// assert_ne!(two, one);
/// ```
pub fn root(mut level: Vec<Digest>) -> Digest {
    if level.is_empty() {
        return sha256::digest(b"");
    }
    // Each pass overwrites the front of the level with its parents: slot
    // `i` is written only after slots `2i` and `2i + 1` were read.
    let mut len = level.len();
    while len > 1 {
        let pairs = len / 2;
        for i in 0..pairs {
            level[i] = node(&level[2 * i], &level[2 * i + 1]);
        }
        if len % 2 == 1 {
            level[pairs] = level[len - 1];
        }
        len = len.div_ceil(2);
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn root_of<B: AsRef<[u8]>>(leaves: impl IntoIterator<Item = B>) -> Digest {
        root(leaves.into_iter().map(|l| leaf(l.as_ref())).collect())
    }

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("tx-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_sentinel_root() {
        assert_eq!(root(Vec::new()), sha256::digest(b""));
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        assert_eq!(root_of([b"only"]), leaf(b"only"));
    }

    /// Roots of `leaves(n)` recorded before the tree was reduced to a
    /// root fold: the fold must not move a ledger byte.
    #[test]
    fn golden_roots() {
        for (n, expect) in [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                1,
                "9ed0fc0110425b37c04d982fc41cc9573716173f95ad9404b1cc6399c0e31780",
            ),
            (
                2,
                "10555b9ebbe7151188355576176c15bdd621e7c8a65be4430c86abbd72ef6a0d",
            ),
            (
                3,
                "a0feb586b7560f169566c6cf028371908065915184871962c82c3d9de9789900",
            ),
            (
                400,
                "62d3219d67bf8349b7e346f26c44c9e1bf9bc04d09b38b48eec2717c90803aaa",
            ),
        ] {
            assert_eq!(hex::encode(&root_of(leaves(n))), expect, "{n} leaves");
        }
    }

    #[test]
    fn a_leaf_in_pieces_is_the_leaf_of_the_pieces_joined() {
        let data = b"response-payload-digest-and-endorsements";
        for split in 0..=data.len() {
            let (head, tail) = data.split_at(split);
            assert_eq!(leaf_of(&[head, tail]), leaf(data), "split at {split}");
        }
        assert_eq!(leaf_of(&[]), leaf(b""));
    }

    #[test]
    fn odd_node_is_promoted_unchanged() {
        let [a, b, c, d, e] = [b"a", b"b", b"c", b"d", b"e"].map(|l| leaf(l));
        assert_eq!(root(vec![a, b, c]), node(&node(&a, &b), &c));
        // Five leaves: `e` rises two levels before it meets a sibling.
        assert_eq!(
            root(vec![a, b, c, d, e]),
            node(&node(&node(&a, &b), &node(&c, &d)), &e)
        );
    }

    #[test]
    fn root_changes_when_any_leaf_changes() {
        let mut modified = leaves(6);
        modified[5] = b"tx-5-tampered".to_vec();
        assert_ne!(root_of(leaves(6)), root_of(modified));
    }

    #[test]
    fn root_depends_on_leaf_order() {
        assert_ne!(root_of([b"a", b"b"]), root_of([b"b", b"a"]));
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // The root of a 2-leaf tree must differ from a leaf whose content is
        // the concatenation of the two leaf digests.
        let mut concat = Vec::new();
        concat.extend_from_slice(&leaf(b"a"));
        concat.extend_from_slice(&leaf(b"b"));
        assert_ne!(root_of([b"a", b"b"]), root_of([concat.as_slice()]));
    }
}
