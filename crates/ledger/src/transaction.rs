//! Endorsed transactions.
//!
//! After collecting endorsements, a Fabric client assembles a transaction
//! from the proposal payload, the endorsing peers' signatures, and
//! metadata, then submits it to the ordering service (§2.1, step 2).
//!
//! A transaction has one byte layout, [`Transaction::write_bytes`]: a
//! block stores and ships it, and the block's data hash covers all of
//! it, client and endorser identities included. Endorsers sign its
//! prefix, [`Transaction::response_payload`]. A committed transaction
//! keeps exactly the bytes its endorsers signed: Algorithm 1's
//! converged values live in the block's commit record, beside it
//! ([`Block::value_of`](crate::block::Block::value_of)).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

use fabriccrdt_crypto::{sha256, Identity, Signature};

use crate::codec::{ByteSink, DecodeError, Reader};
use crate::rwset::ReadWriteSet;

/// A transaction identifier: SHA-256 over the client identity, a client
/// nonce and the chaincode name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TxId(pub [u8; 32]);

/// The digest's bytes, with no length prefix: all a [`TxIdHash`] reads.
impl Hash for TxId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.0);
    }
}

/// A set of [`TxId`]s under [`TxIdHash`].
pub type TxIdSet = HashSet<TxId, TxIdHash>;

/// A map keyed by [`TxId`] under [`TxIdHash`].
pub type TxIdMap<V> = HashMap<TxId, V, TxIdHash>;

/// The hasher of every set and map keyed by [`TxId`]: each 16 bytes of
/// the digest fold one 128-bit multiply of its two words, each XORed
/// with a per-process random key — two multiplies per id, where std's
/// SipHash-1-3 runs eight rounds over the id and its length. The key
/// keeps it keyed: an id is whatever bytes a client put in its
/// transaction (no peer re-derives it), so a client can choose ids
/// freely, but cannot learn which of them share a bucket. Every digest
/// byte is read, because ids that agree on a prefix the client chose
/// would otherwise all collide.
#[derive(Debug, Clone, Copy)]
pub struct TxIdHash {
    keys: [u64; 2],
}

impl Default for TxIdHash {
    fn default() -> Self {
        static KEYS: OnceLock<[u64; 2]> = OnceLock::new();
        let keys = *KEYS.get_or_init(|| {
            let random = RandomState::new();
            [random.hash_one(0u8), random.hash_one(1u8)]
        });
        TxIdHash { keys }
    }
}

impl BuildHasher for TxIdHash {
    type Hasher = TxIdHasher;

    fn build_hasher(&self) -> TxIdHasher {
        TxIdHasher {
            keys: self.keys,
            hash: 0,
        }
    }
}

/// The [`Hasher`] a [`TxIdHash`] builds.
#[derive(Debug, Clone)]
pub struct TxIdHasher {
    keys: [u64; 2],
    hash: u64,
}

impl Hasher for TxIdHasher {
    /// Whole 16-byte blocks are fixed-size loads, and a shorter tail is
    /// folded once, zero-padded: a 32-byte id copies nothing.
    fn write(&mut self, bytes: &[u8]) {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let mut padded = [0u8; 16];
        let tail = (!tail.is_empty()).then(|| {
            padded[..tail.len()].copy_from_slice(tail);
            &padded
        });
        for &block in blocks.iter().chain(tail) {
            let words = u128::from_le_bytes(block);
            let product = u128::from(words as u64 ^ self.keys[0] ^ self.hash)
                * u128::from((words >> 64) as u64 ^ self.keys[1]);
            self.hash = (product >> 64) as u64 ^ product as u64;
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

impl TxId {
    /// Derives a transaction id.
    pub fn derive(client: &Identity, nonce: u64, chaincode: &str) -> Self {
        let mut h = sha256::Sha256::new();
        for part in client.display_parts() {
            h.update(part);
        }
        h.update(&nonce.to_be_bytes());
        h.update(chaincode.as_bytes());
        TxId(h.finalize())
    }

    /// Short hex prefix for logs.
    pub fn short(&self) -> String {
        fabriccrdt_crypto::hex::encode(&self.0[..4])
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fabriccrdt_crypto::hex::encode(&self.0))
    }
}

/// An endorsement: a peer's signature over the proposal response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endorsement {
    /// The endorsing peer.
    pub endorser: Identity,
    /// The endorser's MAC of the SHA-256 of the transaction's
    /// [`Transaction::response_payload`] (id, client, chaincode and
    /// read-write set): `KeyPair::sign_digest`.
    pub signature: Signature,
}

/// An endorsed transaction ready for ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Content-derived identifier.
    pub id: TxId,
    /// Submitting client.
    pub client: Identity,
    /// Invoked chaincode name.
    pub chaincode: String,
    /// Simulation result all endorsers agreed on.
    pub rwset: ReadWriteSet,
    /// Collected endorsements.
    pub endorsements: Vec<Endorsement>,
}

impl Transaction {
    /// The bytes endorsement signatures cover (the proposal response
    /// payload): [`Transaction::to_bytes`] up to the endorsement count.
    /// Counted, then written into one allocation.
    pub fn response_payload(&self) -> Vec<u8> {
        let mut len = 0usize;
        self.write_response_payload(&mut len);
        let mut out = Vec::with_capacity(len);
        self.write_response_payload(&mut out);
        out
    }

    /// Appends [`Transaction::response_payload`] to `out`: id, client,
    /// chaincode and read-write set, strings length-prefixed.
    pub(crate) fn write_response_payload(&self, out: &mut impl ByteSink) {
        out.digest(&self.id.0);
        out.str(&self.client.name);
        out.str(&self.client.org);
        out.str(&self.chaincode);
        self.rwset.write_bytes(out);
    }

    /// The transaction's one byte layout: what a block stores and ships
    /// ([`codec::encode_block`](crate::codec::encode_block)) and what
    /// its data-hash leaf covers.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut len = 0usize;
        self.write_bytes(&mut len);
        let mut out = Vec::with_capacity(len);
        self.write_bytes(&mut out);
        out
    }

    /// Appends [`Transaction::to_bytes`] to `out`, so a caller hashing
    /// or encoding many transactions can reuse one buffer, and a `usize`
    /// sink weighs one for a block cut.
    pub fn write_bytes(&self, out: &mut impl ByteSink) {
        self.write_response_payload(out);
        self.write_endorsements(out);
    }

    /// What [`Transaction::write_bytes`] adds to the response payload:
    /// the endorsement count, then each endorser and signature.
    pub(crate) fn write_endorsements(&self, out: &mut impl ByteSink) {
        out.u64(self.endorsements.len() as u64);
        for e in &self.endorsements {
            out.str(&e.endorser.name);
            out.str(&e.endorser.org);
            out.digest(&e.signature.0);
        }
    }

    /// Reads what [`Transaction::write_bytes`] wrote.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let id = TxId(r.digest()?);
        let client = Identity::new(r.text()?, r.text()?);
        let chaincode = r.str()?;
        let rwset = ReadWriteSet::read(r)?;
        let endorsement_count = r.len(40)?;
        let mut endorsements = Vec::with_capacity(endorsement_count);
        for _ in 0..endorsement_count {
            endorsements.push(Endorsement {
                endorser: Identity::new(r.text()?, r.text()?),
                signature: Signature(r.digest()?),
            });
        }
        Ok(Transaction {
            id,
            client,
            chaincode,
            rwset,
            endorsements,
        })
    }

    /// Whether any write-set entry is CRDT-flagged — a "CRDT transaction"
    /// in the paper's terms (§4.3).
    pub fn is_crdt(&self) -> bool {
        self.rwset.writes.has_crdt_writes()
    }

    /// Organizations that endorsed this transaction.
    pub fn endorsing_orgs(&self) -> Vec<&str> {
        let mut orgs: Vec<&str> = self.endorsements.iter().map(|e| &*e.endorser.org).collect();
        orgs.sort_unstable();
        orgs.dedup();
        orgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_crypto::KeyPair;

    fn sample_tx(crdt: bool) -> Transaction {
        let client = Identity::new("client1", "org1");
        let mut rwset = ReadWriteSet::new();
        rwset.reads.record("k", None);
        if crdt {
            rwset.writes.put_crdt("k", b"v".to_vec());
        } else {
            rwset.writes.put("k", b"v".to_vec());
        }
        let id = TxId::derive(&client, 1, "iot");
        Transaction {
            id,
            client,
            chaincode: "iot".into(),
            rwset,
            endorsements: Vec::new(),
        }
    }

    /// The fold as first written: every chunk, the last one short,
    /// copied into a zeroed block.
    fn chunked_fold(keys: [u64; 2], bytes: &[u8]) -> u64 {
        let mut hash = 0u64;
        for chunk in bytes.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            let words = u128::from_le_bytes(block);
            let product = u128::from(words as u64 ^ keys[0] ^ hash)
                * u128::from((words >> 64) as u64 ^ keys[1]);
            hash = (product >> 64) as u64 ^ product as u64;
        }
        hash
    }

    #[test]
    fn the_hasher_folds_as_the_chunked_fold_did() {
        let bytes: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(151) ^ 0x5a).collect();
        for keys in [[0, 0], [1, 2], [u64::MAX, 0x9e37_79b9_7f4a_7c15]] {
            for len in 0..=64 {
                let mut hasher = TxIdHash { keys }.build_hasher();
                hasher.write(&bytes[..len]);
                assert_eq!(
                    hasher.finish(),
                    chunked_fold(keys, &bytes[..len]),
                    "{len} bytes"
                );
            }
        }
    }

    #[test]
    fn tx_ids_are_unique_per_nonce_and_client() {
        let c1 = Identity::new("client1", "org1");
        let c2 = Identity::new("client2", "org1");
        assert_ne!(TxId::derive(&c1, 1, "cc"), TxId::derive(&c1, 2, "cc"));
        assert_ne!(TxId::derive(&c1, 1, "cc"), TxId::derive(&c2, 1, "cc"));
        assert_eq!(TxId::derive(&c1, 1, "cc"), TxId::derive(&c1, 1, "cc"));
    }

    #[test]
    fn is_crdt_reflects_write_flags() {
        assert!(sample_tx(true).is_crdt());
        assert!(!sample_tx(false).is_crdt());
    }

    #[test]
    fn endorsement_signature_covers_payload() {
        let mut tx = sample_tx(false);
        let peer = KeyPair::derive(Identity::new("peer0", "org1"));
        let sig = peer.sign(&tx.response_payload());
        tx.endorsements.push(Endorsement {
            endorser: peer.identity().clone(),
            signature: sig,
        });
        assert!(peer
            .verify(&tx.response_payload(), &tx.endorsements[0].signature)
            .is_ok());
        // Tampering with the rwset invalidates the endorsement.
        tx.rwset.writes.put("k", b"tampered".to_vec());
        assert!(peer
            .verify(&tx.response_payload(), &tx.endorsements[0].signature)
            .is_err());
    }

    #[test]
    fn endorsing_orgs_deduplicates() {
        let mut tx = sample_tx(false);
        for (name, org) in [("p0", "org1"), ("p1", "org1"), ("p0", "org2")] {
            let peer = KeyPair::derive(Identity::new(name, org));
            let sig = peer.sign(&tx.response_payload());
            tx.endorsements.push(Endorsement {
                endorser: peer.identity().clone(),
                signature: sig,
            });
        }
        assert_eq!(tx.endorsing_orgs(), ["org1", "org2"]);
    }

    #[test]
    fn to_bytes_includes_endorsements() {
        let plain = sample_tx(false);
        let mut endorsed = plain.clone();
        let peer = KeyPair::derive(Identity::new("peer0", "org1"));
        endorsed.endorsements.push(Endorsement {
            endorser: peer.identity().clone(),
            signature: peer.sign(&endorsed.response_payload()),
        });
        assert_ne!(plain.to_bytes(), endorsed.to_bytes());
    }

    /// Ids that a client made agree on every byte but one still hash
    /// apart, whichever byte it is; equal ids hash equal.
    #[test]
    fn tx_id_hash_reads_every_digest_byte() {
        let hash = TxIdHash::default();
        let base = TxId::derive(&Identity::new("client1", "org1"), 1, "cc");
        assert_eq!(hash.hash_one(base), hash.hash_one(TxId(base.0)));
        for byte in 0..32 {
            let hashes: HashSet<u64> = (0..=255u8)
                .map(|v| {
                    let mut id = base;
                    id.0[byte] = v;
                    hash.hash_one(id)
                })
                .collect();
            assert_eq!(hashes.len(), 256, "byte {byte}");
        }
        let set: TxIdSet = (0..1000u64)
            .map(|n| TxId::derive(&Identity::new("c", "o"), n, "cc"))
            .collect();
        assert_eq!(set.len(), 1000);
        assert!(set.contains(&TxId::derive(&Identity::new("c", "o"), 999, "cc")));
    }

    #[test]
    fn short_id_is_eight_hex_chars() {
        assert_eq!(sample_tx(false).id.short().len(), 8);
    }
}
