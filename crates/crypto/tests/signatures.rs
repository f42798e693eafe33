//! The endorsement MAC's format, from outside the crate:
//! `sig = SHA-256(K ‖ SHA-256(msg))`, `K` the identity's secret
//! zero-padded to one 64-byte block, computed from the state `KeyPair`
//! saved after `K` (DESIGN.md §4.2).

use fabriccrdt_crypto::{hex, sha256, Digest, Identity, KeyPair, Signature};

/// The secret `KeyPair::derive` computes, spelled out again.
fn secret(name: &str, org: &str) -> Digest {
    sha256::digest(format!("fabriccrdt-msp-v1:{org}/{name}").as_bytes())
}

#[test]
fn signing_a_message_is_signing_its_digest() {
    let kp = KeyPair::derive(Identity::new("peer0", "org2"));
    for msg in [&b""[..], b"m", &[0x5a; 1400]] {
        let digest = sha256::digest(msg);
        assert_eq!(kp.sign(msg), kp.sign_digest(&digest));
        assert!(kp.verify_digest(&digest, &kp.sign(msg)).is_ok());
        assert!(kp.verify(msg, &kp.sign_digest(&digest)).is_ok());
    }
}

/// Computed once with an independent SHA-256, so the MAC's bytes — and
/// with them every ledger digest — cannot drift.
#[test]
fn recorded_signature_vector() {
    let kp = KeyPair::derive(Identity::new("peer0", "org1"));
    assert_eq!(
        hex::encode(&kp.sign(b"proposal-response").0),
        "0e7bbaabb170b3d95d12a281ece1d5d025934c0267496d42026f2dbb3f687768"
    );
}

#[test]
fn the_saved_state_mac_equals_a_from_scratch_hash_of_the_key_block_and_digest() {
    for (name, org) in [("peer0", "org1"), ("client1", "org3"), ("", "")] {
        let kp = KeyPair::derive(Identity::new(name, org));
        let digest = sha256::digest(name.as_bytes());
        let mut h = sha256::Sha256::new();
        h.update(&secret(name, org));
        h.update(&[0; 32]);
        h.update(&digest);
        assert_eq!(kp.sign_digest(&digest).0, h.finalize(), "{name}@{org}");
    }
}

#[test]
fn a_signature_made_the_old_way_is_rejected() {
    let kp = KeyPair::derive(Identity::new("peer0", "org1"));
    let msg = b"proposal-response";
    let mut h = sha256::Sha256::new();
    h.update(&secret("peer0", "org1"));
    h.update(msg);
    let old = Signature(h.finalize());
    assert!(kp.verify(msg, &old).is_err());
    assert!(kp.verify_digest(&sha256::digest(msg), &old).is_err());
}

#[test]
fn a_flipped_digest_bit_is_rejected() {
    let kp = KeyPair::derive(Identity::new("peer0", "org1"));
    let digest = sha256::digest(b"proposal-response");
    let sig = kp.sign_digest(&digest);
    for bit in 0..256 {
        let mut flipped = digest;
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(kp.verify_digest(&flipped, &sig).is_err(), "bit {bit}");
    }
}
