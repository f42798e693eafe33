//! Simulated identities and signatures.
//!
//! Real Fabric uses X.509 certificates issued by per-organization membership
//! service providers (MSPs) and ECDSA signatures. For the reproduction the
//! only observable properties are: (1) each peer/client has a distinct
//! identity bound to an organization, (2) endorsements carry verifiable
//! signatures over the proposal response payload, (3) signing/verifying has
//! a latency cost (modelled in the simulator, not here). We substitute a
//! deterministic keyed-hash MAC of the payload's digest,
//! `sig = SHA-256(K ‖ SHA-256(msg))` with `K` the 32-byte secret zero-padded
//! to one 64-byte block, so a party that hashed a payload once signs or
//! verifies it for every endorser from the digest. This keeps endorsement
//! validation real (bad signatures are rejected) without pulling in a
//! full signature scheme; the substitution is recorded in `DESIGN.md`.

use std::error::Error;
use std::fmt;

use crate::sha256::{self, Digest};

/// An identity: a display name plus the organization (MSP) it belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Identity {
    /// Human-readable identity name, e.g. `"peer0.org1"`.
    pub name: String,
    /// Organization / MSP identifier, e.g. `"org1"`.
    pub org: String,
}

impl Identity {
    /// Creates an identity.
    pub fn new(name: impl Into<String>, org: impl Into<String>) -> Self {
        Identity {
            name: name.into(),
            org: org.into(),
        }
    }

    /// The `Display` form (`name@org`) as the byte slices it is made
    /// of, for the canonical encoders and id hashers, which run per
    /// endorsement per pass and must not go through `core::fmt`.
    pub fn display_parts(&self) -> [&[u8]; 3] {
        [self.name.as_bytes(), b"@", self.org.as_bytes()]
    }
}

impl fmt::Display for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.name, self.org)
    }
}

/// A signature produced by [`KeyPair::sign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub Digest);

/// Error returned when signature verification fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The identity whose signature failed to verify.
    pub signer: Identity,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "signature verification failed for {}", self.signer)
    }
}

impl Error for VerifyError {}

/// A deterministic keyed-hash "key pair" bound to an identity.
///
/// # Examples
///
/// ```
/// use fabriccrdt_crypto::{sha256, Identity, KeyPair};
///
/// let kp = KeyPair::derive(Identity::new("peer0", "org1"));
/// let sig = kp.sign(b"payload");
/// assert!(kp.verify(b"payload", &sig).is_ok());
/// assert!(kp.verify(b"tampered", &sig).is_err());
/// let digest = sha256::digest(b"payload"); // hash once, sign for many
/// assert_eq!(kp.sign_digest(&digest), sig);
/// assert!(kp.verify_digest(&digest, &sig).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    identity: Identity,
    /// SHA-256 after absorbing `K`: each MAC is one compression more.
    keyed: sha256::Sha256,
}

impl KeyPair {
    /// Derives a key pair deterministically from the identity. Determinism
    /// keeps whole-network simulations reproducible from a single seed.
    pub fn derive(identity: Identity) -> Self {
        let mut h = sha256::Sha256::new();
        h.update(b"fabriccrdt-msp-v1:");
        h.update(identity.org.as_bytes());
        h.update(b"/");
        h.update(identity.name.as_bytes());
        let mut key_block = [0u8; 64];
        key_block[..32].copy_from_slice(&h.finalize());
        let mut keyed = sha256::Sha256::new();
        keyed.update(&key_block);
        KeyPair { identity, keyed }
    }

    /// The identity this key pair signs for.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// Signs `msg`: [`KeyPair::sign_digest`] of its SHA-256.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_digest(&sha256::digest(msg))
    }

    /// Signs a message by its SHA-256 `digest`: `SHA-256(K ‖ digest)`.
    pub fn sign_digest(&self, digest: &Digest) -> Signature {
        let mut h = self.keyed.clone();
        h.update(digest);
        Signature(h.finalize())
    }

    /// Verifies `sig` over `msg`: [`KeyPair::verify_digest`] of its
    /// SHA-256.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when the signature does not match.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), VerifyError> {
        self.verify_digest(&sha256::digest(msg), sig)
    }

    /// Verifies `sig` over the message whose SHA-256 is `digest`.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when the signature does not match.
    pub fn verify_digest(&self, digest: &Digest, sig: &Signature) -> Result<(), VerifyError> {
        if self.sign_digest(digest) == *sig {
            Ok(())
        } else {
            Err(VerifyError {
                signer: self.identity.clone(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic() {
        let a = KeyPair::derive(Identity::new("peer0", "org1"));
        let b = KeyPair::derive(Identity::new("peer0", "org1"));
        assert_eq!(a, b);
        assert_eq!(a.sign(b"m"), b.sign(b"m"));
    }

    #[test]
    fn different_identities_have_different_keys() {
        let a = KeyPair::derive(Identity::new("peer0", "org1"));
        let b = KeyPair::derive(Identity::new("peer0", "org2"));
        assert_ne!(a.sign(b"m"), b.sign(b"m"));
    }

    #[test]
    fn name_org_confusion_resists() {
        // ("ab", "c") must not collide with ("a", "bc").
        let a = KeyPair::derive(Identity::new("ab", "c"));
        let b = KeyPair::derive(Identity::new("a", "bc"));
        assert_ne!(a.sign(b"m"), b.sign(b"m"));
    }

    #[test]
    fn verify_accepts_valid_signature() {
        let kp = KeyPair::derive(Identity::new("client1", "org3"));
        let sig = kp.sign(b"proposal-response");
        assert!(kp.verify(b"proposal-response", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let kp = KeyPair::derive(Identity::new("client1", "org3"));
        let sig = kp.sign(b"proposal-response");
        let err = kp.verify(b"proposal-response!", &sig).unwrap_err();
        assert_eq!(err.signer, Identity::new("client1", "org3"));
    }

    #[test]
    fn verify_rejects_foreign_signature() {
        let kp1 = KeyPair::derive(Identity::new("peer0", "org1"));
        let kp2 = KeyPair::derive(Identity::new("peer1", "org1"));
        let sig = kp1.sign(b"msg");
        assert!(kp2.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn identity_display() {
        assert_eq!(Identity::new("peer0", "org1").to_string(), "peer0@org1");
    }

    #[test]
    fn display_parts_concatenate_to_the_display_form() {
        for (name, org) in [("peer0", "org1"), ("", ""), ("a@b", "c"), ("ünï", "ørg")] {
            let id = Identity::new(name, org);
            assert_eq!(id.display_parts().concat(), id.to_string().into_bytes());
        }
    }
}
