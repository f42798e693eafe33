//! Cryptographic substrate for the FabricCRDT reproduction.
//!
//! Hyperledger Fabric relies on SHA-256 block hashing, Merkle-style data
//! hashes, and x509/ECDSA identities for endorsement signatures. This crate
//! provides the equivalents used by the simulation:
//!
//! - [`sha256`]: a from-scratch FIPS-180-4 SHA-256 implementation with two
//!   compression kernels — portable Rust and the x86-64 SHA extensions,
//!   picked by run-time CPU detection — verified against the standard
//!   test vectors and against each other (see the `sha256` module tests).
//! - [`merkle`]: binary Merkle roots over transaction bytes, used for
//!   block data hashes.
//! - [`identity`]: simulated identities and keyed-hash signatures. Real
//!   Fabric uses X.509 certificates and ECDSA; the *content* of the
//!   cryptosystem does not affect which transactions commit, so we
//!   substitute a deterministic keyed-hash MAC (documented in `DESIGN.md`).
//! - [`hex`]: hexadecimal encoding/decoding helpers.
//!
//! # Examples
//!
//! ```
//! use fabriccrdt_crypto::{sha256, hex};
//!
//! let digest = sha256::digest(b"abc");
//! assert_eq!(
//!     hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
//! );
//! ```

// `deny`, not `forbid`, because exactly one private module —
// `sha256::shani`, the hardware kernel and its dispatch — carries
// `#[allow(unsafe_code)]`; `ci.sh` fails when any other file uses the
// keyword.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod hex;
pub mod identity;
pub mod merkle;
pub mod sha256;

pub use identity::{Identity, KeyPair, Signature};
pub use sha256::{digest, Digest, Sha256};
