//! The JSON CRDT of the FabricCRDT reproduction.
//!
//! This crate implements the datatype layer of *FabricCRDT* (Middleware
//! 2019):
//!
//! - [`json`]: a self-contained JSON value model with a recursive-descent
//!   parser and compact/pretty serializers (the reproduction deliberately
//!   avoids `serde_json`; JSON handling is a substrate the paper's system
//!   depends on, so it is built from scratch).
//! - [`clock`]: Lamport clocks and globally unique operation identifiers,
//!   as required by Section 5.2 of the paper.
//! - [`op`]: cursors, mutations and operations — the vocabulary of the
//!   Kleppmann & Beresford JSON CRDT (IEEE TPDS 2017) that the paper builds
//!   on.
//! - [`doc`]: the JSON CRDT document itself, including dependency-buffered
//!   operation application and **Algorithm 2** of the paper
//!   ([`JsonCrdt::merge_value`]), which folds a plain JSON object into the
//!   CRDT, plus the metadata-stripping conversion back to plain JSON.
//! - [`cache`]: a process-wide memo of decoded MergeTx payloads, so the
//!   N committing peers of a simulated network parse each distinct
//!   payload once instead of N times.
//!
//! # Quick example: merging two conflicting transactions (paper Listing 1/2)
//!
//! ```
//! use fabriccrdt_jsoncrdt::{json::Value, JsonCrdt, ReplicaId};
//!
//! let tx1: Value = r#"{"deviceID": "Device1", "readings": ["51.0"]}"#.parse()?;
//! let tx2: Value = r#"{"deviceID": "Device1", "readings": ["49.5"]}"#.parse()?;
//!
//! let mut doc = JsonCrdt::new(ReplicaId(1));
//! doc.merge_value(&tx1);
//! doc.merge_value(&tx2);
//!
//! let merged = doc.to_value();
//! assert_eq!(merged.get("deviceID").unwrap().as_str(), Some("Device1"));
//! assert_eq!(merged.get("readings").unwrap().as_list().unwrap().len(), 2);
//! # Ok::<(), fabriccrdt_jsoncrdt::json::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod doc;
pub mod json;
pub mod op;
pub mod work;

pub use clock::{LamportClock, OpId, ReplicaId, VersionVector};
pub use doc::JsonCrdt;
pub use op::{Cursor, Deps, Mutation, Operation};
pub use work::WorkStats;
