//! The JSON CRDT of the FabricCRDT reproduction.
//!
//! This crate implements the datatype layer of *FabricCRDT* (Middleware
//! 2019):
//!
//! - [`json`]: a self-contained JSON value model with a recursive-descent
//!   parser and compact/pretty serializers (the reproduction deliberately
//!   avoids `serde_json`; JSON handling is a substrate the paper's system
//!   depends on, so it is built from scratch).
//! - [`op`]: content-addressed list-element identity ([`op::ItemKey`]).
//! - [`doc`]: the JSON CRDT document itself (after Kleppmann & Beresford,
//!   IEEE TPDS 2017), exactly what Algorithms 1 and 2 use: **Algorithm 2**
//!   ([`JsonCrdt::merge_value`]), which folds a plain JSON object into the
//!   CRDT in one walk, the metadata-stripping conversion back to plain
//!   JSON, and [`doc::write_alone`] for a key written once, or
//!   [`doc::alone_as_is`] when its bytes are already in that form. Every
//!   peer derives the same operations from the same block order, so no
//!   document ships, buffers or deletes an operation.
//! - [`cache`]: an empty shell kept for `perf/`; nothing is cached.
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
pub mod doc;
pub mod json;
pub mod op;
pub mod work;

pub use doc::{JsonCrdt, ReplicaId};
pub use work::WorkStats;
