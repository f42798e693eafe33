//! Ledger substrate: versioned world state, read-write sets, blocks and
//! MVCC validation — the parts of Hyperledger Fabric's peer ledger that
//! the FabricCRDT paper builds on.
//!
//! - [`version`]: Fabric's `(block number, transaction number)` value
//!   versions.
//! - [`worldstate`]: the versioned key-value world state database
//!   (CouchDB substitute; see DESIGN.md §1).
//! - [`rwset`]: read sets (key + version read) and write sets (key +
//!   value + CRDT flag), exactly the §3 transaction result model.
//! - [`transaction`]: endorsed transactions with content-derived ids.
//! - [`block`]: blocks with hash chaining and per-transaction validation
//!   codes.
//! - [`chain`]: the append-only blockchain with integrity verification,
//!   and the key history (`GetHistoryForKey`) read from its blocks.
//! - [`mvcc`]: the multi-version concurrency control validator of §3,
//!   including the worked T1…T5 example as a test.
//! - [`store`]: pluggable durable storage — a [`store::LedgerStore`]
//!   trait with in-memory and append-only-file backends, snapshots and
//!   compaction (Fabric's block file store).
//!
//! # Examples
//!
//! ```
//! use fabriccrdt_ledger::worldstate::WorldState;
//! use fabriccrdt_ledger::version::Height;
//!
//! let mut ws = WorldState::new();
//! ws.put("K1".into(), b"V1".to_vec(), Height::new(1, 0));
//! assert_eq!(ws.value("K1"), Some(&b"V1"[..]));
//! assert_eq!(ws.version("K1"), Some(Height::new(1, 0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod chain;
pub mod codec;
pub mod mvcc;
mod pmap;
pub mod rwset;
pub mod store;
pub mod transaction;
pub mod version;
pub mod worldstate;

pub use block::{Block, BlockHeader, ValidationCode};
pub use chain::Blockchain;
pub use rwset::{ReadSet, ReadWriteSet, WriteSet};
pub use transaction::{Endorsement, Transaction, TxId};
pub use version::Height;
pub use worldstate::WorldState;
