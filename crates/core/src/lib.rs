//! **FabricCRDT** — CRDT-merged transaction validation for a
//! Fabric-like permissioned blockchain.
//!
//! This crate is the primary contribution of *FabricCRDT: A Conflict-Free
//! Replicated Datatypes Approach to Permissioned Blockchains* (Middleware
//! 2019): instead of rejecting transactions whose read sets are outdated
//! (Fabric's MVCC conflicts, §3 of the paper), the committing peer
//! *merges* the values of conflicting CRDT-flagged transactions with JSON
//! CRDT techniques and commits every one of them — no failures, no lost
//! updates.
//!
//! - [`validator::CrdtValidator`] implements **Algorithm 1**
//!   (`ValidateMergeBlock`): collect and merge all CRDT write values per
//!   key across the block, run MVCC only on non-CRDT reads, give every
//!   merged write the converged value in the block's commit record, commit.
//! - [`network`] builds complete simulated FabricCRDT and Fabric
//!   networks from one shared configuration, which is how the paper's
//!   head-to-head experiments are run.
//!
//! The chaincode programming model is unchanged except for one shim call:
//! [`put_crdt`](fabriccrdt_fabric::ChaincodeStub::put_crdt) flags a value
//! as a CRDT (§5.2). Everything else — endorsement, ordering,
//! endorsement-policy validation — is exactly Fabric, which is what makes
//! FabricCRDT backward compatible with existing chaincodes.
//!
//! # Example: the paper's Listing 1 → Listing 2 merge
//!
//! ```
//! use fabriccrdt::validator::CrdtValidator;
//! use fabriccrdt_fabric::validator::BlockValidator;
//! use fabriccrdt_jsoncrdt::json::Value;
//! use fabriccrdt_ledger::{block::Block, rwset::ReadWriteSet,
//!     transaction::{Transaction, TxId}, worldstate::WorldState};
//! use fabriccrdt_crypto::Identity;
//!
//! fn crdt_tx(nonce: u64, json: &str) -> Transaction {
//!     let client = Identity::new("client", "org1");
//!     let mut rwset = ReadWriteSet::new();
//!     rwset.reads.record("Device1", None);
//!     rwset.writes.put_crdt("Device1", json.as_bytes().to_vec());
//!     Transaction {
//!         id: TxId::derive(&client, nonce, "iot"),
//!         client, chaincode: "iot".into(), rwset, endorsements: vec![],
//!     }
//! }
//!
//! let tx1 = crdt_tx(1, r#"{"deviceID":"Device1","readings":["51.0"]}"#);
//! let tx2 = crdt_tx(2, r#"{"deviceID":"Device1","readings":["49.5"]}"#);
//! let mut block = Block::assemble(0, [0; 32], vec![tx1, tx2]);
//! let mut state = WorldState::new();
//!
//! CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[]);
//!
//! // Both conflicting transactions committed; the stored value holds
//! // both readings.
//! assert_eq!(block.successful_count(), 2);
//! let stored = Value::from_bytes(state.value("Device1").unwrap()).unwrap();
//! assert_eq!(stored.get("readings").unwrap().as_list().unwrap().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
pub mod types;
pub mod validator;

pub use network::{fabric_simulation, fabriccrdt_simulation};
pub use types::{TypedCrdt, TypedCrdtError};
pub use validator::CrdtValidator;
