//! Workload generation and the experiment runner — the reproduction's
//! Hyperledger Caliper (§7.1–7.2 of the FabricCRDT paper).
//!
//! - [`iot`]: the paper's IoT temperature chaincode — reads the device
//!   document, writes a JSON with the device id and new readings, either
//!   CRDT-flagged (`putCRDT`) or plain.
//! - [`generator`]: JSON payload shapes, including the "k-d complexity"
//!   objects of §7.5.
//! - [`channels`]: the same workload sharded across channels —
//!   per-channel open-loop arrival processes over channel-prefixed key
//!   spaces, for `fabriccrdt-channel` deployments.
//! - [`offline`]: offline-first client edit sequences and rejoin-burst
//!   schedules, for the merge-storm probe of `bench adversarial`.
//! - [`zipf`]: Zipf-skewed read-modify-write schedules for the
//!   conflict-strategy comparison experiment (`bench zipf`).
//! - [`experiment`]: one-call experiment execution — topology, block
//!   size, rate, read/write key counts, JSON shape, conflict percentage —
//!   against either system, returning the three metrics every figure
//!   plots; the paper's five sweeps as one table
//!   ([`experiment::PAPER_SWEEPS`]) and the runner `bench`'s figures,
//!   `tables` and `compare` drive them with ([`experiment::run_sweep`]).
//! - [`report`]: plain-text tables for the `bench` binary.
//!
//! The `bench` binary (`fabriccrdt-bench`) is the one command-line front
//! end to all of it; this crate parses no arguments.
//!
//! # Examples
//!
//! ```
//! use fabriccrdt_workload::experiment::{ExperimentConfig, SystemKind};
//!
//! let result = ExperimentConfig {
//!     system: SystemKind::FabricCrdt,
//!     total_txs: 200,
//!     ..ExperimentConfig::paper_defaults()
//! }
//! .run();
//! assert_eq!(result.successful, 200); // FabricCRDT commits everything
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channels;
pub mod experiment;
pub mod generator;
pub mod iot;
pub mod offline;
pub mod report;
pub mod smallbank;
pub mod zipf;

pub use channels::{ChannelSchedule, ChannelWorkload};
pub use experiment::{ExperimentConfig, ExperimentResult, SystemKind};
pub use generator::JsonShape;
pub use iot::IotChaincode;
pub use smallbank::SmallBankChaincode;
pub use zipf::ZipfWorkload;
