//! A Hyperledger-Fabric-like permissioned blockchain substrate with the
//! full Execute–Order–Validate (EOV) transaction lifecycle, running on the
//! deterministic discrete-event simulator of `fabriccrdt-sim`.
//!
//! The paper's evaluation (§7.2) runs Fabric v1.4 on a Kubernetes cluster;
//! this crate re-creates the *peer-internal* behaviour that evaluation
//! measures — endorsement, ordering with Fabric's block-cutting rules,
//! endorsement-policy validation, sequential MVCC validation and commit —
//! while network and crypto latencies are drawn from calibrated models
//! (see DESIGN.md §1).
//!
//! Modules:
//!
//! - [`config`]: network topology and block-cutting parameters.
//! - [`conflict`]: the decayed per-key conflict tracker behind
//!   [`config::OrderingPolicy::Adaptive`] — hot-key EWMA fed back from
//!   finalize results and batch conflict-density scoring.
//! - [`channel`]: multi-channel sharding — channel identities,
//!   per-channel pipeline derivation, cross-channel transfer records
//!   and per-channel metric rollups.
//! - [`policy`]: endorsement policies (N-of over organizations).
//! - [`chaincode`]: the chaincode trait and shim (`get_state`,
//!   `put_state`, and FabricCRDT's `put_crdt`).
//! - [`latency`]: calibrated latency models for every pipeline hop.
//! - [`cost`]: the work-to-simulated-time cost model for validation and
//!   commit.
//! - [`orderer`]: the ordering service (total order + block cutting by
//!   count/bytes/timeout).
//! - [`validator`]: the pluggable block-validation trait;
//!   [`validator::FabricValidator`] is vanilla Fabric MVCC. (FabricCRDT's
//!   merging validator lives in the `fabriccrdt` core crate.)
//! - [`pipeline`]: a name `perf/` still spells for the one commit path.
//! - [`state`]: a name `perf/` still spells for the world state.
//! - [`peer`]: the committing peer: duplicate detection, endorsement
//!   verification, Algorithm 1's sequential finalize, staged commits.
//! - [`storage`]: durable peer storage — backend selection, snapshot
//!   cadence, acknowledgement-driven GC coordination and crash recovery over
//!   `fabriccrdt_ledger::store`.
//! - [`metrics`]: per-transaction lifecycle records and run metrics.
//! - [`simulation`]: the event-driven pipeline tying it all together.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the repository root for an end-to-end
//! run, and the `fabriccrdt-workload` crate for the paper's experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaincode;
pub mod channel;
pub mod config;
pub mod conflict;
pub mod cost;
pub mod latency;
pub mod metrics;
pub mod orderer;
pub mod peer;
pub mod pipeline;
pub mod policy;
pub mod reorder;
pub mod simulation;
pub mod state;
pub mod storage;
pub mod validator;

pub use chaincode::{Chaincode, ChaincodeError, ChaincodeStub, ExecWork};
pub use channel::{
    ChannelId, ChannelRunMetrics, ChannelSpec, MultiChannelConfig, MultiChannelMetrics, TransferId,
    TransferOutcome, TransferReport, TransferSpec,
};
pub use config::{
    BlockCutConfig, OrderingPolicy, PipelineConfig, RaftConfig, RetryPolicy, Topology,
};
pub use conflict::{BlockFeedback, ConflictTracker};
pub use cost::{CostModel, ValidationWork};
pub use latency::LatencyConfig;
pub use metrics::{OrderingMetrics, RunMetrics, TxRecord};
pub use orderer::Orderer;
pub use peer::{Peer, StagedBlock};
pub use pipeline::ValidationPipeline;
pub use policy::EndorsementPolicy;
pub use simulation::{OrderingBackend, OrderingOutcome, Simulation, SingleOrderer, TxRequest};
pub use validator::{BlockValidator, FabricValidator};
