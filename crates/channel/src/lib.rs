//! Whole deployments for the FabricCRDT reproduction: the single
//! config-honouring pipeline constructor, [`assemble()`], and
//! multi-channel sharded networks on top of the same layer selection.
//!
//! Hyperledger Fabric scales horizontally by running many *channels* —
//! independent ledgers with their own ordering service and world
//! state — over one shared peer network (Androulaki et al. §3.3). The
//! FabricCRDT paper evaluates a single channel; this crate grows the
//! reproduction sideways: [`MultiChannelNetwork`] hosts N complete
//! pipelines (configured by
//! [`MultiChannelConfig`](fabriccrdt_fabric::channel::MultiChannelConfig))
//! whose block dissemination multiplexes over one shared
//! `fabriccrdt-gossip` network, so one fault schedule — crashes,
//! restarts, partitions — hits every channel a peer is a member of at
//! the same simulated times.
//!
//! Channels are not silos: [`XferChaincode`] plus the driver's
//! [`MultiChannelNetwork::execute_transfers`] implement a two-phase
//! cross-channel key handoff (prepare escrows on the source channel,
//! commit-or-abort records on the destination, reconciled at
//! finalize) with exactly-once semantics enforced by the records' MVCC
//! reads — see the [`xfer`] module docs for the protocol.
//!
//! Determinism carries over from the single-channel system: channel 0
//! runs under the base seed and reproduces the seed gossip pipeline
//! bit-for-bit (ledger bytes and metrics), and every channel's gossip
//! replicas reconverge on their channel's pipeline peer — same world
//! state, height and tip hash
//! ([`MultiChannelNetwork::verify_converged`]).
//!
//! The `multi_channel` experiment (`crates/bench`) sweeps channel
//! count × clients-per-channel over this driver and reports aggregate
//! TPS; see EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assemble;
pub mod driver;
pub mod xfer;

pub use assemble::assemble;
pub use driver::{fabriccrdt_multi_channel, MultiChannelNetwork};
pub use xfer::{XferChaincode, XFER_CHAINCODE};
