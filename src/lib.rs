//! Umbrella crate for the FabricCRDT reproduction workspace.
//!
//! Re-exports every member crate under one roof so that the repository's
//! `examples/` and `tests/` can exercise the whole system, and so that a
//! downstream user can depend on a single crate.
//!
//! Start with [`fabriccrdt`] (the paper's contribution) and
//! [`fabriccrdt_fabric`] (the Fabric-like substrate);
//! [`channel::assemble()`] builds either system over whatever gossip /
//! Raft layers a `PipelineConfig` names. See `README.md` for a guided
//! tour and `DESIGN.md` for the architecture.

#![forbid(unsafe_code)]

pub use fabriccrdt;
pub use fabriccrdt_channel as channel;
pub use fabriccrdt_crypto as crypto;
pub use fabriccrdt_fabric as fabric;
pub use fabriccrdt_gossip as gossip;
pub use fabriccrdt_jsoncrdt as jsoncrdt;
pub use fabriccrdt_ledger as ledger;
pub use fabriccrdt_ordering as ordering;
pub use fabriccrdt_sim as sim;
pub use fabriccrdt_workload as workload;
