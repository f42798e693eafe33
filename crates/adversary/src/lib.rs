//! Adversarial harness for the FabricCRDT reproduction.
//!
//! The paper's evaluation (§7) runs honest networks; this crate asks
//! what the reproduction does when parts of the system misbehave, along
//! the three axes a permissioned deployment actually fears:
//!
//! - [`byzantine`] — a byzantine orderer/network: equivocating block
//!   payloads delivered to chosen victims, in-flight tampering (flipped
//!   payload bytes, duplicated/reordered transactions) and forged tip
//!   hashes, injected through the gossip layer's adversary seam
//!   ([`PipelineConfig::adversary`](fabriccrdt_fabric::config::PipelineConfig))
//!   and surfaced as
//!   [`AdversaryMetrics`](fabriccrdt_fabric::metrics::AdversaryMetrics).
//!   The harness runs the full transaction pipeline under an attack
//!   schedule and hands back every honest replica's ledger bytes so
//!   callers can assert byte-identity.
//! - [`fuzz`] — hostile client input: what a client controls is its
//!   write value, so arbitrary bytes go through the JSON parser and
//!   arbitrary values through `merge_value`, never panicking.
//! - [`offline`] — offline peers: the merge-storm probe reads gossip
//!   catch-up episodes out of a run with a scheduled crash window.
//!
//! None of this crate is wired into the honest pipeline: it only
//! *drives* the public seams (`DeliveryLayer`, `PipelineConfig`,
//! `JsonCrdt`), so the system under test is exactly what every other
//! bench and test exercises.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod fuzz;
pub mod offline;

pub use byzantine::{gen_attack_schedule, run_adversarial_pipeline, AdversarialRun};
pub use offline::{merge_storm_report, StormOutcome};
