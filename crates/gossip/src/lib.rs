//! Gossip block dissemination with fault injection.
//!
//! Hyperledger Fabric does not ship every block from the orderer to
//! every peer directly: one *leader* peer per organization pulls blocks
//! from the ordering service and the rest receive them through an
//! epidemic gossip layer — push forwarding to a small random fanout,
//! plus periodic pull-based *anti-entropy* (state transfer) that lets
//! lagging peers request what they missed (Fabric §4.4). The base
//! pipeline in `fabriccrdt-fabric` idealizes all of that away as a
//! single FIFO orderer→peer hop; this crate models it, deterministically
//! and event-driven, on the same simulation substrate
//! (`fabriccrdt_sim::queue::EventQueue` + `fabriccrdt_sim::rng::SimRng`).
//!
//! Two entry points:
//!
//! - [`GossipNetwork`] — a standalone multi-replica network. Feed it
//!   orderer-cut blocks with [`GossipNetwork::publish`] and it
//!   disseminates them across every peer of the topology, injecting the
//!   faults described by the run's
//!   [`FaultConfig`](fabriccrdt_fabric::config::FaultConfig): per-link
//!   drop/duplication/extra delay, scheduled peer crashes with restart,
//!   and network partitions with heal. Crashed peers restore their
//!   persisted ledger ([`Peer::snapshot`](fabriccrdt_fabric::peer::Peer)
//!   / `restore`) and catch up via anti-entropy block replay.
//! - [`GossipDelivery`] — plugs one lane of a shared network into the
//!   transaction pipeline as a
//!   [`DeliveryLayer`](fabriccrdt_fabric::simulation::DeliveryLayer):
//!   every orderer-cut block is published into the lane and becomes
//!   available to the committing peer when the *observed* replica (by
//!   default the last follower) has committed it. Single-channel is
//!   lane 0. With a quiescent fault config this delivers the very same
//!   blocks in the same order as the default ideal FIFO layer, so
//!   transaction outcomes are unchanged; under faults, commit latency
//!   stretches and the dissemination metrics
//!   ([`DisseminationMetrics`](fabriccrdt_fabric::metrics::DisseminationMetrics))
//!   show why.
//!
//! Everything — fanout choices, link delays, fault coin-flips — is
//! drawn from a fork of the run seed, so a whole faulty run is
//! reproducible bit-for-bit from its
//! [`PipelineConfig`](fabriccrdt_fabric::config::PipelineConfig).
//!
//! The byzantine threat model lives in the private `adversary` module:
//! when a run sets
//! [`PipelineConfig::adversary`](fabriccrdt_fabric::config::PipelineConfig),
//! each lane injects the scheduled block forgeries (equivocating
//! orderer payloads, in-flight tampering, forged tip hashes) and
//! screens every raw-block ingress against the canonical digest,
//! surfacing detections as
//! [`AdversaryMetrics`](fabriccrdt_fabric::metrics::AdversaryMetrics).
//!
//! Modelling notes: peers validate and commit deterministically, so
//! every replica re-seals identical chains and anti-entropy can ship
//! *committed* blocks (replayed without re-endorsement — see
//! `Peer::replay_block`); gossip-side commit is instantaneous (the
//! pipeline charges validation cost at its own committing peer; this
//! crate models dissemination, not CPU); link faults apply to
//! peer-to-peer pushes, while orderer delivery and anti-entropy
//! transfers are reliable streams (they ride gRPC connections with
//! retransmission in real Fabric).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
pub mod delivery;
pub mod network;

pub use delivery::GossipDelivery;
pub use network::GossipNetwork;
