//! A Raft-replicated ordering service for the FabricCRDT pipeline,
//! with crash-failover fault injection.
//!
//! The paper's deployment orders transactions through Kafka/ZooKeeper
//! (§7.2) — a crash-fault-tolerant total-order service that Fabric's
//! pluggable consensus later replaced with Raft (Androulaki et al.).
//! Our pipeline's default remains the single in-process
//! [`Orderer`](fabriccrdt_fabric::orderer::Orderer); this crate
//! replicates that orderer across a deterministic Raft cluster so the
//! ordering tier itself can be crashed, partitioned and failed over:
//!
//! - **Leader election** with randomized-but-seeded timeouts; at most
//!   one leader per term (checked by the safety tests).
//! - **Log replication**: only the leader cuts blocks (count / bytes /
//!   batch timeout); each cut block is one log entry, released to the
//!   delivery layer when committed on a majority.
//! - **Failover without loss or duplication**: a deposed leader's
//!   uncommitted cuts are truncated away and their transactions
//!   re-delivered by the client retry sweep; committed prefixes are
//!   immutable, so replicas converge to byte-identical ledgers
//!   (Algorithm 1 re-seals blocks deterministically).
//! - **Fault injection** reusing the `fabric` fault-schedule types
//!   (crash/restart, partitions, per-link drop/duplicate/delay) over
//!   ordering-node indices.
//!
//! One type, [`RaftOrderingBackend`], is the cluster: it implements the
//! pipeline's
//! [`OrderingBackend`](fabriccrdt_fabric::simulation::OrderingBackend)
//! trait seam — the same pattern as the gossip crate's
//! `DeliveryLayer` — and runs standalone for protocol-level tests.
//!
//! # Examples
//!
//! See `examples/raft_failover.rs` at the repository root and the
//! `orderer_failover` experiment binary in `crates/bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;

pub use cluster::{LeadershipEvent, LogEntry, RaftOrderingBackend};
