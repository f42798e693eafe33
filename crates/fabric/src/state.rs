//! The state a conflict chain validates against: the pre-block
//! [`WorldState`], read-only. A chain keeps its own pending writes
//! ([`fabriccrdt_ledger::mvcc::validate_chain`]) and the peer commits
//! them after the join.

use fabriccrdt_ledger::WorldState;

/// Name only, kept because `perf/` spells it in its
/// [`finalize_chain`](crate::validator::BlockValidator::finalize_chain)
/// override; renamed away with `perf/` (DESIGN.md §4.16).
pub type ShardedState = WorldState;
