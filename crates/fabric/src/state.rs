//! A name only: the world state as `perf/` spells it.

use fabriccrdt_ledger::WorldState;

/// Kept because `perf/` spells it in its
/// [`finalize_chain`](crate::validator::BlockValidator::finalize_chain)
/// override; renamed away with `perf/` (DESIGN.md §4.16).
pub type ShardedState = WorldState;
