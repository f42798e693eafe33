//! A shell kept because `perf/` calls [`clear`] before each timed run
//! (DESIGN.md §4.10). Nothing is cached: Algorithm 1 parses each CRDT
//! write inline, once per peer, and commits a key written once in
//! normal form without parsing it ([`crate::doc::alone_as_is`]).

/// Does nothing: there is no cache to empty.
pub fn clear() {}
