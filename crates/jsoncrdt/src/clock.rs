//! Lamport clocks and globally unique operation identifiers.
//!
//! Section 5.2 of the paper: *"We ensure that the operations identifiers
//! are globally unique by using an instance of a Lamport Clock for each
//! JSON CRDT instantiation. The Lamport clock is incremented by one with
//! every new operation to ensure the causal order of the operations."*

use std::fmt;

/// Identifies the process (peer) that generated an operation. Ties between
/// equal Lamport counters are broken by the replica id, yielding the usual
/// total order on [`OpId`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ReplicaId(pub u64);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A globally unique operation identifier: `(lamport counter, replica)`.
///
/// Ordered lexicographically: counter first, replica as tie-breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId {
    /// Lamport counter at generation time.
    pub counter: u64,
    /// Replica that generated the operation.
    pub replica: ReplicaId,
}

impl OpId {
    /// Creates an operation id.
    pub fn new(counter: u64, replica: ReplicaId) -> Self {
        OpId { counter, replica }
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.counter, self.replica)
    }
}

/// A Lamport clock owned by one JSON CRDT document instance.
///
/// # Examples
///
/// ```
/// use fabriccrdt_jsoncrdt::{LamportClock, ReplicaId};
///
/// let mut clock = LamportClock::new(ReplicaId(7));
/// let a = clock.tick();
/// let b = clock.tick();
/// assert!(a < b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LamportClock {
    counter: u64,
    replica: ReplicaId,
}

impl LamportClock {
    /// Creates a clock at zero for the given replica.
    pub fn new(replica: ReplicaId) -> Self {
        LamportClock {
            counter: 0,
            replica,
        }
    }

    /// Increments the clock and returns a fresh operation id
    /// (paper Algorithm 2, `TickClock` + `ClockToString`).
    pub fn tick(&mut self) -> OpId {
        self.counter += 1;
        OpId::new(self.counter, self.replica)
    }

    /// Current counter value (the id of the most recent tick).
    pub fn current(&self) -> u64 {
        self.counter
    }

    /// The replica this clock stamps operations for.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_strictly_increasing() {
        let mut c = LamportClock::new(ReplicaId(1));
        let mut prev = c.tick();
        for _ in 0..100 {
            let next = c.tick();
            assert!(next > prev);
            prev = next;
        }
        assert_eq!(c.current(), 101);
        assert_eq!(prev, OpId::new(101, ReplicaId(1)));
    }

    #[test]
    fn op_id_total_order() {
        let a = OpId::new(1, ReplicaId(2));
        let b = OpId::new(2, ReplicaId(1));
        let c = OpId::new(2, ReplicaId(2));
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn replica_tie_break_is_deterministic() {
        let a = OpId::new(5, ReplicaId(1));
        let b = OpId::new(5, ReplicaId(2));
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_forms() {
        assert_eq!(OpId::new(3, ReplicaId(4)).to_string(), "3@r4");
        assert_eq!(ReplicaId(9).to_string(), "r9");
    }
}
