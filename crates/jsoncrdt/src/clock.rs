//! Lamport clocks and globally unique operation identifiers.
//!
//! Section 5.2 of the paper: *"We ensure that the operations identifiers
//! are globally unique by using an instance of a Lamport Clock for each
//! JSON CRDT instantiation. The Lamport clock is incremented by one with
//! every new operation to ensure the causal order of the operations."*
//!
//! [`VersionVector`] is a per-replica high-water mark over contiguously
//! observed counters. Documents do not keep one; the `fabric` crate
//! does, for its per-key merge frontiers and its acknowledgement
//! frontier.

use std::collections::BTreeMap;
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

/// A per-replica high-water mark over *contiguously* observed operation
/// counters: a causal frontier.
///
/// The vector only advances a replica's entry when the observed counter
/// is the direct successor of the current mark ([`VersionVector::observe`]
/// returns `false` on a gap and records nothing), so every counter at or
/// below a mark was observed. Counter `0` is below every mark and is
/// never recorded.
///
/// # Examples
///
/// ```
/// use fabriccrdt_jsoncrdt::{OpId, ReplicaId, VersionVector};
///
/// let mut frontier = VersionVector::default();
/// assert!(frontier.observe(OpId::new(1, ReplicaId(3))));
/// assert!(frontier.observe(OpId::new(2, ReplicaId(3))));
/// assert_eq!(frontier.entry(ReplicaId(3)), 2);
/// // A gap is reported, not recorded.
/// assert!(!frontier.observe(OpId::new(9, ReplicaId(3))));
/// assert_eq!(frontier.entry(ReplicaId(3)), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionVector {
    seen: BTreeMap<ReplicaId, u64>,
}

impl VersionVector {
    /// Records `id` if it is at or directly above the replica's mark.
    /// Returns `false`, recording nothing, when `id.counter` would
    /// leave a gap.
    pub fn observe(&mut self, id: OpId) -> bool {
        if id.counter == 0 {
            return true;
        }
        let slot = self.seen.entry(id.replica).or_insert(0);
        if id.counter <= *slot {
            true
        } else if id.counter == *slot + 1 {
            *slot = id.counter;
            true
        } else {
            false
        }
    }

    /// Highest contiguously observed counter for `replica` (0 if none).
    pub fn entry(&self, replica: ReplicaId) -> u64 {
        self.seen.get(&replica).copied().unwrap_or(0)
    }

    /// Whether no replica has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Keeps only the entries for which the predicate holds — used by
    /// snapshot GC to drop marks for already-compacted history.
    pub fn retain(&mut self, mut keep: impl FnMut(ReplicaId, u64) -> bool) {
        self.seen
            .retain(|replica, counter| keep(*replica, *counter));
    }

    /// Serializes the frontier: entry count then `(replica, counter)`
    /// pairs, all u64 big-endian, in replica order (deterministic).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 16 * self.seen.len());
        out.extend_from_slice(&(self.seen.len() as u64).to_be_bytes());
        for (replica, counter) in &self.seen {
            out.extend_from_slice(&replica.0.to_be_bytes());
            out.extend_from_slice(&counter.to_be_bytes());
        }
        out
    }

    /// Parses a frontier serialized by [`VersionVector::to_bytes`].
    /// Returns `None` on any length mismatch or zero counter (zero
    /// marks are never stored, so round-trips stay canonical).
    pub fn from_bytes(bytes: &[u8]) -> Option<VersionVector> {
        let count_bytes: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
        let count = u64::from_be_bytes(count_bytes) as usize;
        if bytes.len() != 8 + count.checked_mul(16)? {
            return None;
        }
        let mut seen = BTreeMap::new();
        for entry in bytes[8..].chunks_exact(16) {
            let replica = u64::from_be_bytes(entry[..8].try_into().ok()?);
            let counter = u64::from_be_bytes(entry[8..].try_into().ok()?);
            if counter == 0 {
                return None;
            }
            seen.insert(ReplicaId(replica), counter);
        }
        (seen.len() == count).then_some(VersionVector { seen })
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

    #[test]
    fn version_vector_contiguous_observation() {
        let mut v = VersionVector::default();
        assert!(v.observe(OpId::new(1, ReplicaId(1))));
        assert!(v.observe(OpId::new(2, ReplicaId(1))));
        assert!(v.observe(OpId::new(1, ReplicaId(2))));
        assert_eq!(v.entry(ReplicaId(1)), 2);
        assert_eq!(v.entry(ReplicaId(2)), 1);
        assert_eq!(v.entry(ReplicaId(3)), 0);
    }

    #[test]
    fn version_vector_rejects_gaps_without_recording() {
        let mut v = VersionVector::default();
        assert!(v.observe(OpId::new(1, ReplicaId(1))));
        assert!(!v.observe(OpId::new(5, ReplicaId(1))));
        assert_eq!(v.entry(ReplicaId(1)), 1);
        // Re-observing at or below the mark is idempotent.
        assert!(v.observe(OpId::new(1, ReplicaId(1))));
        assert_eq!(v.entry(ReplicaId(1)), 1);
    }

    #[test]
    fn version_vector_never_records_counter_zero() {
        let mut v = VersionVector::default();
        assert!(v.observe(OpId::new(0, ReplicaId(4))));
        assert!(v.is_empty(), "counter 0 records nothing");
    }

    #[test]
    fn version_vector_retain_drops_entries() {
        let mut v = VersionVector::default();
        v.observe(OpId::new(1, ReplicaId(1)));
        v.observe(OpId::new(1, ReplicaId(7)));
        v.retain(|replica, _| replica.0 > 3);
        assert_eq!(v.entry(ReplicaId(1)), 0);
        assert_eq!(v.entry(ReplicaId(7)), 1);
        v.retain(|_, _| false);
        assert!(v.is_empty());
    }

    #[test]
    fn version_vector_byte_roundtrip() {
        let mut v = VersionVector::default();
        for c in 1..=4 {
            v.observe(OpId::new(c, ReplicaId(2)));
        }
        v.observe(OpId::new(1, ReplicaId(u64::MAX)));
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), 8 + 16 * 2);
        assert_eq!(VersionVector::from_bytes(&bytes), Some(v));
        assert_eq!(
            VersionVector::from_bytes(&VersionVector::default().to_bytes()),
            Some(VersionVector::default())
        );
        // Truncated, padded, and zero-counter inputs are rejected.
        assert_eq!(VersionVector::from_bytes(&bytes[..bytes.len() - 1]), None);
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(VersionVector::from_bytes(&padded), None);
        let mut zeroed = VersionVector::default().to_bytes();
        zeroed[7] = 1;
        zeroed.extend_from_slice(&[0; 16]);
        assert_eq!(VersionVector::from_bytes(&zeroed), None);
        assert_eq!(VersionVector::from_bytes(b"short"), None);
    }
}
