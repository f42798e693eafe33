//! The time-ordered event queue.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A discrete-event queue: events pop in time order; ties pop in
/// scheduling (FIFO) order, which keeps simulations deterministic.
///
/// # Examples
///
/// ```
/// use fabriccrdt_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "b");
/// q.schedule(SimTime::from_millis(5), "c");
/// q.schedule(SimTime::from_millis(1), "a");
/// let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    sequence: u64,
}

#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            sequence: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.sequence;
        self.sequence += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(s)| (s.at, s.event))
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `until`.
    pub fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        let next = self.heap.peek_mut()?;
        if next.0.at > until {
            return None;
        }
        let Reverse(s) = PeekMut::pop(next);
        Some((s.at, s.event))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_due_stops_at_the_bound() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), "due");
        q.schedule(SimTime::from_millis(6), "later");
        assert_eq!(q.pop_due(SimTime::from_millis(4)), None);
        assert_eq!(q.pop_due(SimTime::from_millis(5)).unwrap().1, "due");
        assert_eq!(q.pop_due(SimTime::from_millis(5)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "late");
        q.schedule(SimTime::from_millis(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(SimTime::from_millis(5), "middle");
        assert_eq!(q.pop().unwrap().1, "middle");
        assert_eq!(q.pop().unwrap().1, "late");
    }
}
