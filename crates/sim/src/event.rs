//! The pending-event set: a priority queue ordered by simulation time with
//! stable FIFO tie-breaking.
//!
//! Glomosim (the simulator the paper used) is a classic event-list
//! simulator; this module is the equivalent core data structure. Events
//! scheduled for the same instant are delivered in the order they were
//! scheduled, which keeps runs deterministic regardless of heap internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties FIFO.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events carrying payloads of type `E`.
///
/// # Examples
///
/// ```
/// use cocoa_sim::event::EventQueue;
/// use cocoa_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "second");
/// q.push(SimTime::from_secs(1), "first");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_secs(1), "first"));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            peak_len: 0,
        }
    }

    /// Schedules `payload` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.heap.push(Scheduled { time, seq, payload });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Removes and returns the earliest event, as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.payload))
    }

    /// The time of the earliest event, if any: the heap's top.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of undelivered events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The highest number of events ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// The sequence number the next [`EventQueue::push`] will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Consumes the queue and returns every event sorted by `(time, seq)`
    /// — the exact delivery order — with each event's original sequence
    /// number.
    ///
    /// This is the deterministic iteration the snapshot codec needs: the
    /// heap's internal layout never leaks into serialized bytes.
    pub fn drain_sorted(mut self) -> Vec<(SimTime, u64, E)> {
        let mut out: Vec<(SimTime, u64, E)> = Vec::with_capacity(self.heap.len());
        while let Some(s) = self.heap.pop() {
            out.push((s.time, s.seq, s.payload));
        }
        // BinaryHeap pops earliest-first under the inverted Ord, so `out`
        // is already (time, seq)-sorted; assert rather than re-sort.
        debug_assert!(out.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
        out
    }

    /// Rebuilds a queue from events previously produced by
    /// [`EventQueue::drain_sorted`], preserving each event's original
    /// sequence number (so FIFO tie-breaks replay identically), the
    /// `next_seq` allocator position, and the `peak_len` high-water mark.
    ///
    /// # Panics
    ///
    /// Panics if an event's seq is not below `next_seq`, or if `peak_len`
    /// is less than the number of restored events — both indicate a
    /// corrupted or hand-rolled snapshot.
    pub fn from_parts(events: Vec<(SimTime, u64, E)>, next_seq: u64, peak_len: usize) -> Self {
        assert!(
            peak_len >= events.len(),
            "peak_len {} below live event count {}",
            peak_len,
            events.len()
        );
        let mut heap = BinaryHeap::with_capacity(events.len());
        for (time, seq, payload) in events {
            assert!(
                seq < next_seq,
                "event seq {seq} not below next_seq {next_seq}"
            );
            heap.push(Scheduled { time, seq, payload });
        }
        EventQueue {
            heap,
            next_seq,
            peak_len,
        }
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3u32);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100u32 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_is_the_earliest_event() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_sorted_yields_delivery_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "late"); // seq 0
        q.push(SimTime::from_secs(1), "a"); // seq 1
        q.push(SimTime::from_secs(1), "b"); // seq 2, FIFO tie with a
        q.push(SimTime::from_secs(2), "x"); // seq 3
        let drained = q.drain_sorted();
        let seqs: Vec<u64> = drained.iter().map(|&(_, s, _)| s).collect();
        let payloads: Vec<&str> = drained.iter().map(|&(_, _, p)| p).collect();
        assert_eq!(payloads, vec!["a", "b", "x", "late"]);
        assert_eq!(seqs, vec![1, 2, 3, 0]);
    }

    #[test]
    fn from_parts_round_trips_order_and_accounting() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), 20u32);
        q.push(SimTime::from_secs(1), 10);
        q.push(SimTime::from_secs(1), 11); // same time: FIFO after 10
        q.pop(); // deliver 10, so peak (3) > live (2)
        let next_seq = q.next_seq();
        let peak = q.peak_len();
        let drained = q.drain_sorted();
        let mut r = EventQueue::from_parts(drained, next_seq, peak);
        assert_eq!(r.len(), 2);
        assert_eq!(r.peak_len(), peak);
        assert_eq!(r.next_seq(), next_seq);
        // FIFO tie-break replays identically after the round trip.
        let order: Vec<u32> = std::iter::from_fn(|| r.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![11, 20]);
        // New pushes continue the original seq allocation.
        let mut r2 = EventQueue::from_parts(Vec::<(SimTime, u64, u32)>::new(), 5, 7);
        r2.push(SimTime::ZERO, 1);
        assert_eq!(r2.next_seq(), 6);
        assert_eq!(r2.drain_sorted()[0].1, 5);
    }

    #[test]
    fn restoring_empty_queue_at_final_event_is_exact() {
        // A run snapshotted at its very last event has nothing pending:
        // the restored queue must be empty but keep the run's accounting.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        q.pop();
        q.pop();
        assert!(q.is_empty());
        let next_seq = q.next_seq();
        let peak = q.peak_len();
        let r = EventQueue::from_parts(q.drain_sorted(), next_seq, peak);
        assert!(r.is_empty());
        assert_eq!(r.peek_time(), None);
        assert_eq!(r.peak_len(), peak);
        assert_eq!(r.next_seq(), next_seq);
    }

    #[test]
    fn peak_len_is_high_water_mark() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_len(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.peak_len(), 2);
    }
}
