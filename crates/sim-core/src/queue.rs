//! Deterministic discrete-event queue.
//!
//! The queue orders events by firing time; ties break by insertion sequence
//! number, which makes the simulation fully deterministic (a plain binary
//! heap would deliver same-time events in an unspecified order).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Internal heap entry: min-ordering over (time, seq).
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap and we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event priority queue with deterministic tie-breaking.
///
/// Events scheduled for the same [`SimTime`] are delivered in the order they
/// were scheduled. The queue tracks the current simulation time: it advances
/// when events are popped and scheduling in the past is clamped to "now"
/// (mirroring how real event loops treat immediately-due work).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time (the firing time of the most recently
    /// popped event, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` to fire at absolute time `at`. Scheduling in the
    /// past clamps to the current time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Reserve `n` consecutive sequence numbers and return the first. An
    /// event later scheduled under one of them with
    /// [`schedule_reserved`](Self::schedule_reserved) breaks time ties as
    /// if it had been scheduled now: after everything scheduled before
    /// the reservation, before everything scheduled after it. A caller
    /// that knows how many events a stream will produce can so keep one
    /// of them queued at a time and still fire them in the order
    /// scheduling all of them up front would have.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedule `event` at `at` under a sequence number taken from
    /// [`reserve`](Self::reserve). Scheduling in the past clamps to the
    /// current time.
    ///
    /// # Panics
    ///
    /// If `seq` was never reserved (it is at or past every sequence
    /// number handed out so far).
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved (next is {})",
            self.next_seq
        );
        let at = at.max(self.now);
        self.heap.push(Entry { at, seq, event });
    }

    /// Firing time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Drain and discard all pending events (the clock is left unchanged).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        q.pop();
        // Now at t=10s; schedule for t=1s must fire at t=10s, not rewind.
        q.schedule(SimTime::from_secs(1), "clamped");
        let (at, e) = q.pop().unwrap();
        assert_eq!(e, "clamped");
        assert_eq!(at, SimTime::from_secs(10));
    }

    #[test]
    fn schedule_now_runs_after_events_already_due() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, "first");
        q.schedule(q.now(), "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 1u32);
        q.schedule(SimTime::from_millis(3), 3u32);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(q.now() + SimDuration::from_millis(1), 2u32);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    /// Three streams of `(time, stream)` events with time ties inside and
    /// across streams, against control events scheduled before and after
    /// the streams': the eager queue takes every event up front, the lazy
    /// one holds each stream's next event only, scheduled under its
    /// reserved seq when the previous one pops. They pop identically.
    #[test]
    fn reserved_seqs_replay_the_eager_order() {
        let ms = SimTime::from_millis;
        let streams: [&[u64]; 3] = [&[1, 3, 3, 7], &[0, 3, 5], &[3, 7, 7, 9]];
        let before = [(3, "before"), (7, "before")];
        let after = [(3, "after"), (9, "after")];

        let mut eager = EventQueue::new();
        for &(t, e) in &before {
            eager.schedule(ms(t), (e, 0));
        }
        for (i, times) in streams.iter().enumerate() {
            for &t in times.iter() {
                eager.schedule(ms(t), ("stream", i));
            }
        }
        for &(t, e) in &after {
            eager.schedule(ms(t), (e, 0));
        }
        let eager: Vec<_> = std::iter::from_fn(|| eager.pop()).collect();

        let mut lazy = EventQueue::new();
        for &(t, e) in &before {
            lazy.schedule(ms(t), (e, 0));
        }
        // Per stream: its next seq and the index of its next event.
        let mut cursors: Vec<(u64, usize)> = streams
            .iter()
            .map(|times| (lazy.reserve(times.len() as u64), 0))
            .collect();
        for &(t, e) in &after {
            lazy.schedule(ms(t), (e, 0));
        }
        let mut next = |q: &mut EventQueue<(&'static str, usize)>, i: usize| {
            let (seq, k) = &mut cursors[i];
            if let Some(&t) = streams[i].get(*k) {
                q.schedule_reserved(ms(t), *seq, ("stream", i));
                *seq += 1;
                *k += 1;
            }
        };
        for i in 0..streams.len() {
            next(&mut lazy, i);
        }
        assert!(lazy.len() <= before.len() + streams.len() + after.len());
        let lazy: Vec<_> = std::iter::from_fn(|| {
            let popped = lazy.pop()?;
            if let ("stream", i) = popped.1 {
                next(&mut lazy, i);
            }
            Some(popped)
        })
        .collect();
        assert_eq!(lazy, eager);
        assert_eq!(lazy.len(), 15);
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn scheduling_under_an_unreserved_seq_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        let first = q.reserve(2);
        q.schedule_reserved(SimTime::ZERO, first + 2, ());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.clear();
        assert!(q.is_empty());
    }
}
