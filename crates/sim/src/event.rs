//! The pending-event set.
//!
//! A discrete-event simulator is, at its heart, a loop around a priority
//! queue of `(time, event)` pairs.  [`EventQueue`] is that queue: one binary
//! heap ordered by `(time, seq)`.
//!
//! * **Determinism.**  A packet simulator generates *many* simultaneous
//!   events (a transmission that completes at exactly the moment another
//!   source wakes up), so equal timestamps must break ties reproducibly.
//!   Every entry carries a sequence number and the queue orders by
//!   `(time, seq)`: events scheduled earlier pop earlier when times tie,
//!   making every run a pure function of the initial seed.
//!
//! * **Hot-path cost.**  The simulator pushes and pops one event per packet
//!   per hop, and every timeline it keeps is shallow: an agent has one
//!   timer, a transmitting link one completion, a signalling transaction a
//!   handful of messages — about ninety entries pending on the paper's
//!   Table-3 chain, a dozen on a sweep point.  At that depth a sift is a
//!   few comparisons inside one or two cache lines, and a queue that costs
//!   nothing to build matters as much as one that is cheap to pop: a sweep
//!   constructs a network per point.  (README, "Timer slots and two heaps",
//!   has the measurements against a bucketed wheel.)
//!
//! # Several timelines, one order
//!
//! A caller can run two queues as one pending-event set: it draws every
//! `seq` from a single counter of its own ([`EventQueue::push_with_seq`])
//! and pops whichever head has the smaller `(time, seq)`
//! ([`EventQueue::peek_key`]).  `seq` is unique across both, so the
//! dispatch order is the one a single queue holding everything would give —
//! the packet network keeps each transmitting link's one pending completion
//! in a queue of its own this way, beside the one that holds its timers.
//! The order is a property of the keys, not of when they were pushed: an
//! entry may go in under a `seq` drawn long before (the network re-pushes a
//! re-armed timer under the number its arming drew) and still pops where
//! that key sorts.  `two_queues_under_one_sequence_match_a_reference_heap`
//! checks both, operation by operation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A deterministic min-priority queue of timestamped events: one binary
/// heap on `(time, seq)`.
///
/// Events with equal timestamps are returned in the order they were pushed.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// A min-heap (through `Reverse`) on each entry's `(time, seq)`, packed
    /// into one `u128` for the comparison.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// `(time, seq)` as one integer, so a sift compares once instead of
    /// branching per field; the order is the pair's.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute simulated time `time`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the sequence counter: 2^64 pushes outlast any run at any event rate"
    )]
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(time, seq, event);
    }

    /// Schedule `event` at `time` under a sequence number the caller drew
    /// from a counter it shares between this queue and others, so that the
    /// `(time, seq)` order runs across all of them (see [`peek_key`]).  Each
    /// `seq` must be pending at most once; a queue fed this way is never
    /// also fed through [`push`], which draws from the queue's own counter.
    ///
    /// [`peek_key`]: EventQueue::peek_key
    /// [`push`]: EventQueue::push
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) {
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` key of the event [`pop`](EventQueue::pop) would
    /// return: what a caller merging this queue with another under one
    /// sequence compares, so that ties in `time` still resolve in push order.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.time, e.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_queue_keeps_fifo_on_ties_and_clears() {
        let (mut q, [a, b]) = (EventQueue::new(), [1, 7].map(SimTime::from_millis));
        for (at, i) in [(b, 0), (b, 1), (a, 2), (b, 3)] {
            q.push(at, i);
        }
        assert_eq!((q.len(), q.peek_time()), (4, Some(a)));
        let popped = [q.pop(), q.pop(), q.pop()];
        assert_eq!(popped, [(a, 2), (b, 0), (b, 1)].map(Some));
        q.clear();
        assert!(q.is_empty() && q.pop().is_none());
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), "c");
        q.push(SimTime::from_millis(1), "a");
        q.push(SimTime::from_millis(3), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_and_counters() {
        let mut q = EventQueue::with_capacity(2);
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(1), 0)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(2), 1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 10u32);
        q.push(SimTime::from_millis(30), 30);
        assert_eq!(q.pop().unwrap().1, 10);
        q.push(SimTime::from_millis(20), 20);
        q.push(SimTime::from_millis(5), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 20);
        assert_eq!(q.pop().unwrap().1, 30);
    }

    #[test]
    fn ties_pushed_into_the_drained_day_keep_fifo_order() {
        let t = SimTime::from_micros(700);
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 0u32);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        // Same timestamp as an entry pushed before the pop: the earlier
        // push must still pop first.
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping everything from the queue yields a non-decreasing time
        /// sequence regardless of insertion order.
        #[test]
        fn pop_order_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Events that share a timestamp preserve their insertion order.
        #[test]
        fn ties_preserve_fifo(groups in proptest::collection::vec((0u64..1000, 1usize..5), 1..50)) {
            let mut q = EventQueue::new();
            let mut counter = 0usize;
            for (t, n) in &groups {
                for _ in 0..*n {
                    q.push(SimTime::from_millis(*t), counter);
                    counter += 1;
                }
            }
            // Collect pops grouped by timestamp and check each group's ids
            // are increasing (insertion order).
            let mut prev: Option<(SimTime, usize)> = None;
            while let Some((t, id)) = q.pop() {
                if let Some((pt, pid)) = prev {
                    if pt == t {
                        prop_assert!(id > pid);
                    }
                }
                prev = Some((t, id));
            }
        }

        /// Two timelines under one order: two queues that draw `seq` from one
        /// counter, popped by the smaller `(time, seq)` head, dispatch
        /// exactly as the single reference queue holding everything does —
        /// after every operation, on the popped event, on the earliest time
        /// and on the length.  `route`'s low bit chooses the structure a
        /// push goes to; ties in `time` across the two are what the coarse
        /// classes are for.  Classes 4 and 5 are the timer-slot pattern: a
        /// `seq` is drawn now and pushed later, under a number older than
        /// everything pushed in between.
        #[test]
        fn two_queues_under_one_sequence_match_a_reference_heap(
            ops in proptest::collection::vec(
                // (is_push, time_class, time_raw, route).
                (any::<bool>(), 0u8..6, 0u64..1_000, any::<u64>()),
                1..400,
            )
        ) {
            Model::run(ops);
        }
    }

    /// Two queues fed from one sequence against the reference the pair must
    /// track: one queue that is pushed everything under the same keys.  The
    /// payload is the entry's `seq`.
    #[derive(Default)]
    struct Model {
        pair: [EventQueue<u64>; 2],
        reference: EventQueue<u64>,
        next: u64,
        /// Sequence numbers drawn but not pushed yet, oldest first.
        drawn: std::collections::VecDeque<u64>,
        /// The time of the last pop: nothing is pushed before it, as in an
        /// event loop.
        now: SimTime,
    }

    impl Model {
        /// Drive `(is_push, time_class, time_raw, route)` ops, then drain.
        /// Times are offsets from the last pop on a few coarse scales, so
        /// runs are full of exact ties within and across the two queues.
        fn run(ops: impl IntoIterator<Item = (bool, u8, u64, u64)>) {
            let mut model = Model::default();
            for (is_push, class, raw, route) in ops {
                if !is_push {
                    model.pop();
                    continue;
                }
                if class == 5 {
                    // Draw a number and sit on it.
                    let seq = model.draw();
                    model.drawn.push_back(seq);
                    continue;
                }
                let delay = match class {
                    1 => SimTime::from_millis(raw),
                    2 => SimTime::from_micros(raw * 37),
                    3 => SimTime::from_secs(2 + raw), // far future
                    _ => SimTime::from_millis(raw / 100), // heavy ties
                };
                // Class 4 pushes under the oldest number drawn that way.
                let held = (class == 4).then(|| model.drawn.pop_front()).flatten();
                let seq = held.unwrap_or_else(|| model.draw());
                model.pair[(route & 1) as usize].push_with_seq(model.now + delay, seq, seq);
                model.reference.push_with_seq(model.now + delay, seq, seq);
                model.agree();
            }
            while !model.reference.is_empty() {
                model.pop();
            }
            model.pop();
        }

        fn draw(&mut self) -> u64 {
            self.next += 1;
            self.next - 1
        }

        fn agree(&self) {
            let earliest = self.pair.iter().filter_map(EventQueue::peek_time).min();
            prop_assert_eq!(earliest, self.reference.peek_time());
            let len = self.pair[0].len() + self.pair[1].len();
            prop_assert_eq!(len, self.reference.len());
            let empty = self.pair.iter().all(EventQueue::is_empty);
            prop_assert_eq!(empty, self.reference.is_empty());
        }

        /// Pop the queue whose head is smaller on the full `(time, seq)` key.
        fn pop(&mut self) {
            let second_first = match self.pair.each_ref().map(EventQueue::peek_key) {
                [Some(a), Some(b)] => b < a,
                [a, _] => a.is_none(),
            };
            let popped = self.pair[second_first as usize].pop();
            prop_assert_eq!(popped, self.reference.pop());
            self.now = popped.map_or(self.now, |(t, _)| t);
            self.agree();
        }
    }
}
