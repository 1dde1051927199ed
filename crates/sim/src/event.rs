//! The pending-event set.
//!
//! A discrete-event simulator is, at its heart, a loop around a priority
//! queue of `(time, event)` pairs.  Two properties matter:
//!
//! * **Determinism.**  A packet simulator generates *many* simultaneous
//!   events (a transmission that completes at exactly the moment another
//!   source wakes up), so equal timestamps must break ties reproducibly.
//!   Every entry carries a sequence number and the queue orders by
//!   `(time, seq)`: events scheduled earlier pop earlier when times tie,
//!   making every run a pure function of the initial seed.
//!
//! * **Hot-path cost.**  The simulator pushes and pops one event per packet
//!   per hop.  A binary heap pays `O(log n)` pointer-chasing comparisons on
//!   both operations.  This queue is instead a *calendar queue* (Brown,
//!   CACM 1988): time is divided into fixed-width "days", each day hashes
//!   to a bucket of a power-of-two wheel, and a push into the current
//!   window is an `O(1)` append.  Events beyond the wheel's horizon go to a
//!   spillover heap, which is only consulted when the wheel runs dry.
//!
//! # The day being drained: a sorted run plus a `late` heap
//!
//! When a day starts, its bucket is swapped out of the wheel whole, sorted
//! once by `(time, seq)` — entries were appended in push order, which is
//! close to time order, so the sort sees a nearly sorted slice — and laid
//! out latest-first, so the earliest entry pops off the end of the `Vec`
//! without moving anything.  The emptied run's allocation goes back into
//! the wheel in the same swap.  Nothing is sifted: a popped entry is moved
//! once, whatever its size.
//!
//! A push whose day has already been promoted cannot join the run without
//! an `O(n)` insert, so it goes to a small min-heap, `late`.  Every entry
//! of the run and of `late` belongs to a day before `base_day` and every
//! entry still in the wheel or the spillover to a later one, so the global
//! minimum is the smaller of two heads: the run's last element and
//! `late`'s top.  Both are compared on the full `(time, seq)` key, and
//! `seq` is unique, so the order events pop in is exactly the order one
//! heap over everything would produce — which is what the
//! `matches_a_reference_heap` property test checks operation by operation.
//!
//! # Several timelines, one order
//!
//! Not every timeline is dense.  [`HeapQueue`] is the same contract on one
//! binary heap, for the sparse ones, and a caller can run two queues as one
//! pending-event set: it draws every `seq` from a single counter of its own
//! (`push_with_seq` on either type) and pops whichever head has the smaller
//! `(time, seq)` ([`EventQueue::peek_key`], [`HeapQueue::peek_key`]).  `seq`
//! is unique across both, so the dispatch order is the one a single queue
//! holding everything would give — the packet network keeps each
//! transmitting link's one pending completion in a heap this way, beside
//! the calendar that holds its timers, and
//! `two_queues_under_one_sequence_match_a_reference_heap` checks the merge
//! operation by operation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Number of buckets in the wheel (one "day" each); must be a power of two.
const NUM_BUCKETS: u64 = 1024;
/// log2 of the day width in nanoseconds: 2^20 ns ≈ 1.05 ms, about one
/// 1000-bit packet time on the paper's 1 Mbit/s links, so a day holds the
/// events of roughly one packet slot per link.
const DAY_SHIFT: u32 = 20;

/// The day (bucket key) a timestamp falls into.
fn day(t: SimTime) -> u64 {
    t.as_nanos() >> DAY_SHIFT
}

/// A deterministic min-priority queue of timestamped events.
///
/// Events with equal timestamps are returned in the order they were pushed.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The most recently promoted day, sorted *descending* by
    /// `(time, seq)` so the earliest entry is `run.last()` and a pop is
    /// `Vec::pop`.  Days are promoted only on the pop side — a push never
    /// advances the wheel — and only when `run` and `late` are both empty.
    run: Vec<Entry<E>>,
    /// Pushes that landed in a day already promoted (`day < base_day`):
    /// typically a hold shorter than what is left of the current day.
    /// Together with `run` this is the near-term set; every entry of
    /// either sorts before every entry still in the wheel or the
    /// spillover (their days are `>= base_day`), so the global minimum is
    /// the smaller of `run.last()` and `late.peek()`.
    late: BinaryHeap<Reverse<Entry<E>>>,
    /// The wheel: `buckets[d & (NUM_BUCKETS-1)]` holds exactly the events
    /// of day `d`, for `d` in `[base_day, base_day + NUM_BUCKETS)`.
    /// Buckets are unsorted (push order); a bucket is sorted once, when
    /// its day starts and it becomes `run`.
    buckets: Vec<Vec<Entry<E>>>,
    /// One bit per bucket, set iff the bucket is non-empty, so advancing
    /// to the next occupied day is a word scan rather than a walk over
    /// (possibly hundreds of) empty `Vec`s when the wheel is sparse.
    occupied: [u64; (NUM_BUCKETS / 64) as usize],
    /// Number of entries across all wheel buckets.
    wheel_len: usize,
    /// First day still in the wheel; days before it have been promoted
    /// into `run` (or were never occupied).
    base_day: u64,
    /// Events scheduled beyond the wheel's horizon
    /// (`day >= base_day + NUM_BUCKETS`), kept in a heap and migrated into
    /// the wheel as `base_day` advances.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    popped: u64,
    depth_high_water: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        (self.time, self.seq).cmp(&(other.time, other.seq))
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
        EventQueue {
            run: Vec::new(),
            late: BinaryHeap::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; (NUM_BUCKETS / 64) as usize],
            wheel_len: 0,
            base_day: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            depth_high_water: 0,
        }
    }

    /// Create an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.run.reserve(cap);
        q
    }

    /// Schedule `event` to fire at absolute simulated time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(time, seq, event);
    }

    /// Schedule `event` at `time` under a sequence number the caller drew
    /// from a counter it shares between this queue and others, so that the
    /// `(time, seq)` order runs across all of them (see [`peek_key`]).  Each
    /// `seq` must be used once; a queue fed this way is never also fed
    /// through [`push`], which draws from the queue's own counter.
    ///
    /// [`peek_key`]: EventQueue::peek_key
    /// [`push`]: EventQueue::push
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) {
        let entry = Entry { time, seq, event };
        let d = day(time);
        if d < self.base_day {
            // The entry belongs to a day already being drained (or one the
            // wheel has moved past).  `seq` is fresh and part of the order,
            // so it pops after any tie already in the sorted run.
            self.late.push(Reverse(entry));
        } else if d < self.base_day + NUM_BUCKETS {
            let idx = (d & (NUM_BUCKETS - 1)) as usize;
            self.buckets[idx].push(entry);
            self.occupied[idx >> 6] |= 1 << (idx & 63);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(entry));
        }
        let depth = self.len() as u64;
        if depth > self.depth_high_water {
            self.depth_high_water = depth;
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.near_term_is_empty() {
            self.refill();
        }
        let late_first = match (self.run.last(), self.late.peek()) {
            (Some(r), Some(Reverse(l))) => l < r,
            (r, _) => r.is_none(),
        };
        let e = if late_first {
            self.late.pop().map(|Reverse(e)| e)
        } else {
            self.run.pop()
        }?;
        self.popped += 1;
        if self.near_term_is_empty() {
            // Promote the next day eagerly so the engine's peek-then-pop
            // loop sees an `O(1)` `peek_time` on its hot path.
            self.refill();
        }
        Some((e.time, e.event))
    }

    fn near_term_is_empty(&self) -> bool {
        self.run.is_empty() && self.late.is_empty()
    }

    /// Promote the next occupied day into `run`: advance `base_day` to it,
    /// migrate spillover events that the advance brought inside the
    /// wheel's horizon, and swap that day's bucket in as the sorted run.
    /// Only called with the near-term set empty; no-op on an empty queue.
    fn refill(&mut self) {
        debug_assert!(self.near_term_is_empty());
        if self.wheel_len == 0 {
            // The wheel is dry: jump straight to the spillover's first day
            // (no point stepping the wheel across an empty span).
            let Some(Reverse(first)) = self.overflow.peek() else {
                return;
            };
            self.base_day = day(first.time);
            self.drain_overflow();
            debug_assert!(self.wheel_len > 0);
        }
        // Jump to the next occupied day.  Advancing `base_day` in one leap
        // (rather than day by day with a spillover drain at each step) is
        // equivalent: spillover entries all have days at or beyond the
        // *old* window's end, so none could have entered any intermediate
        // window earlier than they enter the final one.
        let base_idx = (self.base_day & (NUM_BUCKETS - 1)) as usize;
        let idx = self
            .next_occupied(base_idx)
            .expect("wheel_len > 0 implies an occupied bucket");
        let delta = (idx + NUM_BUCKETS as usize - base_idx) & (NUM_BUCKETS as usize - 1);
        self.base_day += delta as u64;
        // Swap (not copy) the bucket in: the emptied run's allocation is
        // what that day's bucket appends into the next time it comes
        // around, so allocations circulate instead of churning.
        std::mem::swap(&mut self.run, &mut self.buckets[idx]);
        // Ascending first — push order is nearly time order, the sort's
        // best case — then flipped so the earliest entry is at the end.
        // Keys are unique (`seq`), so an unstable sort is deterministic.
        self.run.sort_unstable();
        self.run.reverse();
        self.occupied[idx >> 6] &= !(1 << (idx & 63));
        self.wheel_len -= self.run.len();
        self.base_day += 1;
        self.drain_overflow();
    }

    /// The index of the first occupied bucket at or (circularly) after
    /// `start`, from the occupancy bitmap.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let (w0, b0) = (start >> 6, start & 63);
        let first = self.occupied[w0] & (!0u64 << b0);
        if first != 0 {
            return Some((w0 << 6) + first.trailing_zeros() as usize);
        }
        for off in 1..self.occupied.len() {
            let w = (w0 + off) & (self.occupied.len() - 1);
            let word = self.occupied[w];
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
        }
        let wrapped = self.occupied[w0] & !(!0u64 << b0);
        if wrapped != 0 {
            return Some((w0 << 6) + wrapped.trailing_zeros() as usize);
        }
        None
    }

    /// Move spillover events whose day now falls inside
    /// `[base_day, base_day + NUM_BUCKETS)` into the wheel.  Called after
    /// every `base_day` advance so the wheel window and the spillover
    /// stay disjoint.
    fn drain_overflow(&mut self) {
        while let Some(Reverse(first)) = self.overflow.peek() {
            let d = day(first.time);
            if d >= self.base_day + NUM_BUCKETS {
                return;
            }
            let Reverse(entry) = self.overflow.pop().expect("peeked entry exists");
            let idx = (d & (NUM_BUCKETS - 1)) as usize;
            self.buckets[idx].push(entry);
            self.occupied[idx >> 6] |= 1 << (idx & 63);
            self.wheel_len += 1;
        }
    }

    /// The timestamp of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` key of the event [`pop`](EventQueue::pop) would
    /// return: what a caller merging this queue with another under one
    /// sequence compares, so that ties in `time` still resolve in push order.
    ///
    /// `O(1)` whenever the near-term set is non-empty (always, right after
    /// a pop): the earlier of the sorted run's and `late`'s heads.  After a
    /// push into an empty near-term set it scans the next occupied day's
    /// bucket without promoting it.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        let first = match (self.run.last(), self.late.peek()) {
            (Some(r), Some(Reverse(l))) => Some(r.min(l)),
            (r, l) => r.or(l.map(|Reverse(l)| l)),
        };
        let first = first.or_else(|| {
            if self.wheel_len == 0 {
                return self.overflow.peek().map(|Reverse(e)| e);
            }
            let base_idx = (self.base_day & (NUM_BUCKETS - 1)) as usize;
            let idx = self
                .next_occupied(base_idx)
                .expect("wheel_len > 0 implies an occupied bucket");
            // The wheel's earliest day beats every spillover entry (their
            // days are beyond the window), so the bucket minimum decides.
            self.buckets[idx].iter().min()
        });
        first.map(|e| (e.time, e.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.late.len() + self.wheel_len + self.overflow.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near_term_is_empty() && self.wheel_len == 0 && self.overflow.is_empty()
    }

    /// Total number of events ever dispatched (popped) from this queue.
    pub fn dispatched_count(&self) -> u64 {
        self.popped
    }

    /// The largest number of events that were ever pending at once (a
    /// deterministic function of the event sequence).
    pub fn depth_high_water(&self) -> u64 {
        self.depth_high_water
    }
}

/// A deterministic min-priority queue for a timeline that is sparse or
/// small: one binary heap on `(time, seq)`, with [`EventQueue`]'s contract —
/// events with equal timestamps are returned in the order they were pushed —
/// and no wheel.  It has three users.  In-flight control messages and a
/// driver's scheduled actions are a handful of entries spread over seconds,
/// which on the calendar would promote a one-entry day per pop and push into
/// a cold bucket every time.  A network's pending link completions are at
/// most one per port, each about a packet time out, merged with the
/// calendar's timers under one sequence ([`HeapQueue::push_with_seq`]).  It
/// is also the reference the property tests hold the calendar to.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute simulated time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(time, seq, event);
    }

    /// Schedule `event` at `time` under a sequence number drawn from a
    /// counter shared with other queues: [`EventQueue::push_with_seq`]'s
    /// contract.
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) {
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` key of the event [`pop`](HeapQueue::pop) would
    /// return (see [`EventQueue::peek_key`]).
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
        let (mut q, [a, b]) = (HeapQueue::new(), [1, 7].map(SimTime::from_millis));
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
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.dispatched_count(), 1);
        assert_eq!(q.depth_high_water(), 2);
    }

    #[test]
    fn depth_high_water_tracks_the_peak_pending_count() {
        let mut q = EventQueue::new();
        assert_eq!(q.depth_high_water(), 0);
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(3), ());
        q.pop();
        q.pop();
        // Draining does not lower the mark…
        assert_eq!(q.depth_high_water(), 3);
        q.push(SimTime::from_secs(4), ());
        // …and re-filling below the peak does not raise it.
        assert_eq!(q.depth_high_water(), 3);
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
    fn far_future_events_spill_over_and_come_back() {
        // Beyond the wheel horizon (1024 days of ~1 ms ≈ 1.07 s): these
        // take the overflow path and must still pop in order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3600), "far");
        q.push(SimTime::MAX, "sentinel");
        q.push(SimTime::from_millis(1), "near");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "sentinel");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pushes_into_the_day_being_drained_merge_in_order() {
        // Two events in one day; pop one, then push an event between the
        // popped one and the remaining one.  The push lands in `late`
        // (its day is already being drained) and must merge in order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(900), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_micros(500), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn ties_pushed_into_the_drained_day_keep_fifo_order() {
        let t = SimTime::from_micros(700);
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 0u32);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        // Same timestamp as the entry already in the sorted run: the
        // earlier push must still pop first.
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

        /// The calendar queue and [`HeapQueue`], the plain `(time, seq)` binary
        /// heap, agree after every operation — on the popped event, on
        /// `peek_time()` and on `len()` — under interleaved pushes and pops with
        /// heavy timestamp ties and the occasional far-future (spillover) push
        /// (the op stream is [`Model::run`]'s).
        #[test]
        fn matches_a_reference_heap(
            ops in proptest::collection::vec(
                // (is_push, time_class, time_raw): pop when !is_push.
                (any::<bool>(), 0u8..5, 0u64..1_000),
                1..400,
            )
        ) {
            // Every push goes to the calendar.
            Model::run(ops.into_iter().map(|(is_push, class, raw)| (is_push, class, raw, 0)));
        }

        /// Two timelines under one order: a calendar and a second heap that
        /// draw `seq` from one counter, popped by the smaller `(time, seq)`
        /// head, dispatch exactly as the single reference heap holding
        /// everything does — the same op stream, with `route`'s bits
        /// choosing the structure each push of the op goes to.  Ties in
        /// `time` across the two structures are what the heavy-ties and
        /// dense-day classes are for.
        #[test]
        fn two_queues_under_one_sequence_match_a_reference_heap(
            ops in proptest::collection::vec(
                // (is_push, time_class, time_raw, route).
                (any::<bool>(), 0u8..5, 0u64..1_000, any::<u64>()),
                1..400,
            )
        ) {
            Model::run(ops);
        }

        /// Drain to empty, then push earlier than anything popped so far:
        /// the wheel has moved past that day, so the entry goes to `late`
        /// and must still come out first.
        #[test]
        fn push_earlier_after_draining_to_empty(
            first in proptest::collection::vec(0u64..5_000, 1..40),
            second in proptest::collection::vec(0u64..5_000, 1..40),
        ) {
            let mut model = Model::default();
            for t in first {
                model.push(SimTime::from_micros(5_000 + t), false);
            }
            model.drain();
            for t in second {
                model.push(SimTime::from_micros(t), false);
                model.push(SimTime::from_micros(5_000 + t), false);
            }
            model.drain();
        }
    }

    /// The calendar, and beside it a second heap fed from the same sequence,
    /// against the reference the pair must track: one [`HeapQueue`] that is
    /// pushed everything.  The payload is the push's ordinal, which is also
    /// its `seq` in all three.
    #[derive(Default)]
    struct Model {
        q: EventQueue<u64>,
        beside: HeapQueue<u64>,
        reference: HeapQueue<u64>,
        next: u64,
    }

    impl Model {
        /// Drive `(is_push, time_class, time_raw, route)` ops, then drain.
        /// Times are drawn from a few coarse scales so runs hit the
        /// late-merge, in-window, and overflow paths in one sequence;
        /// class 4 packs hundreds of events into one 2^20 ns day and keeps
        /// pushing into it while it drains, so `late` entries tie exactly
        /// with entries already in the sorted run.  Push `i` of an op goes
        /// to the second heap iff bit `i % 64` of `route` is set.
        fn run(ops: impl IntoIterator<Item = (bool, u8, u64, u64)>) {
            let mut model = Model::default();
            for (is_push, class, raw, route) in ops {
                if !is_push {
                    model.pop();
                    continue;
                }
                let beside = |i: u64| route >> (i % 64) & 1 == 1;
                // Coarse quantization produces many exact ties; class 3
                // lands beyond the 1024-day wheel horizon.
                match class {
                    0 => model.push(SimTime::from_millis(raw / 100), beside(0)), // heavy ties
                    1 => model.push(SimTime::from_millis(raw), beside(0)),       // in-window
                    2 => model.push(SimTime::from_micros(raw * 37), beside(0)),  // sub-day spread
                    3 => model.push(SimTime::from_secs(2 + raw), beside(0)),     // spillover
                    _ => {
                        // A dense day: a burst into day 3 on a 64 ns grid
                        // (16 distinct stamps), one pop to promote it if
                        // it was not already, then more of the same stamps.
                        let stamp = |k: u64| SimTime::from_nanos((3 << DAY_SHIFT) + (k % 16) * 64);
                        for k in 0..raw / 4 {
                            model.push(stamp(raw + k), beside(k));
                        }
                        model.pop();
                        for k in 0..raw / 16 {
                            model.push(stamp(raw + 7 * k), beside(raw / 4 + k));
                        }
                    }
                }
            }
            model.drain();
        }

        /// Which structure holds the earliest event: the smaller head on the
        /// full `(time, seq)` key.
        fn beside_first(&self) -> bool {
            match (self.beside.peek_key(), self.q.peek_key()) {
                (Some(b), Some(q)) => b < q,
                (b, _) => b.is_some(),
            }
        }

        fn agree(&self) {
            let heads = [self.q.peek_time(), self.beside.peek_time()];
            let earliest = heads.into_iter().flatten().min();
            prop_assert_eq!(earliest, self.reference.peek_time());
            prop_assert_eq!(self.q.len() + self.beside.len(), self.reference.len());
            prop_assert_eq!(
                self.q.is_empty() && self.beside.is_empty(),
                self.reference.is_empty()
            );
        }

        fn push(&mut self, t: SimTime, beside: bool) {
            if beside {
                self.beside.push_with_seq(t, self.next, self.next);
            } else {
                self.q.push_with_seq(t, self.next, self.next);
            }
            self.reference.push(t, self.next);
            self.next += 1;
            self.agree();
        }

        fn pop(&mut self) {
            let popped = if self.beside_first() {
                self.beside.pop()
            } else {
                self.q.pop()
            };
            prop_assert_eq!(popped, self.reference.pop());
            self.agree();
        }

        fn drain(&mut self) {
            while !self.reference.is_empty() {
                self.pop();
            }
            self.pop()
        }
    }
}
