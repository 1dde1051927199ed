//! FIFO+ — multi-hop sharing (Section 6).
//!
//! "In FIFO+, we try to induce FIFO-style sharing (equal jitter for all
//! sources in the aggregate class) across all the hops along the path to
//! minimize jitter.  We do this as follows.  For each hop, we measure the
//! average delay seen by packets in each priority class at that switch.  We
//! then compute for each packet the difference between its particular delay
//! and the class average.  We add (or subtract) this difference to a field
//! in the header of the packet, which thus accumulates the total offset for
//! this packet from the average for its class.  This field allows each
//! switch to compute when the packet should have arrived if it were indeed
//! given average service.  The switch then inserts the packet in the queue
//! in the order as if it arrived at this expected time."
//!
//! Concretely, at each hop this discipline:
//!
//! 1. orders the queue by *expected arrival time* = actual arrival −
//!    accumulated offset (ties broken by actual arrival order),
//! 2. when a packet is selected for transmission, measures its queueing
//!    delay at this hop, updates the class-average estimate, and adds
//!    `delay − average` to the packet's offset field.

use std::collections::BinaryHeap;

use ispn_core::Packet;
use ispn_sim::SimTime;

use crate::disc::{segments, Dequeued, QueueDiscipline, SchedContext};

/// How the per-hop class-average delay is estimated.
///
/// The paper just says "we measure the average delay seen by packets in
/// each priority class at that switch": a running mean over the whole run.
/// One variant, kept because the benchmark workloads name it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Averaging {
    /// Running mean over every packet the class has sent at this hop.
    RunningMean,
}

/// The running mean of a class's queueing delay at this hop.
#[derive(Debug, Clone, Default)]
struct DelayAverage {
    value_secs: f64,
    count: u64,
}

impl DelayAverage {
    /// Current estimate of the class-average delay (seconds).
    fn current(&self) -> f64 {
        self.value_secs
    }

    fn update(&mut self, delay_secs: f64) {
        self.count += 1;
        self.value_secs += (delay_secs - self.value_secs) / self.count as f64;
    }
}

/// The heap's sift element: just the ordering key and a payload slot.
/// Keeping the `(Packet, SchedContext)` payload out of the heap means a
/// sift moves 24-byte keys instead of whole packets.
#[derive(Debug, Clone, Copy)]
struct HeapKey {
    expected_arrival: SimTime,
    seq: u64,
    /// Index of the payload in the slab (not part of the ordering).
    slot: u32,
}

impl HeapKey {
    /// `(expected_arrival, seq)` as one integer, so a sift compares once
    /// instead of branching per field; the order is the pair's.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.expected_arrival.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest expected arrival
        // (then earliest insertion) is popped first.
        other.key().cmp(&self.key())
    }
}

/// The FIFO+ discipline for a single class at a single hop.
///
/// Its order is a priority order over *all* queued packets, so the queue is
/// a `BinaryHeap`.  The heap sifts compact [`HeapKey`]s while the 80-byte
/// packets sit still in a slot slab: a heap of whole packets measured
/// +3.5 % on the `chain-unified` benchmark workload (0 of 10 pairs lower).
/// All three `Vec`s keep their capacity, so steady-state traffic allocates
/// nothing after warm-up.
#[derive(Debug)]
pub struct FifoPlus {
    heap: BinaryHeap<HeapKey>,
    /// Payload slab, indexed by [`HeapKey::slot`]; never shrinks.
    payloads: Vec<(Packet, SchedContext)>,
    /// Recycled payload slots.
    free_slots: Vec<u32>,
    /// Pushes that found `heap`, `payloads` or `free_slots` full (see
    /// [`QueueDiscipline::pool_grow_events`]).
    grown: u64,
    seq: u64,
    average: DelayAverage,
}

impl Default for FifoPlus {
    fn default() -> Self {
        Self::new(Averaging::RunningMean)
    }
}

impl FifoPlus {
    /// Create a FIFO+ queue with the chosen averaging method.
    pub fn new(averaging: Averaging) -> Self {
        let Averaging::RunningMean = averaging;
        FifoPlus {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            free_slots: Vec::new(),
            grown: 0,
            seq: 0,
            average: DelayAverage::default(),
        }
    }
}

impl QueueDiscipline for FifoPlus {
    fn enqueue(&mut self, _now: SimTime, packet: Packet, ctx: SchedContext) {
        let expected_arrival = packet.expected_arrival(ctx.arrival);
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.payloads[s as usize] = (packet, ctx);
                s
            }
            None => {
                self.grown += u64::from(self.payloads.len() == self.payloads.capacity());
                self.payloads.push((packet, ctx));
                (self.payloads.len() - 1) as u32
            }
        };
        self.grown += u64::from(self.heap.len() == self.heap.capacity());
        self.heap.push(HeapKey {
            expected_arrival,
            seq: self.seq,
            slot,
        });
        self.seq += 1;
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Dequeued> {
        let key = self.heap.pop()?;
        let (mut packet, ctx) = self.payloads[key.slot as usize];
        self.grown += u64::from(self.free_slots.len() == self.free_slots.capacity());
        self.free_slots.push(key.slot);
        let arrival = ctx.arrival;
        // Queueing delay experienced at this hop (waiting time before the
        // link starts transmitting the packet).
        let delay_secs = now.saturating_sub(arrival).as_secs_f64();
        let avg_before = self.average.current();
        self.average.update(delay_secs);
        let diff_ns = ((delay_secs - avg_before) * 1e9).round() as i64;
        packet.accumulate_offset(diff_ns);
        Some(Dequeued {
            packet,
            arrival,
            class: ctx.class,
        })
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn name(&self) -> &'static str {
        "FIFO+"
    }

    fn state_bytes(&self) -> u64 {
        (self.heap.capacity() * std::mem::size_of::<HeapKey>()
            + self.payloads.capacity() * std::mem::size_of::<(Packet, SchedContext)>()
            + self.free_slots.capacity() * std::mem::size_of::<u32>()) as u64
    }

    fn pool_grow_events(&self) -> u64 {
        self.grown
    }

    fn pool_segments_high_water(&self) -> u64 {
        segments(self.payloads.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::{FlowId, ServiceClass};

    const PKT: u64 = 1000;

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, PKT, SimTime::ZERO)
    }

    fn ctx(t: SimTime) -> SchedContext {
        SchedContext::new(ServiceClass::Predicted { priority: 0 }, t)
    }

    #[test]
    fn zero_offset_packets_behave_like_fifo() {
        let mut q = FifoPlus::default();
        for (i, ms) in [1u64, 2, 3].iter().enumerate() {
            let t = SimTime::from_millis(*ms);
            q.enqueue(t, pkt(i as u32, 0), ctx(t));
        }
        let order: Vec<u32> = (0..3)
            .map(|_| q.dequeue(SimTime::from_millis(5)).unwrap().packet.flow.0)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn positive_offset_jumps_ahead() {
        // A packet that has been unlucky upstream (positive offset) gets
        // scheduled as if it had arrived earlier, overtaking a packet that
        // actually arrived before it.
        let mut q = FifoPlus::default();
        let t1 = SimTime::from_millis(10);
        q.enqueue(t1, pkt(1, 0), ctx(t1));
        let t2 = SimTime::from_millis(11);
        let mut unlucky = pkt(2, 0);
        unlucky.jitter_offset_ns = 5_000_000; // 5 ms of accumulated bad luck
        q.enqueue(t2, unlucky, ctx(t2));
        let first = q.dequeue(SimTime::from_millis(12)).unwrap();
        assert_eq!(first.packet.flow, FlowId(2));
    }

    #[test]
    fn negative_offset_waits_its_turn() {
        // A packet that has been lucky upstream (negative offset) yields to
        // one that arrived slightly later.
        let mut q = FifoPlus::default();
        let t1 = SimTime::from_millis(10);
        let mut lucky = pkt(1, 0);
        lucky.jitter_offset_ns = -5_000_000;
        q.enqueue(t1, lucky, ctx(t1));
        let t2 = SimTime::from_millis(12);
        q.enqueue(t2, pkt(2, 0), ctx(t2));
        let first = q.dequeue(SimTime::from_millis(13)).unwrap();
        assert_eq!(first.packet.flow, FlowId(2));
    }

    #[test]
    fn offset_accumulates_delay_minus_average() {
        let mut q = FifoPlus::new(Averaging::RunningMean);
        // First packet: waits 4 ms; the average before it was 0, so its
        // offset becomes +4 ms.
        let t = SimTime::from_millis(0);
        q.enqueue(t, pkt(1, 0), ctx(t));
        let d = q.dequeue(SimTime::from_millis(4)).unwrap();
        assert_eq!(d.packet.jitter_offset_ns, 4_000_000);
        // Second packet: waits 1 ms; the average is now 4 ms, so its offset
        // becomes 1 − 4 = −3 ms.
        let t = SimTime::from_millis(10);
        q.enqueue(t, pkt(1, 1), ctx(t));
        let d = q.dequeue(SimTime::from_millis(11)).unwrap();
        assert_eq!(d.packet.jitter_offset_ns, -3_000_000);
        // Running mean of 4 ms and 1 ms.
        assert!((q.average.current() - 2.5e-3).abs() < 1e-12);
    }

    #[test]
    fn empty_dequeue_is_none() {
        let mut q = FifoPlus::default();
        assert!(q.dequeue(SimTime::ZERO).is_none());
        assert!(q.is_empty());
        assert_eq!(q.name(), "FIFO+");
    }
}
