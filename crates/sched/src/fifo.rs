//! First-in first-out — the sharing discipline of Section 5.
//!
//! "Consider what happens when we use the FIFO queueing discipline instead
//! of WFQ.  Now when a burst from one source arrives, this burst passes
//! through the queue in a clump while subsequent packets from the other
//! sources are temporarily delayed; this latter delay, however, is much
//! smaller than the delay that the bursting source would have received
//! under WFQ. … When the delays are shared as in FIFO, in what might be
//! called a multiplexing of bursts, the post facto jitter bounds are smaller
//! than when the sources are isolated from each other as in WFQ."

use std::collections::VecDeque;

use ispn_core::Packet;
use ispn_sim::SimTime;

use crate::disc::{push_counted, segments, Dequeued, QueueDiscipline, SchedContext};

/// A plain FIFO queue.  The `VecDeque` keeps its capacity when it drains,
/// so steady-state traffic allocates nothing after warm-up.
#[derive(Debug, Default)]
pub struct Fifo {
    queue: VecDeque<(Packet, SchedContext)>,
    /// Pushes that found the queue full (see
    /// [`QueueDiscipline::pool_grow_events`]).
    grown: u64,
}

impl Fifo {
    /// Create an empty FIFO queue.
    pub fn new() -> Self {
        Fifo::default()
    }
}

impl QueueDiscipline for Fifo {
    fn enqueue(&mut self, _now: SimTime, packet: Packet, ctx: SchedContext) {
        push_counted(&mut self.queue, &mut self.grown, (packet, ctx));
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Dequeued> {
        self.queue.pop_front().map(|(packet, ctx)| Dequeued {
            packet,
            arrival: ctx.arrival,
            class: ctx.class,
        })
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn state_bytes(&self) -> u64 {
        (self.queue.capacity() * std::mem::size_of::<(Packet, SchedContext)>()) as u64
    }

    fn pool_grow_events(&self) -> u64 {
        self.grown
    }

    fn pool_segments_high_water(&self) -> u64 {
        segments(self.queue.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::FlowId;

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, 1000, SimTime::ZERO)
    }

    #[test]
    fn serves_in_arrival_order_across_flows() {
        let mut q = Fifo::new();
        let t = SimTime::from_millis(1);
        q.enqueue(t, pkt(1, 0), SchedContext::datagram(t));
        q.enqueue(t, pkt(2, 0), SchedContext::datagram(t));
        q.enqueue(t, pkt(1, 1), SchedContext::datagram(t));
        assert_eq!(q.len(), 3);
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(1));
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(2));
        let last = q.dequeue(t).unwrap();
        assert_eq!(last.packet.flow, FlowId(1));
        assert_eq!(last.packet.seq, 1);
        assert!(q.is_empty());
        assert_eq!(q.dequeue(t), None);
    }

    #[test]
    fn reports_arrival_for_delay_measurement() {
        let mut q = Fifo::new();
        q.enqueue(
            SimTime::from_millis(3),
            pkt(0, 0),
            SchedContext::datagram(SimTime::from_millis(3)),
        );
        let d = q.dequeue(SimTime::from_millis(9)).unwrap();
        assert_eq!(
            d.queueing_delay(SimTime::from_millis(9)),
            SimTime::from_millis(6)
        );
    }

    #[test]
    fn name_is_fifo() {
        assert_eq!(Fifo::new().name(), "FIFO");
    }
}
