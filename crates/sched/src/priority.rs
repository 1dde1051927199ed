//! Strict priority over a set of inner disciplines.
//!
//! Section 5: "Another sharing method is priority … In priority, one class
//! acquires jitter of higher priority classes, which consequently get much
//! lower jitter."  Section 7 uses exactly this structure inside pseudo-flow
//! 0 of the unified scheduler: K predicted-service priority levels (each
//! running FIFO+) stacked above the datagram class.
//!
//! This type is generic over the inner disciplines — the levels' and, where
//! it differs (flow 0 runs FIFO+ above a plain FIFO), the datagram queue's —
//! so it can also express simpler schemes (e.g. priority-over-FIFO) for
//! the ablation benchmarks.

use ispn_core::{Packet, ServiceClass};
use ispn_sim::SimTime;

use crate::disc::{Dequeued, QueueDiscipline, SchedContext};

/// Strict priority among `levels` inner disciplines plus one lowest-priority
/// datagram queue.
///
/// A packet's level is chosen from its [`SchedContext::class`]:
/// `Predicted { priority: p }` goes to level `p` (clamped to the configured
/// number of levels), everything else goes to the datagram queue.
pub struct StrictPriority<D, L = D> {
    levels: Vec<D>,
    datagram: L,
    len: usize,
}

impl<D: QueueDiscipline + Default> StrictPriority<D> {
    /// Create a scheduler with `num_levels` predicted-priority levels (all
    /// using `D::default()`) above a datagram queue.
    pub fn new(num_levels: usize) -> Self {
        StrictPriority {
            levels: (0..num_levels).map(|_| D::default()).collect(),
            datagram: D::default(),
            len: 0,
        }
    }
}

impl<D: QueueDiscipline, L: QueueDiscipline> StrictPriority<D, L> {
    /// Create a scheduler from explicitly constructed inner disciplines.
    pub fn from_parts(levels: Vec<D>, datagram: L) -> Self {
        StrictPriority {
            levels,
            datagram,
            len: 0,
        }
    }

    fn level_for(&self, class: ServiceClass) -> Option<usize> {
        match class {
            ServiceClass::Predicted { priority } if !self.levels.is_empty() => {
                Some((priority as usize).min(self.levels.len() - 1))
            }
            _ => None,
        }
    }
}

impl<D: QueueDiscipline, L: QueueDiscipline> QueueDiscipline for StrictPriority<D, L> {
    fn enqueue(&mut self, now: SimTime, packet: Packet, ctx: SchedContext) {
        self.len += 1;
        match self.level_for(ctx.class) {
            Some(p) => self.levels[p].enqueue(now, packet, ctx),
            None => self.datagram.enqueue(now, packet, ctx),
        }
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Dequeued> {
        for level in &mut self.levels {
            if !level.is_empty() {
                self.len -= 1;
                return level.dequeue(now);
            }
        }
        if !self.datagram.is_empty() {
            self.len -= 1;
            return self.datagram.dequeue(now);
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "Priority"
    }

    fn state_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.state_bytes()).sum::<u64>() + self.datagram.state_bytes()
    }

    fn reservation_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.reservation_bytes())
            .sum::<u64>()
            + self.datagram.reservation_bytes()
    }

    fn pool_grow_events(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.pool_grow_events())
            .sum::<u64>()
            + self.datagram.pool_grow_events()
    }

    fn pool_segments_high_water(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.pool_segments_high_water())
            .sum::<u64>()
            + self.datagram.pool_segments_high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::Fifo;
    use crate::fifo_plus::FifoPlus;
    use ispn_core::FlowId;

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, 1000, SimTime::ZERO)
    }

    fn predicted(p: u8, t: SimTime) -> SchedContext {
        SchedContext::new(ServiceClass::Predicted { priority: p }, t)
    }

    #[test]
    fn higher_priority_always_served_first() {
        let mut q: StrictPriority<Fifo> = StrictPriority::new(2);
        let t = SimTime::ZERO;
        q.enqueue(t, pkt(1, 0), SchedContext::datagram(t));
        q.enqueue(t, pkt(2, 0), predicted(1, t));
        q.enqueue(t, pkt(3, 0), predicted(0, t));
        assert_eq!(q.len(), 3);
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(3));
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(2));
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(1));
        assert!(q.dequeue(t).is_none());
    }

    #[test]
    fn datagram_starved_while_priority_backlogged() {
        let mut q: StrictPriority<Fifo> = StrictPriority::new(1);
        let t = SimTime::ZERO;
        q.enqueue(t, pkt(9, 0), SchedContext::datagram(t));
        for s in 0..5 {
            q.enqueue(t, pkt(1, s), predicted(0, t));
        }
        for _ in 0..5 {
            assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(1));
        }
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(9));
    }

    #[test]
    fn guaranteed_class_falls_back_to_datagram_queue() {
        // The pure priority scheduler has no WFQ layer; a guaranteed-class
        // packet (which should never reach it in the unified design) is
        // treated as datagram rather than lost.
        let mut q: StrictPriority<Fifo> = StrictPriority::new(1);
        let t = SimTime::ZERO;
        q.enqueue(t, pkt(1, 0), SchedContext::new(ServiceClass::Guaranteed, t));
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(1));
    }

    #[test]
    fn out_of_range_priority_clamps_to_lowest_level() {
        let mut q: StrictPriority<Fifo> = StrictPriority::new(2);
        let t = SimTime::ZERO;
        q.enqueue(t, pkt(1, 0), predicted(7, t));
        q.enqueue(t, pkt(2, 0), predicted(1, t));
        // Both are in level 1; FIFO order applies.
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(1));
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(2));
    }

    #[test]
    fn works_with_fifo_plus_inner_disciplines() {
        let mut q: StrictPriority<FifoPlus> = StrictPriority::new(2);
        let t = SimTime::from_millis(1);
        q.enqueue(t, pkt(1, 0), predicted(0, t));
        q.enqueue(t, pkt(2, 0), predicted(1, t));
        let first = q.dequeue(SimTime::from_millis(2)).unwrap();
        assert_eq!(first.packet.flow, FlowId(1));
        assert_eq!(q.levels.len(), 2);
        assert_eq!(q.name(), "Priority");
    }

    #[test]
    fn zero_levels_sends_everything_to_datagram() {
        let mut q: StrictPriority<Fifo> = StrictPriority::new(0);
        let t = SimTime::ZERO;
        q.enqueue(t, pkt(1, 0), predicted(0, t));
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(1));
    }
}
