//! The lane table under [`Wfq`](crate::Wfq),
//! [`VirtualClock`](crate::VirtualClock) and [`Unified`](crate::Unified):
//! Section 7's "time-stamp based WFQ scheme as a framework" — one FIFO of
//! stamped packets per flow, smallest head stamp transmitted first —
//! written once.  A discipline adds only how it stamps a packet and
//! whatever per-flow state `X` that takes; the crate docs say what the
//! table owns and when a lane is freed.
//!
//! [`min`](LaneTable::min) looks at backlogged lanes only, and its winner
//! does not depend on the order it meets them in, so a dequeue costs
//! O(backlogged) under every discipline and no lane order is observable.

use std::collections::VecDeque;

use ispn_core::{FlowId, Packet};

use crate::disc::{push_counted, segments, Dequeued, SchedContext};

/// The sentinel in `slot_of` for flows with no lane.
const NO_SLOT: u32 = u32::MAX;

/// A queued packet with its context and its stamp.
type Stamped = (Packet, SchedContext, f64);

#[derive(Debug)]
struct Lane<X> {
    flow: FlowId,
    /// Keeps its capacity when it drains and when the slot is recycled,
    /// so steady-state traffic and lane teardown allocate nothing after
    /// warm-up.
    queue: VecDeque<Stamped>,
    /// `retire` found a backlog: free the lane when it drains.
    retiring: bool,
    state: X,
}

/// Per-flow FIFOs of stamped packets; `X` is the discipline's own
/// per-flow state.
#[derive(Debug)]
pub(crate) struct LaneTable<X> {
    lanes: Vec<Lane<X>>,
    /// Slots of the lanes whose queue is non-empty, in no particular order.
    busy: Vec<u32>,
    /// `slot_of[flow.0]` is the flow's lane index, or `NO_SLOT`.
    slot_of: Vec<u32>,
    /// Recycled lane slots; each keeps its emptied queue for the slot's
    /// next flow.
    free: Vec<u32>,
    /// Pushes that found a lane's queue full.
    grown: u64,
}

impl<X> LaneTable<X> {
    pub(crate) fn new() -> Self {
        LaneTable {
            lanes: Vec::new(),
            busy: Vec::new(),
            slot_of: Vec::new(),
            free: Vec::new(),
            grown: 0,
        }
    }

    /// The flow's lane slot, if it has one.
    #[inline]
    pub(crate) fn slot(&self, flow: FlowId) -> Option<usize> {
        match self.slot_of.get(flow.index()) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// The flow's lane slot; a flow without one gets a lane (recycled or
    /// fresh) that starts from `state`.
    pub(crate) fn slot_or_insert(&mut self, flow: FlowId, state: X) -> usize {
        if let Some(slot) = self.slot(flow) {
            return slot;
        }
        if self.slot_of.len() <= flow.index() {
            self.slot_of.resize(flow.index() + 1, NO_SLOT);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let lane = &mut self.lanes[s as usize];
                lane.flow = flow;
                lane.retiring = false;
                lane.state = state;
                s as usize
            }
            None => {
                self.lanes.push(Lane {
                    flow,
                    queue: VecDeque::new(),
                    retiring: false,
                    state,
                });
                self.lanes.len() - 1
            }
        };
        self.slot_of[flow.index()] = slot as u32;
        slot
    }

    #[cfg(test)]
    pub(crate) fn state(&self, slot: usize) -> &X {
        &self.lanes[slot].state
    }

    pub(crate) fn state_mut(&mut self, slot: usize) -> &mut X {
        &mut self.lanes[slot].state
    }

    /// Queue a packet at the back of `slot`'s lane.  Stamps must not
    /// decrease within a lane.  Calls off a pending `retire`: the flow has
    /// evidently returned.
    #[inline]
    pub(crate) fn push(&mut self, slot: usize, packet: Packet, ctx: SchedContext, stamp: f64) {
        let lane = &mut self.lanes[slot];
        lane.retiring = false;
        if lane.queue.is_empty() {
            self.busy.push(slot as u32);
        }
        push_counted(&mut lane.queue, &mut self.grown, (packet, ctx, stamp));
    }

    /// The backlogged lane to serve next — smallest head stamp, exact ties
    /// to the lowest flow id — as its position for [`pop`](Self::pop),
    /// with that stamp.
    #[inline]
    pub(crate) fn min(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, FlowId)> = None;
        for (at, &slot) in self.busy.iter().enumerate() {
            let lane = &self.lanes[slot as usize];
            let &(_, _, head) = lane.queue.front().expect("busy lane has a head packet");
            let better = match best {
                None => true,
                Some((_, stamp, flow)) => head < stamp || (head == stamp && lane.flow < flow),
            };
            if better {
                best = Some((at, head, lane.flow));
            }
        }
        best.map(|(at, stamp, _)| (at, stamp))
    }

    /// Take the head packet of the lane `min` found at position `at`.
    #[inline]
    pub(crate) fn pop(&mut self, at: usize) -> Dequeued {
        let slot = self.busy[at] as usize;
        let lane = &mut self.lanes[slot];
        let (packet, ctx, _) = lane.queue.pop_front().expect("busy lane has a head packet");
        if lane.queue.is_empty() {
            self.busy.swap_remove(at);
            if lane.retiring {
                self.free_lane(slot);
            }
        }
        Dequeued {
            packet,
            arrival: ctx.arrival,
            class: ctx.class,
        }
    }

    /// The flow's registration is gone: free its lane now if it is empty,
    /// otherwise once the queued packets have been served at their
    /// existing stamps.  Returns `false` if the flow has no lane.
    pub(crate) fn retire(&mut self, flow: FlowId) -> bool {
        let Some(slot) = self.slot(flow) else {
            return false;
        };
        if self.lanes[slot].queue.is_empty() {
            self.free_lane(slot);
        } else {
            self.lanes[slot].retiring = true;
        }
        true
    }

    /// The flow is registered again: call a pending `retire` off.
    pub(crate) fn revive(&mut self, flow: FlowId) {
        if let Some(slot) = self.slot(flow) {
            self.lanes[slot].retiring = false;
        }
    }

    /// Free `slot` now, handing its backlog to `sink` in queue order.
    pub(crate) fn evict(&mut self, slot: usize, mut sink: impl FnMut(Packet, SchedContext)) {
        if let Some(at) = self.busy.iter().position(|&s| s as usize == slot) {
            self.busy.swap_remove(at);
        }
        while let Some((packet, ctx, _)) = self.lanes[slot].queue.pop_front() {
            sink(packet, ctx);
        }
        self.free_lane(slot);
    }

    /// Recycle `slot`, whose queue is empty.
    fn free_lane(&mut self, slot: usize) {
        self.slot_of[self.lanes[slot].flow.index()] = NO_SLOT;
        self.free.push(slot as u32);
    }

    /// Number of lanes in use: every slot but the recycled ones.
    pub(crate) fn live(&self) -> usize {
        self.lanes.len() - self.free.len()
    }

    /// Slot map + lane records + every lane's queue at full capacity (the
    /// `QueueDiscipline::state_bytes` rules).
    pub(crate) fn state_bytes(&self) -> u64 {
        let queued: usize = self.lanes.iter().map(|l| l.queue.capacity()).sum();
        (self.slot_of.len() * std::mem::size_of::<u32>()
            + self.lanes.len() * std::mem::size_of::<Lane<X>>()
            + queued * std::mem::size_of::<Stamped>()) as u64
    }

    pub(crate) fn grow_events(&self) -> u64 {
        self.grown
    }

    pub(crate) fn segments_high_water(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| segments(l.queue.capacity()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::ServiceClass;
    use ispn_sim::SimTime;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    fn push(t: &mut LaneTable<()>, flow: u32, seq: u64, stamp: f64) {
        let slot = t.slot_or_insert(FlowId(flow), ());
        let packet = Packet::data(FlowId(flow), seq, 1000, SimTime::ZERO);
        let ctx = SchedContext::new(ServiceClass::Guaranteed, SimTime::ZERO);
        t.push(slot, packet, ctx, stamp);
    }

    fn pop(t: &mut LaneTable<()>) -> Option<(u32, u64)> {
        let (at, _) = t.min()?;
        let d = t.pop(at);
        Some((d.packet.flow.0, d.packet.seq))
    }

    fn slot(t: &LaneTable<()>, flow: u32) -> Option<usize> {
        t.slot(FlowId(flow))
    }

    #[test]
    fn a_recycled_slot_reuses_the_pooled_segment() {
        let mut t = LaneTable::new();
        push(&mut t, 1, 0, 1.0);
        assert_eq!(pop(&mut t), Some((1, 0)));
        let grown = t.grow_events();
        // Idle but registered: the lane keeps its slot and its storage.
        assert!(t.free.is_empty());
        push(&mut t, 1, 1, 2.0);
        assert_eq!(pop(&mut t), Some((1, 1)));
        assert_eq!(t.grow_events(), grown);
        t.retire(FlowId(1));
        assert_eq!(slot(&t, 1), None);
        assert_eq!((t.free.as_slice(), t.live()), (&[0][..], 0));
        push(&mut t, 7, 0, 1.0);
        assert_eq!(slot(&t, 7), Some(0));
        assert_eq!((t.lanes.len(), t.live()), (1, 1));
        assert!(t.free.is_empty());
        assert_eq!(t.grow_events(), grown);
    }

    #[test]
    fn retire_on_a_backlog_frees_at_the_drain_and_not_before() {
        let mut t = LaneTable::new();
        push(&mut t, 1, 0, 1.0);
        push(&mut t, 1, 1, 2.0);
        push(&mut t, 2, 0, 1.5);
        t.retire(FlowId(1));
        assert_eq!(pop(&mut t), Some((1, 0)));
        assert_eq!(slot(&t, 1), Some(0));
        assert!(t.free.is_empty());
        assert_eq!(pop(&mut t), Some((2, 0)));
        assert_eq!(pop(&mut t), Some((1, 1)));
        // Drained: the retired lane went back; the registered one stays.
        assert_eq!((slot(&t, 1), slot(&t, 2)), (None, Some(1)));
        assert_eq!(t.free.as_slice(), &[0]);
        assert!(t.busy.is_empty());
    }

    #[test]
    fn revive_and_a_fresh_push_call_a_pending_retire_off() {
        for fresh_push in [false, true] {
            let mut t = LaneTable::new();
            push(&mut t, 1, 0, 1.0);
            t.retire(FlowId(1));
            if fresh_push {
                push(&mut t, 1, 1, 2.0);
            } else {
                t.revive(FlowId(1));
            }
            while pop(&mut t).is_some() {}
            assert_eq!(slot(&t, 1), Some(0), "fresh_push {fresh_push}");
            assert!(t.free.is_empty(), "fresh_push {fresh_push}");
        }
    }

    #[test]
    fn evict_hands_the_backlog_over_in_queue_order() {
        let mut t = LaneTable::new();
        push(&mut t, 1, 0, 1.0);
        for seq in 0..3 {
            push(&mut t, 2, seq, seq as f64);
        }
        let mut seen = Vec::new();
        t.evict(slot(&t, 2).unwrap(), |p, _| seen.push(p.seq));
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(slot(&t, 2), None);
        assert_eq!((t.busy.as_slice(), t.free.as_slice()), (&[0][..], &[1][..]));
        assert_eq!(pop(&mut t), Some((1, 0)));
        assert_eq!(pop(&mut t), None);
        // The evicted lane's storage serves the slot's next flow.
        let grown = t.grow_events();
        push(&mut t, 3, 0, 1.0);
        assert_eq!((slot(&t, 3), t.grow_events()), (Some(1), grown));
    }

    #[test]
    fn min_breaks_exact_ties_by_lowest_flow_id_whatever_the_busy_order() {
        for order in [[1, 2, 3], [3, 2, 1], [2, 3, 1]] {
            let mut t = LaneTable::new();
            for flow in order {
                push(&mut t, flow, 0, 5.0);
            }
            let served: Vec<u32> = std::iter::from_fn(|| pop(&mut t)).map(|d| d.0).collect();
            assert_eq!(served, vec![1, 2, 3], "pushed {order:?}");
        }
    }

    /// The table as a map from flow to (queue of (seq, stamp), retiring).
    type Model = BTreeMap<u32, (VecDeque<(u64, f64)>, bool)>;

    /// Scanned in key order, a strict `<` over ascending flow ids is
    /// "smallest stamp, ties to the lowest id".
    fn model_min(m: &Model) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        for (&flow, (queue, _)) in m {
            if let Some(&(_, stamp)) = queue.front() {
                if best.is_none_or(|(_, b)| stamp < b) {
                    best = Some((flow, stamp));
                }
            }
        }
        best
    }

    fn model_pop(m: &mut Model) -> Option<(u32, u64)> {
        let (flow, _) = model_min(m)?;
        let (queue, retiring) = m.get_mut(&flow).unwrap();
        let (seq, _) = queue.pop_front().unwrap();
        if queue.is_empty() && *retiring {
            m.remove(&flow);
        }
        Some((flow, seq))
    }

    proptest! {
        #[test]
        fn table_matches_the_key_ordered_map(
            ops in proptest::collection::vec((0u8..10, 0u32..6, 0u64..3), 1..200),
        ) {
            let mut t = LaneTable::new();
            let mut m = Model::new();
            let mut last = [0.0f64; 6];
            for (seq, &(op, flow, step)) in ops.iter().enumerate() {
                let seq = seq as u64;
                let live = slot(&t, flow);
                match (op, live) {
                    (0..=3, _) => {
                        // A coarse grid, so exact ties across lanes are common.
                        last[flow as usize] += step as f64;
                        push(&mut t, flow, seq, last[flow as usize]);
                        let lane = m.entry(flow).or_default();
                        lane.0.push_back((seq, last[flow as usize]));
                        lane.1 = false;
                    }
                    (4..=6, _) => prop_assert_eq!(pop(&mut t), model_pop(&mut m)),
                    (7, Some(_)) => {
                        t.retire(FlowId(flow));
                        if m[&flow].0.is_empty() {
                            m.remove(&flow);
                        } else {
                            m.get_mut(&flow).unwrap().1 = true;
                        }
                    }
                    (8, Some(_)) => {
                        t.revive(FlowId(flow));
                        m.get_mut(&flow).unwrap().1 = false;
                    }
                    (9, Some(slot)) => {
                        let mut seen = VecDeque::new();
                        t.evict(slot, |p, _| seen.push_back(p.seq));
                        let (queue, _) = m.remove(&flow).unwrap();
                        prop_assert_eq!(seen, queue.iter().map(|e| e.0).collect::<VecDeque<_>>());
                    }
                    _ => {}
                }
                prop_assert_eq!(
                    t.min().map(|(at, stamp)| (t.lanes[t.busy[at] as usize].flow.0, stamp)),
                    model_min(&m)
                );
                let mut busy: Vec<u32> = t.busy.iter().map(|&s| t.lanes[s as usize].flow.0).collect();
                busy.sort_unstable();
                let backlogged = m.iter().filter(|(_, l)| !l.0.is_empty()).map(|(&f, _)| f);
                prop_assert_eq!(busy, backlogged.collect::<Vec<_>>());
                for flow in 0..6 {
                    prop_assert_eq!(slot(&t, flow).is_some(), m.contains_key(&flow));
                }
            }
        }
    }
}
