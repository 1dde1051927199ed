//! The unified scheduling algorithm (Section 7).
//!
//! "The basic idea is that we must isolate the traffic of guaranteed service
//! class from that of predicted service class, as well as isolate guaranteed
//! flows from each other.  Therefore we use the time-stamp based WFQ scheme
//! as a framework into which we fit the other scheduling algorithms.  Each
//! guaranteed service client α has a separate WFQ flow with some clock rate
//! rα.  All of the predicted service and datagram service traffic is
//! assigned to a pseudo WFQ flow, call it flow 0, with, at each link,
//! r₀ = μ − Σ rα … Inside this flow 0, there are a number of strict
//! priority classes, and within each priority class we operate the FIFO+
//! algorithm."  Datagram traffic sits in the lowest priority class.
//!
//! Design note: pseudo-flow-0 packets receive their WFQ virtual time
//! stamps on arrival in aggregate-FIFO order; those stamps decide *when*
//! flow 0 gets service relative to the guaranteed flows, while the inner
//! priority/FIFO+ structure decides *which* flow-0 packet is transmitted
//! when flow 0 wins.  Guaranteed flows' own stamps are untouched, so the
//! Parekh–Gallager isolation argument for them is unaffected by any
//! reordering inside flow 0.

use std::collections::VecDeque;

use ispn_core::{FlowId, Packet, ServiceClass};
use ispn_sim::SimTime;

use crate::disc::{
    push_counted, segments, Dequeued, GuaranteedInstall, QueueDiscipline, SchedContext,
};
use crate::fifo::Fifo;
use crate::fifo_plus::{Averaging, FifoPlus};
use crate::gps::GpsClock;
use crate::lanes::LaneTable;
use crate::priority::StrictPriority;

/// The unified scheduler: WFQ isolation around priority + FIFO+ sharing.
pub struct Unified {
    gps: GpsClock,
    link_rate_bps: f64,
    /// Sum of guaranteed clock rates; flow 0 gets the remainder.
    guaranteed_rate_sum: f64,
    /// One lane per guaranteed flow.  Lane occupancy *is* the
    /// registration: [`install_guaranteed`] creates the lane and
    /// [`remove_flow`] evicts it.
    ///
    /// [`install_guaranteed`]: QueueDiscipline::install_guaranteed
    /// [`remove_flow`]: QueueDiscipline::remove_flow
    lanes: LaneTable<()>,
    /// Virtual finish stamps of flow-0 packets, in arrival order.
    flow0_stamps: VecDeque<f64>,
    /// Pushes that found `flow0_stamps` full.
    flow0_stamps_grown: u64,
    /// The inner sharing structure of flow 0: FIFO+ for the predicted
    /// classes above a plain FIFO for the datagram class (offsets are
    /// meaningless for best-effort traffic).
    flow0: StrictPriority<FifoPlus, Fifo>,
    len: usize,
}

impl Unified {
    /// Create a unified scheduler for a link of `link_rate_bps` with
    /// `num_priorities` predicted-service priority classes (the paper's K),
    /// each running FIFO+ with the given averaging method, above a FIFO
    /// datagram class.
    pub fn new(link_rate_bps: f64, num_priorities: usize, averaging: Averaging) -> Self {
        assert!(link_rate_bps > 0.0);
        let mut gps = GpsClock::new(link_rate_bps);
        // Flow 0 initially owns the whole link.
        gps.set_rate(GpsClock::PSEUDO_FLOW, link_rate_bps);
        let levels = (0..num_priorities)
            .map(|_| FifoPlus::new(averaging))
            .collect();
        Unified {
            gps,
            link_rate_bps,
            guaranteed_rate_sum: 0.0,
            lanes: LaneTable::new(),
            flow0_stamps: VecDeque::new(),
            flow0_stamps_grown: 0,
            flow0: StrictPriority::from_parts(levels, Fifo::new()),
            len: 0,
        }
    }

    /// The clock rate of a registered guaranteed flow.
    fn guaranteed_rate(&self, flow: FlowId) -> Option<f64> {
        self.lanes.slot(flow)?;
        self.gps.rate(flow.0 as u64)
    }
}

impl QueueDiscipline for Unified {
    fn enqueue(&mut self, now: SimTime, packet: Packet, ctx: SchedContext) {
        self.len += 1;
        let guaranteed_slot = if ctx.class == ServiceClass::Guaranteed {
            self.lanes.slot(packet.flow)
        } else {
            None
        };
        if let Some(slot) = guaranteed_slot {
            let finish = self.gps.stamp(packet.flow.0 as u64, packet.size_bits, now);
            self.lanes.push(slot, packet, ctx, finish);
        } else {
            // Predicted, datagram, and any guaranteed-class packet whose
            // flow was never registered all share pseudo-flow 0.
            let finish = self.gps.stamp(GpsClock::PSEUDO_FLOW, packet.size_bits, now);
            push_counted(&mut self.flow0_stamps, &mut self.flow0_stamps_grown, finish);
            self.flow0.enqueue(now, packet, ctx);
        }
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Dequeued> {
        if self.len == 0 {
            return None;
        }
        self.gps.advance(now);

        // The guaranteed flow whose head packet carries the smallest
        // virtual finish stamp, against the oldest flow-0 stamp (flow 0 is
        // stamped in aggregate FIFO order, so its front stamp is its
        // smallest); on an exact tie the guaranteed flow wins.
        let best = self.lanes.min();
        let flow0_wins = !self.flow0.is_empty() && {
            let finish = *self
                .flow0_stamps
                .front()
                .expect("flow0 stamps track flow0 occupancy");
            best.is_none_or(|(_, b)| finish < b)
        };
        if flow0_wins {
            self.len -= 1;
            self.flow0_stamps.pop_front();
            return self.flow0.dequeue(now);
        }
        let (at, _) = best?;
        self.len -= 1;
        Some(self.lanes.pop(at))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "Unified"
    }

    /// Give `flow` the clock rate `rate_bps` and flow 0 the remainder
    /// (r₀ = μ − Σ rα), registering the flow if it is new and returning its
    /// old rate to the sum if it is not (the Section-8 renegotiation path).
    /// Refused, with nothing changed, if the guaranteed rates would then
    /// reach the link rate.
    fn install_guaranteed(&mut self, flow: FlowId, rate_bps: f64) -> GuaranteedInstall {
        let old = self.guaranteed_rate(flow).unwrap_or(0.0);
        let new_sum = self.guaranteed_rate_sum - old + rate_bps;
        if rate_bps <= 0.0 || new_sum >= self.link_rate_bps {
            return GuaranteedInstall::Refused;
        }
        self.guaranteed_rate_sum = new_sum;
        self.gps.set_rate(flow.0 as u64, rate_bps);
        self.gps
            .set_rate(GpsClock::PSEUDO_FLOW, self.link_rate_bps - new_sum);
        self.lanes.slot_or_insert(flow, ());
        GuaranteedInstall::Installed
    }

    /// Tear down a guaranteed flow's reservation, returning its rate to
    /// pseudo-flow 0 (r₀ = μ − Σ rα).  Packets of the flow still queued
    /// lose their reserved service and are re-queued at the tail of flow 0
    /// (they are carried, like any traffic without a matching reservation,
    /// in the datagram class).
    fn remove_flow(&mut self, now: SimTime, flow: FlowId) -> bool {
        let Some(slot) = self.lanes.slot(flow) else {
            return false;
        };
        let rate = self
            .gps
            .remove(flow.0 as u64)
            .expect("registered guaranteed flow has a GPS rate");
        self.guaranteed_rate_sum -= rate;
        self.gps.set_rate(
            GpsClock::PSEUDO_FLOW,
            self.link_rate_bps - self.guaranteed_rate_sum,
        );
        self.lanes.evict(slot, |packet, ctx| {
            // Demote to flow 0; the packet keeps its original arrival time
            // but is stamped (and therefore served) like a fresh datagram
            // arrival, matching its now-unreserved status.
            let finish = self.gps.stamp(GpsClock::PSEUDO_FLOW, packet.size_bits, now);
            push_counted(&mut self.flow0_stamps, &mut self.flow0_stamps_grown, finish);
            let demoted = SchedContext::new(ServiceClass::Datagram, ctx.arrival);
            self.flow0.enqueue(now, packet, demoted);
        });
        true
    }

    fn state_bytes(&self) -> u64 {
        self.lanes.state_bytes()
            + (self.flow0_stamps.capacity() * std::mem::size_of::<f64>()) as u64
            + self.flow0.state_bytes()
    }

    fn reservation_bytes(&self) -> u64 {
        self.gps.state_bytes() + self.flow0.reservation_bytes()
    }

    fn pool_grow_events(&self) -> u64 {
        self.lanes.grow_events() + self.flow0_stamps_grown + self.flow0.pool_grow_events()
    }

    fn pool_segments_high_water(&self) -> u64 {
        self.lanes.segments_high_water()
            + segments(self.flow0_stamps.capacity())
            + self.flow0.pool_segments_high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBIT: f64 = 1_000_000.0;
    const PKT: u64 = 1000;

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, PKT, SimTime::ZERO)
    }

    fn guaranteed(t: SimTime) -> SchedContext {
        SchedContext::new(ServiceClass::Guaranteed, t)
    }

    fn predicted(p: u8, t: SimTime) -> SchedContext {
        SchedContext::new(ServiceClass::Predicted { priority: p }, t)
    }

    /// The clock rate pseudo-flow 0 holds in the GPS clock (r₀ = μ − Σ rα).
    fn flow0_rate(u: &Unified) -> f64 {
        u.gps.rate(GpsClock::PSEUDO_FLOW).unwrap()
    }

    /// Register a guaranteed flow, which must fit.
    fn add(u: &mut Unified, flow: u32, rate_bps: f64) {
        let installed = u.install_guaranteed(FlowId(flow), rate_bps);
        assert_eq!(installed, GuaranteedInstall::Installed);
    }

    fn make() -> Unified {
        let mut u = Unified::new(MBIT, 2, Averaging::RunningMean);
        add(&mut u, 1, 170_000.0);
        add(&mut u, 2, 85_000.0);
        u
    }

    #[test]
    fn flow0_rate_is_link_minus_guaranteed_reservations() {
        let u = make();
        assert!((flow0_rate(&u) - 745_000.0).abs() < 1e-6);
        assert_eq!(u.guaranteed_rate(FlowId(1)), Some(170_000.0));
        assert_eq!(u.guaranteed_rate(FlowId(2)), Some(85_000.0));
        assert_eq!(u.guaranteed_rate(FlowId(9)), None);
    }

    #[test]
    fn guaranteed_flow_protected_from_predicted_burst() {
        // A big burst of predicted traffic is queued; a guaranteed packet
        // arriving right after must still be served near the front because
        // its virtual finish time (at its reserved rate) is far smaller than
        // the accumulated finish times of the flow-0 backlog.
        let mut u = make();
        let t = SimTime::ZERO;
        for s in 0..50 {
            u.enqueue(t, pkt(10, s), predicted(0, t));
        }
        u.enqueue(t, pkt(1, 0), guaranteed(t));
        // The guaranteed packet's finish = 1000/170k ≈ 5.9 ms of virtual
        // time; flow 0's 7th packet already has a larger stamp, so the
        // guaranteed packet must appear within the first handful of
        // transmissions.
        let mut position = None;
        for i in 0..51 {
            let d = u.dequeue(t).unwrap();
            if d.packet.flow == FlowId(1) {
                position = Some(i);
                break;
            }
        }
        let position = position.expect("guaranteed packet served");
        assert!(position <= 8, "served at position {position}");
    }

    #[test]
    fn predicted_traffic_uses_leftover_bandwidth_in_priority_order() {
        let mut u = make();
        let t = SimTime::ZERO;
        u.enqueue(t, pkt(20, 0), predicted(1, t));
        u.enqueue(t, pkt(21, 0), predicted(0, t));
        u.enqueue(t, pkt(22, 0), SchedContext::datagram(t));
        // No guaranteed backlog: flow 0 drains, and within it priority 0
        // goes first, datagram last.
        let order: Vec<u32> = (0..3)
            .map(|_| u.dequeue(t).unwrap().packet.flow.0)
            .collect();
        assert_eq!(order, vec![21, 20, 22]);
    }

    #[test]
    fn unregistered_guaranteed_class_degrades_to_flow0() {
        let mut u = make();
        let t = SimTime::ZERO;
        // Flow 99 claims guaranteed class but was never registered: it is
        // carried, but inside flow 0's datagram queue rather than with a
        // reserved rate.
        u.enqueue(t, pkt(99, 0), guaranteed(t));
        assert_eq!(u.len(), 1);
        let d = u.dequeue(t).unwrap();
        assert_eq!(d.packet.flow, FlowId(99));
    }

    #[test]
    fn work_conserving_and_exhaustive() {
        let mut u = make();
        let t = SimTime::ZERO;
        let mut total = 0;
        for s in 0..10 {
            u.enqueue(t, pkt(1, s), guaranteed(t));
            u.enqueue(t, pkt(2, s), guaranteed(t));
            u.enqueue(t, pkt(30, s), predicted(0, t));
            u.enqueue(t, pkt(31, s), predicted(1, t));
            u.enqueue(t, pkt(32, s), SchedContext::datagram(t));
            total += 5;
        }
        assert_eq!(u.len(), total);
        let mut served = 0;
        while u.dequeue(t).is_some() {
            served += 1;
        }
        assert_eq!(served, total);
        assert!(u.is_empty());
        assert!(u.dequeue(t).is_none());
    }

    #[test]
    fn guaranteed_flows_share_by_clock_rate_between_themselves() {
        let mut u = Unified::new(MBIT, 1, Averaging::RunningMean);
        add(&mut u, 1, 400_000.0);
        add(&mut u, 2, 200_000.0);
        let t = SimTime::ZERO;
        for s in 0..30 {
            u.enqueue(t, pkt(1, s), guaranteed(t));
            u.enqueue(t, pkt(2, s), guaranteed(t));
        }
        let mut first_fifteen = [0u32; 3];
        for _ in 0..15 {
            first_fifteen[u.dequeue(t).unwrap().packet.flow.0 as usize] += 1;
        }
        // Flow 1 has twice the rate, so roughly 10-of-15 vs 5-of-15.
        assert!(first_fifteen[1] >= 9, "{first_fifteen:?}");
        assert!(first_fifteen[2] >= 4, "{first_fifteen:?}");
    }

    #[test]
    fn remove_guaranteed_flow_returns_rate_to_flow0() {
        let mut u = make();
        assert!((flow0_rate(&u) - 745_000.0).abs() < 1e-6);
        assert!(u.remove_flow(SimTime::ZERO, FlowId(1)));
        assert!((flow0_rate(&u) - 915_000.0).abs() < 1e-6);
        assert_eq!(u.guaranteed_rate(FlowId(1)), None);
        // Removing again is a no-op.
        assert!(!u.remove_flow(SimTime::ZERO, FlowId(1)));
    }

    #[test]
    fn adding_a_registered_flow_again_replaces_its_rate() {
        let mut u = Unified::new(MBIT, 1, Averaging::RunningMean);
        add(&mut u, 1, 100_000.0);
        add(&mut u, 1, 200_000.0);
        assert_eq!(u.guaranteed_rate(FlowId(1)), Some(200_000.0));
        assert_eq!(flow0_rate(&u), 800_000.0);
        assert!(u.remove_flow(SimTime::ZERO, FlowId(1)));
        assert_eq!(flow0_rate(&u), MBIT);
    }

    #[test]
    fn remove_guaranteed_flow_demotes_queued_packets() {
        let mut u = make();
        let t = SimTime::ZERO;
        u.enqueue(t, pkt(1, 0), guaranteed(t));
        u.enqueue(t, pkt(1, 1), guaranteed(t));
        assert_eq!(u.len(), 2);
        assert!(u.remove_flow(t, FlowId(1)));
        // The packets are still carried (now in flow 0) and drain fully.
        assert_eq!(u.len(), 2);
        let a = u.dequeue(t).unwrap();
        let b = u.dequeue(t).unwrap();
        assert_eq!(a.packet.flow, FlowId(1));
        assert_eq!(b.packet.flow, FlowId(1));
        assert!(u.is_empty());
    }

    #[test]
    fn set_guaranteed_rate_adjusts_the_split() {
        let mut u = make();
        let re_rate = |u: &mut Unified, rate| u.install_guaranteed(FlowId(1), rate);
        assert_eq!(re_rate(&mut u, 300_000.0), GuaranteedInstall::Installed);
        assert_eq!(u.guaranteed_rate(FlowId(1)), Some(300_000.0));
        assert!((flow0_rate(&u) - 615_000.0).abs() < 1e-6);
        // An over-reservation is refused and leaves the old rate in force.
        assert_eq!(re_rate(&mut u, 1_000_000.0), GuaranteedInstall::Refused);
        assert_eq!(u.guaranteed_rate(FlowId(1)), Some(300_000.0));
    }

    #[test]
    fn discipline_trait_install_and_remove() {
        let mut u = Unified::new(MBIT, 2, Averaging::RunningMean);
        let d: &mut dyn QueueDiscipline = &mut u;
        assert_eq!(
            d.install_guaranteed(FlowId(5), 200_000.0),
            GuaranteedInstall::Installed
        );
        assert_eq!(
            d.install_guaranteed(FlowId(5), 250_000.0), // update
            GuaranteedInstall::Installed
        );
        assert_eq!(
            d.install_guaranteed(FlowId(6), 900_000.0), // would overflow
            GuaranteedInstall::Refused
        );
        assert!(d.remove_flow(SimTime::ZERO, FlowId(5)));
        assert!(!d.remove_flow(SimTime::ZERO, FlowId(5)));
    }

    #[test]
    fn fifo_plus_offsets_written_for_predicted_but_not_datagram() {
        let mut u = make();
        let t = SimTime::ZERO;
        u.enqueue(t, pkt(30, 0), predicted(0, t));
        u.enqueue(t, pkt(40, 0), SchedContext::datagram(t));
        let now = SimTime::from_millis(5);
        let first = u.dequeue(now).unwrap();
        let second = u.dequeue(now).unwrap();
        // Predicted packet got a (positive) offset recorded; datagram stays 0.
        assert_eq!(first.packet.flow, FlowId(30));
        assert!(first.packet.jitter_offset_ns > 0);
        assert_eq!(second.packet.jitter_offset_ns, 0);
    }
}
