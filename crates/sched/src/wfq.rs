//! Weighted Fair Queueing / PGPS (Section 4).
//!
//! "The packetized version of WFQ is merely, at any time t when the next
//! packet to be transmitted must be chosen, to select the packet with the
//! minimal E(t)" — equivalently, to transmit packets in increasing order of
//! the virtual finishing time they would have in the fluid GPS system.
//! Parekh and Gallager proved that, when every switch gives a flow the same
//! clock rate and the clock rates sum to no more than the link speed, this
//! discipline delivers the `b(r)/r` worst-case queueing bound, independent
//! of how every other flow behaves.  That isolation is exactly what the
//! paper's guaranteed service relies on.
//!
//! The implementation keeps one FIFO of packets per flow (the crate's lane
//! table) plus a shared [`GpsClock`]; each arriving packet is stamped with
//! its virtual finish time and dequeue picks the smallest stamp among the
//! flows' head packets (per-flow stamps are non-decreasing so only heads
//! need to be compared).

use std::collections::BTreeMap;

use ispn_core::{FlowId, Packet};
use ispn_sim::SimTime;

use crate::disc::{Dequeued, GuaranteedInstall, QueueDiscipline, SchedContext};
use crate::gps::GpsClock;
use crate::lanes::LaneTable;

/// Packetized Weighted Fair Queueing.
#[derive(Debug)]
pub struct Wfq {
    gps: GpsClock,
    link_rate_bps: f64,
    /// Clock rate assigned to flows that were never explicitly registered.
    default_rate_bps: f64,
    /// One lane per flow that has sent or been given a rate; the clock
    /// rate itself lives in `gps`.  A lane is retired when its flow's rate
    /// is removed.
    lanes: LaneTable<()>,
    /// Clock rates installed with
    /// [`install_guaranteed`](QueueDiscipline::install_guaranteed): their
    /// sum must stay below the link rate so a link without an admission
    /// controller still refuses oversubscribed reservations, like
    /// [`Unified`](crate::Unified) does.
    guaranteed: BTreeMap<FlowId, f64>,
    /// Running Σ of `guaranteed` values (kept in step on install/remove,
    /// like `Unified::guaranteed_rate_sum`).
    guaranteed_rate_sum: f64,
    len: usize,
}

impl Wfq {
    /// Create a WFQ scheduler for a link of `link_rate_bps`.
    ///
    /// Flows that are not given a rate with
    /// [`install_guaranteed`](QueueDiscipline::install_guaranteed) before
    /// their first packet arrives are given `default_rate_bps`.  For the
    /// plain Fair Queueing of the paper's Tables 1 and 2 ("equal clock
    /// rates") simply leave every flow on the same default.
    pub fn new(link_rate_bps: f64, default_rate_bps: f64) -> Self {
        assert!(default_rate_bps > 0.0);
        Wfq {
            gps: GpsClock::new(link_rate_bps),
            link_rate_bps,
            default_rate_bps,
            lanes: LaneTable::new(),
            guaranteed: BTreeMap::new(),
            guaranteed_rate_sum: 0.0,
            len: 0,
        }
    }

    /// Convenience constructor: equal-share Fair Queueing over an expected
    /// number of flows.
    pub fn equal_share(link_rate_bps: f64, expected_flows: usize) -> Self {
        let n = expected_flows.max(1) as f64;
        Wfq::new(link_rate_bps, link_rate_bps / n)
    }
}

impl QueueDiscipline for Wfq {
    fn enqueue(&mut self, now: SimTime, packet: Packet, ctx: SchedContext) {
        // The stamp registers the flow if a teardown had removed it, and
        // the push calls the lane's pending retire off to match.
        let finish = self.gps.stamp_or_register(
            packet.flow.0 as u64,
            packet.size_bits,
            now,
            self.default_rate_bps,
        );
        let slot = self.lanes.slot_or_insert(packet.flow, ());
        self.lanes.push(slot, packet, ctx, finish);
        self.len += 1;
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Dequeued> {
        if self.len == 0 {
            return None;
        }
        self.gps.advance(now);
        // Smallest virtual finish time among the flows' head packets.
        let (at, _) = self.lanes.min()?;
        self.len -= 1;
        Some(self.lanes.pop(at))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "WFQ"
    }

    fn install_guaranteed(&mut self, flow: FlowId, rate_bps: f64) -> GuaranteedInstall {
        if rate_bps <= 0.0 {
            return GuaranteedInstall::Refused;
        }
        // Parekh–Gallager needs the guaranteed clock rates to sum below the
        // link speed; refuse reservations that would break that, so the
        // admission veto in `Network::admit_flow_on_link` holds on WFQ
        // links with no admission controller too.
        let old = self.guaranteed.get(&flow).copied().unwrap_or(0.0);
        let new_sum = self.guaranteed_rate_sum - old + rate_bps;
        if new_sum >= self.link_rate_bps {
            return GuaranteedInstall::Refused;
        }
        self.guaranteed_rate_sum = new_sum;
        self.guaranteed.insert(flow, rate_bps);
        self.gps.set_rate(flow.0 as u64, rate_bps);
        self.lanes.revive(flow);
        GuaranteedInstall::Installed
    }

    /// Any packets of the flow still queued are served at their existing
    /// virtual-time stamps; if the flow sends again later it re-enters at
    /// the default clock rate.
    fn remove_flow(&mut self, _now: SimTime, flow: FlowId) -> bool {
        if let Some(rate) = self.guaranteed.remove(&flow) {
            self.guaranteed_rate_sum -= rate;
        }
        self.lanes.retire(flow);
        self.gps.remove(flow.0 as u64).is_some()
    }

    fn state_bytes(&self) -> u64 {
        self.lanes.state_bytes()
    }

    fn reservation_bytes(&self) -> u64 {
        (self.guaranteed.len() * std::mem::size_of::<(FlowId, f64)>()) as u64
            + self.gps.state_bytes()
    }

    fn pool_grow_events(&self) -> u64 {
        self.lanes.grow_events()
    }

    fn pool_segments_high_water(&self) -> u64 {
        self.lanes.segments_high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::ServiceClass;

    const MBIT: f64 = 1_000_000.0;
    const PKT: u64 = 1000;

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, PKT, SimTime::ZERO)
    }

    fn ctx(t: SimTime) -> SchedContext {
        SchedContext::new(ServiceClass::Guaranteed, t)
    }

    #[test]
    fn equal_rates_interleave_backlogged_flows() {
        // Flow 1 dumps a burst of 4; flow 2 dumps a burst of 4 at the same
        // instant.  With equal clock rates WFQ alternates between them
        // instead of serving one burst first.
        let mut q = Wfq::equal_share(MBIT, 2);
        let t = SimTime::ZERO;
        for seq in 0..4 {
            q.enqueue(t, pkt(1, seq), ctx(t));
        }
        for seq in 0..4 {
            q.enqueue(t, pkt(2, seq), ctx(t));
        }
        let order: Vec<u32> = (0..8)
            .map(|_| q.dequeue(t).unwrap().packet.flow.0)
            .collect();
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn fifo_among_packets_of_one_flow() {
        let mut q = Wfq::equal_share(MBIT, 1);
        let t = SimTime::ZERO;
        for seq in 0..5 {
            q.enqueue(t, pkt(1, seq), ctx(t));
        }
        let seqs: Vec<u64> = (0..5).map(|_| q.dequeue(t).unwrap().packet.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn weights_bias_service_toward_higher_clock_rate() {
        // Flow 1 has 3x the clock rate of flow 2; over a long backlog it
        // should receive roughly 3x the service.
        let mut q = Wfq::new(MBIT, 100_000.0);
        q.install_guaranteed(FlowId(1), 600_000.0);
        q.install_guaranteed(FlowId(2), 200_000.0);
        let t = SimTime::ZERO;
        for seq in 0..40 {
            q.enqueue(t, pkt(1, seq), ctx(t));
            q.enqueue(t, pkt(2, seq), ctx(t));
        }
        // Serve the first 20 packets and count per-flow service.
        let mut served = [0u32; 3];
        for _ in 0..20 {
            let d = q.dequeue(t).unwrap();
            served[d.packet.flow.0 as usize] += 1;
        }
        assert_eq!(served[1] + served[2], 20);
        assert!(served[1] >= 14 && served[1] <= 16, "served {served:?}");
    }

    #[test]
    fn isolation_a_burst_does_not_delay_a_paced_flow() {
        // Flow 9 (the "misbehaving" source) dumps 50 packets at t=0.
        // Flow 1 sends a single packet at t=0.  Under WFQ with equal rates,
        // flow 1's packet is served within the first two transmissions.
        let mut q = Wfq::equal_share(MBIT, 2);
        let t = SimTime::ZERO;
        for seq in 0..50 {
            q.enqueue(t, pkt(9, seq), ctx(t));
        }
        q.enqueue(t, pkt(1, 0), ctx(t));
        let first = q.dequeue(t).unwrap();
        let second = q.dequeue(t).unwrap();
        assert!(
            first.packet.flow == FlowId(1) || second.packet.flow == FlowId(1),
            "paced flow must be served among the first two packets"
        );
    }

    #[test]
    fn idle_flow_does_not_accumulate_credit() {
        // A flow that was idle for a long time does not get to monopolize
        // the link when it finally sends (its start time is max(V, F_prev)).
        let mut q = Wfq::equal_share(MBIT, 2);
        // Flow 1 keeps the link busy from t=0.
        for seq in 0..10 {
            q.enqueue(SimTime::ZERO, pkt(1, seq), ctx(SimTime::ZERO));
        }
        // Serve a few to advance virtual time.
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            now += SimTime::MILLISECOND;
            let _ = q.dequeue(now).unwrap();
        }
        // Flow 2 wakes up and sends 3 packets; it should share from now on,
        // not claim the 5 ms of service it "missed".
        for seq in 0..3 {
            q.enqueue(now, pkt(2, seq), ctx(now));
        }
        let mut flow2_served = 0;
        for _ in 0..4 {
            now += SimTime::MILLISECOND;
            if q.dequeue(now).unwrap().packet.flow == FlowId(2) {
                flow2_served += 1;
            }
        }
        // In 4 transmissions flow 2 gets roughly half, not all of them.
        assert!((1..=3).contains(&flow2_served));
    }

    #[test]
    fn work_conserving_across_flow_mix() {
        let mut q = Wfq::equal_share(MBIT, 4);
        let t = SimTime::ZERO;
        for f in 0..4u32 {
            for s in 0..3 {
                q.enqueue(t, pkt(f, s), ctx(t));
            }
        }
        let mut n = 0;
        while q.dequeue(t).is_some() {
            n += 1;
        }
        assert_eq!(n, 12);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn remove_flow_rate_deregisters() {
        let mut q = Wfq::new(MBIT, 100_000.0);
        let d: &mut dyn QueueDiscipline = &mut q;
        assert_eq!(
            d.install_guaranteed(FlowId(1), 400_000.0),
            GuaranteedInstall::Installed
        );
        assert!(d.remove_flow(SimTime::ZERO, FlowId(1)));
        assert!(!d.remove_flow(SimTime::ZERO, FlowId(1)));
        assert_eq!(q.gps.rate(1), None);
        assert_eq!((q.guaranteed.len(), q.guaranteed_rate_sum), (0, 0.0));
    }

    /// Enqueue `n` packets of `flow` at t = 0.
    fn backlog(q: &mut Wfq, flow: u32, n: u64) {
        for seq in 0..n {
            q.enqueue(SimTime::ZERO, pkt(flow, seq), ctx(SimTime::ZERO));
        }
    }

    fn drain(q: &mut Wfq) -> Vec<u32> {
        std::iter::from_fn(|| q.dequeue(SimTime::ZERO))
            .map(|d| d.packet.flow.0)
            .collect()
    }

    #[test]
    fn lane_removed_while_backlogged_is_freed_when_it_drains() {
        let mut q = Wfq::equal_share(MBIT, 2);
        backlog(&mut q, 1, 3);
        backlog(&mut q, 2, 3);
        assert!(q.remove_flow(SimTime::ZERO, FlowId(1)));
        // The rate is gone at once, and a second removal finds none…
        assert_eq!(q.gps.rate(1), None);
        assert!(!q.remove_flow(SimTime::ZERO, FlowId(1)));
        // …but the backlog is served at its existing stamps, and only then
        // does the lane go (the table's tests cover the recycling).
        assert!(q.lanes.slot(FlowId(1)).is_some());
        assert_eq!(drain(&mut q), vec![1, 2, 1, 2, 1, 2]);
        assert_eq!(q.lanes.slot(FlowId(1)), None);
        assert!(q.lanes.slot(FlowId(2)).is_some());
    }

    #[test]
    fn lane_reregistered_while_backlogged_survives_the_drain() {
        let ways: [fn(&mut Wfq); 2] = [
            |q| {
                assert_eq!(
                    q.install_guaranteed(FlowId(1), 300_000.0),
                    GuaranteedInstall::Installed
                )
            },
            // A fresh packet re-enters at the default rate.
            |q| backlog(q, 1, 1),
        ];
        for (way, register) in ways.into_iter().enumerate() {
            let mut q = Wfq::equal_share(MBIT, 2);
            backlog(&mut q, 1, 2);
            assert!(q.remove_flow(SimTime::ZERO, FlowId(1)));
            register(&mut q);
            assert!(q.gps.rate(1).is_some(), "way {way}");
            assert!(drain(&mut q).iter().all(|&f| f == 1), "way {way}");
            // The flow has a rate again, so the drain must not have torn
            // its lane down.
            assert!(q.lanes.slot(FlowId(1)).is_some(), "way {way}");
        }
    }

    #[test]
    fn install_guaranteed_refuses_oversubscription() {
        let mut q = Wfq::new(MBIT, 100_000.0);
        assert_eq!(
            q.install_guaranteed(FlowId(1), 600_000.0),
            GuaranteedInstall::Installed
        );
        // 600k + 400k would reach the link rate: refused, rate untouched.
        assert_eq!(
            q.install_guaranteed(FlowId(2), 400_000.0),
            GuaranteedInstall::Refused
        );
        assert_eq!(q.gps.rate(2), None);
        // Updating an existing reservation accounts for its old rate.
        assert_eq!(
            q.install_guaranteed(FlowId(1), 500_000.0),
            GuaranteedInstall::Installed
        );
        assert_eq!(
            q.install_guaranteed(FlowId(2), 400_000.0),
            GuaranteedInstall::Installed
        );
        // Removal returns headroom.
        assert!(q.remove_flow(SimTime::ZERO, FlowId(2)));
        assert_eq!(
            q.install_guaranteed(FlowId(3), 400_000.0),
            GuaranteedInstall::Installed
        );
    }

    #[test]
    fn default_rate_applies_to_unregistered_flows() {
        let mut q = Wfq::new(MBIT, 123_456.0);
        q.enqueue(SimTime::ZERO, pkt(7, 0), ctx(SimTime::ZERO));
        assert_eq!(q.gps.rate(7), Some(123_456.0));
        assert_eq!(q.gps.rate(8), None);
        assert_eq!(q.name(), "WFQ");
        assert!(q.gps.busy());
    }
}
