//! The VirtualClock discipline (Zhang), the closest relative of WFQ.
//!
//! Section 4 of the paper: "The VirtualClock algorithm … involves an
//! extremely similar underlying packet scheduling algorithm, but was
//! expressly designed for a context where resources were preapportioned."
//! Each flow keeps an auxiliary clock that advances by `L/r` per packet but
//! never falls behind real time; packets are served in increasing stamp
//! order.  Compared with WFQ the stamps reference *real* time rather than
//! the GPS virtual time, which means a flow that was idle does not regain
//! its share retroactively but a backlogged flow can be punished for past
//! greediness.
//!
//! The unified scheduler does not use VirtualClock; it is provided as the
//! natural baseline for the ablation benchmarks (it was the other
//! preallocated-rate time-stamp scheme of the era) and to support the
//! related-work comparison in EXPERIMENTS.md.

use ispn_core::{FlowId, Packet};
use ispn_sim::SimTime;

use crate::disc::{Dequeued, GuaranteedInstall, QueueDiscipline, SchedContext};
use crate::lanes::LaneTable;

/// What VirtualClock keeps per flow beside the lane's queue.
#[derive(Debug, Clone, Copy)]
struct VcFlow {
    rate_bps: f64,
    /// The auxiliary VirtualClock, in seconds.
    aux_clock: f64,
}

/// The VirtualClock scheduler.
#[derive(Debug)]
pub struct VirtualClock {
    default_rate_bps: f64,
    /// One lane per flow seen or registered.  A lane of an *active* flow
    /// is never freed on idle — its auxiliary clock must survive idle
    /// periods — but explicit reservation teardown
    /// ([`remove_flow`](QueueDiscipline::remove_flow)) retires it,
    /// discarding the auxiliary clock: a flow that returns after teardown
    /// starts from a fresh clock, which is exactly the semantics of a new
    /// reservation.
    lanes: LaneTable<VcFlow>,
    len: usize,
}

impl VirtualClock {
    /// Create a VirtualClock scheduler; unregistered flows receive
    /// `default_rate_bps`.
    pub fn new(default_rate_bps: f64) -> Self {
        assert!(default_rate_bps > 0.0);
        VirtualClock {
            default_rate_bps,
            lanes: LaneTable::new(),
            len: 0,
        }
    }

    /// The flow's lane slot; a new lane starts at the default rate with a
    /// fresh auxiliary clock.
    fn slot_or_insert(&mut self, flow: FlowId) -> usize {
        let fresh = VcFlow {
            rate_bps: self.default_rate_bps,
            aux_clock: 0.0,
        };
        self.lanes.slot_or_insert(flow, fresh)
    }
}

impl QueueDiscipline for VirtualClock {
    fn enqueue(&mut self, now: SimTime, packet: Packet, ctx: SchedContext) {
        let slot = self.slot_or_insert(packet.flow);
        let vc = self.lanes.state_mut(slot);
        // auxVC = max(now, auxVC) + L / r
        vc.aux_clock = vc.aux_clock.max(now.as_secs_f64()) + packet.size_bits as f64 / vc.rate_bps;
        let stamp = vc.aux_clock;
        self.lanes.push(slot, packet, ctx, stamp);
        self.len += 1;
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Dequeued> {
        let (at, _) = self.lanes.min()?;
        self.len -= 1;
        Some(self.lanes.pop(at))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "VirtualClock"
    }

    /// Assign a flow its reserved average rate.  VirtualClock was
    /// "expressly designed for a context where resources were
    /// preapportioned", so it leaves refusing an oversubscription to
    /// admission control.
    fn install_guaranteed(&mut self, flow: FlowId, rate_bps: f64) -> GuaranteedInstall {
        if rate_bps <= 0.0 {
            return GuaranteedInstall::Refused;
        }
        let slot = self.slot_or_insert(flow);
        self.lanes.state_mut(slot).rate_bps = rate_bps;
        self.lanes.revive(flow);
        GuaranteedInstall::Installed
    }

    fn remove_flow(&mut self, _now: SimTime, flow: FlowId) -> bool {
        self.lanes.retire(flow)
    }

    fn state_bytes(&self) -> u64 {
        self.lanes.state_bytes()
    }

    fn reservation_bytes(&self) -> u64 {
        // Per-flow rate + auxiliary clock live inside the lane table; a
        // freed lane's record is spare capacity, not a reservation.
        (self.lanes.live() * std::mem::size_of::<VcFlow>()) as u64
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

    const PKT: u64 = 1000;

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, PKT, SimTime::ZERO)
    }

    fn ctx(t: SimTime) -> SchedContext {
        SchedContext::new(ServiceClass::Guaranteed, t)
    }

    /// The rate assigned to a flow, if it has been seen or registered.
    fn rate(q: &VirtualClock, flow: u32) -> Option<f64> {
        let slot = q.lanes.slot(FlowId(flow))?;
        Some(q.lanes.state(slot).rate_bps)
    }

    /// Install `rate_bps` for `flow`, which VirtualClock always does.
    fn install(q: &mut VirtualClock, flow: u32, rate_bps: f64) {
        let installed = q.install_guaranteed(FlowId(flow), rate_bps);
        assert_eq!(installed, GuaranteedInstall::Installed);
    }

    #[test]
    fn equal_rates_interleave() {
        let mut q = VirtualClock::new(100_000.0);
        let t = SimTime::ZERO;
        for s in 0..3 {
            q.enqueue(t, pkt(1, s), ctx(t));
            q.enqueue(t, pkt(2, s), ctx(t));
        }
        let order: Vec<u32> = (0..6)
            .map(|_| q.dequeue(t).unwrap().packet.flow.0)
            .collect();
        // Perfect alternation (ties broken by flow id).
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn higher_rate_flow_gets_more_service() {
        let mut q = VirtualClock::new(100_000.0);
        install(&mut q, 1, 300_000.0);
        install(&mut q, 2, 100_000.0);
        let t = SimTime::ZERO;
        for s in 0..20 {
            q.enqueue(t, pkt(1, s), ctx(t));
            q.enqueue(t, pkt(2, s), ctx(t));
        }
        let mut first_twelve = [0u32; 3];
        for _ in 0..12 {
            first_twelve[q.dequeue(t).unwrap().packet.flow.0 as usize] += 1;
        }
        assert!(first_twelve[1] >= 8, "{first_twelve:?}");
    }

    #[test]
    fn idle_flow_stamp_catches_up_to_real_time() {
        let mut q = VirtualClock::new(1_000_000.0);
        // A packet sent long after the flow's last activity is stamped
        // relative to `now`, not relative to the stale auxiliary clock.
        q.enqueue(SimTime::ZERO, pkt(1, 0), ctx(SimTime::ZERO));
        let _ = q.dequeue(SimTime::ZERO);
        q.enqueue(
            SimTime::from_secs(10),
            pkt(1, 1),
            ctx(SimTime::from_secs(10)),
        );
        q.enqueue(
            SimTime::from_secs(10),
            pkt(2, 0),
            ctx(SimTime::from_secs(10)),
        );
        // Flow 2's very first packet gets stamp 10.001 as well; tie broken
        // by flow id, so flow 1 first — the point is flow 1 is not stamped
        // at 0.002 (which would always win) nor punished into the future.
        let a = q.dequeue(SimTime::from_secs(10)).unwrap();
        let b = q.dequeue(SimTime::from_secs(10)).unwrap();
        assert_eq!(a.packet.flow, FlowId(1));
        assert_eq!(b.packet.flow, FlowId(2));
    }

    #[test]
    fn accessors() {
        let mut q = VirtualClock::new(50_000.0);
        assert_eq!(rate(&q, 1), None);
        q.enqueue(SimTime::ZERO, pkt(1, 0), ctx(SimTime::ZERO));
        assert_eq!(rate(&q, 1), Some(50_000.0));
        install(&mut q, 1, 80_000.0);
        assert_eq!(rate(&q, 1), Some(80_000.0));
        assert_eq!(q.name(), "VirtualClock");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_flow_recycles_lane_and_resets_clock() {
        let mut q = VirtualClock::new(100_000.0);
        let t = SimTime::ZERO;
        install(&mut q, 1, 400_000.0);
        // Ten packets push flow 1's auxiliary clock 25 ms ahead.
        for s in 0..10 {
            q.enqueue(t, pkt(1, s), ctx(t));
        }
        while q.dequeue(t).is_some() {}
        assert!(q.remove_flow(t, FlowId(1)));
        assert_eq!(rate(&q, 1), None);
        assert!(!q.remove_flow(t, FlowId(1)));
        // Back after teardown: the default rate and a fresh clock, so its
        // 10 ms stamp ties with newcomer flow 2's instead of trailing it.
        q.enqueue(t, pkt(1, 10), ctx(t));
        q.enqueue(t, pkt(2, 0), ctx(t));
        assert_eq!(rate(&q, 1), Some(100_000.0));
        assert_eq!(q.dequeue(t).unwrap().packet.flow, FlowId(1));
    }

    #[test]
    fn remove_backlogged_flow_drains_then_frees() {
        let mut q = VirtualClock::new(100_000.0);
        let t = SimTime::ZERO;
        install(&mut q, 1, 400_000.0);
        q.enqueue(t, pkt(1, 0), ctx(t));
        q.enqueue(t, pkt(1, 1), ctx(t));
        assert!(q.remove_flow(t, FlowId(1)));
        // Still drains in order at the original stamps and rate…
        assert_eq!(q.dequeue(t).unwrap().packet.seq, 0);
        assert_eq!(rate(&q, 1), Some(400_000.0));
        assert_eq!(q.dequeue(t).unwrap().packet.seq, 1);
        // …and the registration is gone once the backlog is served.
        assert_eq!(rate(&q, 1), None);
    }

    #[test]
    fn set_rate_on_a_draining_flow_keeps_the_new_rate() {
        let mut q = VirtualClock::new(100_000.0);
        let t = SimTime::ZERO;
        install(&mut q, 1, 500_000.0);
        q.enqueue(t, pkt(1, 0), ctx(t));
        assert!(q.remove_flow(t, FlowId(1)));
        // Registered again before the backlog drained: the retire is off.
        install(&mut q, 1, 300_000.0);
        assert!(q.dequeue(t).is_some());
        assert_eq!(rate(&q, 1), Some(300_000.0));
    }
}
