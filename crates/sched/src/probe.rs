//! A transparent instrumentation wrapper around any queue discipline.
//!
//! [`Probed`] delegates every [`QueueDiscipline`] method to the wrapped
//! discipline unchanged — same packets, same order, same `name()`, so
//! reports and goldens cannot tell it is there — while counting enqueues
//! and dequeues per service class and tracking the peak queue depth.  The
//! switch in `ispn-net` wraps every output port's discipline in one of
//! these, which is how per-link telemetry reaches `ScenarioReport` without
//! any discipline knowing about counters.

use ispn_core::ServiceClass;
use ispn_sim::SimTime;
use ispn_telemetry::{
    Counter, HighWater, PerClass, CLASS_DATAGRAM, CLASS_GUARANTEED, CLASS_PREDICTED,
};

use crate::disc::{Dequeued, GuaranteedInstall, QueueDiscipline, SchedContext};

/// The telemetry bucket a service class is counted under (predicted
/// priorities are pooled — the per-priority split already lives in the
/// measurement `Monitor`).
pub fn class_bucket(class: ServiceClass) -> usize {
    match class {
        ServiceClass::Guaranteed => CLASS_GUARANTEED,
        ServiceClass::Predicted { .. } => CLASS_PREDICTED,
        ServiceClass::Datagram => CLASS_DATAGRAM,
    }
}

/// The counters one [`Probed`] wrapper has accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Packets accepted into the queue, per class bucket.
    pub enqueued: PerClass<Counter>,
    /// Packets handed back for transmission, per class bucket.
    pub dequeued: PerClass<Counter>,
    /// The deepest the queue ever was (in packets).
    pub depth_high_water: HighWater,
}

/// A [`QueueDiscipline`] that counts what passes through an inner one.
#[derive(Debug)]
pub struct Probed<D> {
    inner: D,
    stats: ProbeStats,
}

impl<D: QueueDiscipline> Probed<D> {
    /// Wrap `inner`; the probe starts with all counters at zero.
    pub fn new(inner: D) -> Self {
        Probed {
            inner,
            stats: ProbeStats::default(),
        }
    }

    /// The accumulated counters.
    pub fn stats(&self) -> &ProbeStats {
        &self.stats
    }

    /// The wrapped discipline.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: QueueDiscipline> QueueDiscipline for Probed<D> {
    // The probe adds no allocation or indirection on top of the inner
    // discipline — with `Discipline` enum dispatch inside, the whole stack
    // inlines down to a counter bump plus a direct call.
    #[inline]
    fn enqueue(&mut self, now: SimTime, packet: ispn_core::Packet, ctx: SchedContext) {
        self.stats
            .enqueued
            .bucket_mut(class_bucket(ctx.class))
            .incr();
        self.inner.enqueue(now, packet, ctx);
        self.stats.depth_high_water.observe(self.inner.len() as u64);
    }

    #[inline]
    fn dequeue(&mut self, now: SimTime) -> Option<Dequeued> {
        let d = self.inner.dequeue(now);
        if let Some(d) = &d {
            self.stats.dequeued.bucket_mut(class_bucket(d.class)).incr();
        }
        d
    }

    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn install_guaranteed(&mut self, flow: ispn_core::FlowId, rate_bps: f64) -> GuaranteedInstall {
        self.inner.install_guaranteed(flow, rate_bps)
    }

    fn remove_flow(&mut self, now: SimTime, flow: ispn_core::FlowId) -> bool {
        self.inner.remove_flow(now, flow)
    }

    fn state_bytes(&self) -> u64 {
        self.inner.state_bytes()
    }

    fn reservation_bytes(&self) -> u64 {
        self.inner.reservation_bytes()
    }

    fn pool_grow_events(&self) -> u64 {
        self.inner.pool_grow_events()
    }

    fn pool_segments_high_water(&self) -> u64 {
        self.inner.pool_segments_high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::Fifo;
    use ispn_core::{FlowId, Packet};

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(0), seq, 1000, SimTime::ZERO)
    }

    #[test]
    fn probe_is_transparent() {
        let mut probed = Probed::new(Fifo::new());
        assert_eq!(probed.name(), Fifo::new().name());
        probed.enqueue(SimTime::ZERO, pkt(0), SchedContext::datagram(SimTime::ZERO));
        probed.enqueue(SimTime::ZERO, pkt(1), SchedContext::datagram(SimTime::ZERO));
        assert_eq!(probed.len(), 2);
        let d = probed
            .dequeue(SimTime::MILLISECOND)
            .expect("fifo has packets");
        assert_eq!(d.packet.seq, 0);
        assert_eq!(probed.len(), 1);
        assert!(!probed.is_empty());
    }

    #[test]
    fn probe_counts_per_class_and_tracks_depth() {
        let mut probed = Probed::new(Fifo::new());
        let classes = [
            ServiceClass::Guaranteed,
            ServiceClass::Predicted { priority: 0 },
            ServiceClass::Predicted { priority: 2 },
            ServiceClass::Datagram,
        ];
        for (i, class) in classes.iter().enumerate() {
            probed.enqueue(
                SimTime::ZERO,
                pkt(i as u64),
                SchedContext::new(*class, SimTime::ZERO),
            );
        }
        let s = probed.stats();
        assert_eq!(s.enqueued.bucket(CLASS_GUARANTEED).get(), 1);
        assert_eq!(s.enqueued.bucket(CLASS_PREDICTED).get(), 2);
        assert_eq!(s.enqueued.bucket(CLASS_DATAGRAM).get(), 1);
        assert_eq!(s.depth_high_water.get(), 4);
        while probed.dequeue(SimTime::SECOND).is_some() {}
        let s = probed.stats();
        assert_eq!(s.dequeued.total(), 4);
        // Draining does not lower the peak.
        assert_eq!(s.depth_high_water.get(), 4);
    }

    #[test]
    fn probe_delegates_guaranteed_install_and_removal() {
        let mut probed = Probed::new(Fifo::new());
        assert_eq!(
            probed.install_guaranteed(FlowId(3), 1000.0),
            GuaranteedInstall::Unsupported
        );
        assert!(!probed.remove_flow(SimTime::ZERO, FlowId(3)));
    }
}
