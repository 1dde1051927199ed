//! The queue-discipline interface shared by every scheduler.
//!
//! A discipline owns the packets queued at one switch output port and
//! decides, each time the link becomes free, which packet to transmit next.
//! The switch (in `ispn-net`) handles everything else: routing, buffer
//! limits, starting transmissions, and measurement.

use std::collections::VecDeque;

use ispn_core::{Packet, ServiceClass};
use ispn_sim::SimTime;

/// Per-packet context the switch hands to the discipline at enqueue time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedContext {
    /// The service class this packet's flow receives *at this switch*
    /// (a predicted flow may sit in different priority classes at different
    /// switches — Section 7).
    pub class: ServiceClass,
    /// Arrival time at this output port.
    pub arrival: SimTime,
}

impl SchedContext {
    /// Convenience constructor.
    pub fn new(class: ServiceClass, arrival: SimTime) -> Self {
        SchedContext { class, arrival }
    }

    /// A datagram-class context (used widely in tests).
    #[cfg(test)]
    pub(crate) fn datagram(arrival: SimTime) -> Self {
        SchedContext {
            class: ServiceClass::Datagram,
            arrival,
        }
    }
}

/// Outcome of [`QueueDiscipline::install_guaranteed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuaranteedInstall {
    /// Per-flow reservation state was installed (or updated).
    Installed,
    /// The discipline keeps no per-flow guaranteed state (class-based
    /// disciplines like FIFO and FIFO+); nothing needed doing.  The switch
    /// may still carry the flow, it just cannot isolate it.
    Unsupported,
}

/// A packet handed back by [`QueueDiscipline::dequeue`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dequeued {
    /// The packet to transmit next.  Disciplines may have updated mutable
    /// header fields (FIFO+ updates the jitter offset here).
    pub packet: Packet,
    /// The packet's arrival time at this port (so the switch can compute the
    /// queueing delay without keeping its own map).
    pub arrival: SimTime,
    /// The class under which the packet was queued.
    pub class: ServiceClass,
}

impl Dequeued {
    /// The queueing (waiting) delay this packet experienced at this port if
    /// transmission starts at `now`.
    pub fn queueing_delay(&self, now: SimTime) -> SimTime {
        now.saturating_sub(self.arrival)
    }
}

/// A packet scheduling discipline for one output port.
///
/// Contract (checked by [`crate::conformance`]):
///
/// * every packet enqueued is eventually dequeued exactly once (no loss —
///   buffer management is the switch's job, not the discipline's),
/// * the discipline is work-conserving: `dequeue` returns `Some` whenever
///   `len() > 0`,
/// * `now` arguments are non-decreasing across calls.
pub trait QueueDiscipline {
    /// Accept a packet into the queue.
    fn enqueue(&mut self, now: SimTime, packet: Packet, ctx: SchedContext);

    /// Select and remove the next packet to transmit.
    fn dequeue(&mut self, now: SimTime) -> Option<Dequeued>;

    /// Number of packets currently queued.
    fn len(&self) -> usize;

    /// `true` if nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short human-readable name ("FIFO", "WFQ", …) used in experiment
    /// output.
    fn name(&self) -> &'static str;

    /// Install per-flow reservation state for a guaranteed flow with the
    /// given WFQ clock rate (Section 8: a guaranteed flow "only needs to
    /// specify the needed clock rate r").
    ///
    /// Never refuses: the caller (the network's reservation ledger) has
    /// checked that the rate is positive and fits the link.  Installing a
    /// flow again replaces its rate.  The default (for class-based
    /// disciplines) reports [`GuaranteedInstall::Unsupported`].
    fn install_guaranteed(&mut self, flow: ispn_core::FlowId, rate_bps: f64) -> GuaranteedInstall {
        let _ = (flow, rate_bps);
        GuaranteedInstall::Unsupported
    }

    /// Remove per-flow reservation state installed by
    /// [`install_guaranteed`](QueueDiscipline::install_guaranteed)
    /// (reservation teardown).  Returns `true` if state was removed.
    fn remove_flow(&mut self, now: SimTime, flow: ispn_core::FlowId) -> bool {
        let _ = (now, flow);
        false
    }

    /// Structural size, in bytes, of the per-flow scheduler state this
    /// discipline holds: slot tables, dense lane records, and queue
    /// storage (every queue at its full capacity).  A deterministic
    /// estimate — element counts × element sizes, never allocator
    /// measurements — matching the accounting rules of
    /// `Network::flow_table_bytes`, which sums this over every port.
    /// Stateless disciplines report 0.
    fn state_bytes(&self) -> u64 {
        0
    }

    /// Structural size, in bytes, of the per-flow *reservation* entries
    /// this discipline holds (clock rates installed through
    /// [`install_guaranteed`](QueueDiscipline::install_guaranteed) and
    /// the GPS bookkeeping behind them).  Same estimation rules as
    /// [`state_bytes`](QueueDiscipline::state_bytes); disciplines with no
    /// reservation state report 0.
    fn reservation_bytes(&self) -> u64 {
        0
    }

    /// Cumulative count of queue-storage growth events — pushes that found
    /// a queue at its capacity, every queue the discipline owns included.
    /// Flat between two instants means the discipline performed zero
    /// queue-storage allocations in between; disciplines that own no
    /// queue report 0.
    fn pool_grow_events(&self) -> u64 {
        0
    }

    /// Queue storage held, in 32-slot units: each queue's capacity, rounded
    /// up.  Queues keep their capacity when they drain, so this is also
    /// the high-water mark (0 for disciplines that own no queue).
    fn pool_segments_high_water(&self) -> u64 {
        0
    }
}

/// `queue.push_back(item)`, counting a push that finds the queue full in
/// `grown` — what [`QueueDiscipline::pool_grow_events`] counts.
#[inline]
pub(crate) fn push_counted<T>(queue: &mut VecDeque<T>, grown: &mut u64, item: T) {
    *grown += u64::from(queue.len() == queue.capacity());
    queue.push_back(item);
}

/// A queue capacity in the units of
/// [`QueueDiscipline::pool_segments_high_water`].
pub(crate) fn segments(capacity: usize) -> u64 {
    capacity.div_ceil(32) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::FlowId;

    #[test]
    fn dequeued_reports_queueing_delay() {
        let d = Dequeued {
            packet: Packet::data(FlowId(0), 0, 1000, SimTime::ZERO),
            arrival: SimTime::from_millis(10),
            class: ServiceClass::Datagram,
        };
        assert_eq!(
            d.queueing_delay(SimTime::from_millis(25)),
            SimTime::from_millis(15)
        );
        // Clock weirdness saturates rather than panicking.
        assert_eq!(d.queueing_delay(SimTime::from_millis(5)), SimTime::ZERO);
    }

    #[test]
    fn context_constructors() {
        let c = SchedContext::datagram(SimTime::from_millis(1));
        assert_eq!(c.class, ServiceClass::Datagram);
        let c = SchedContext::new(ServiceClass::Guaranteed, SimTime::ZERO);
        assert_eq!(c.class, ServiceClass::Guaranteed);
    }
}
