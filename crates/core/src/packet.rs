//! The packet format.
//!
//! The architecture needs only a handful of header fields beyond what any
//! datagram network carries: the flow identity (so switches can map a
//! packet to its service commitment), a conformance tag (set by the edge
//! policer of Section 8), and the accumulated jitter offset used by FIFO+
//! (Section 6).  The transport kind and sequence/ack numbers exist so the
//! simplified TCP used as datagram background traffic in Table 3 can run
//! over the same packet type.

use ispn_sim::SimTime;

/// Identifier of a flow (a simplex source → destination stream with one
/// service commitment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The numeric index of the flow.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// Conformance tag stamped by the edge policer.
///
/// Section 8: "Each predicted service flow is checked at the edge of the
/// network … for conformance to its declared token bucket filter;
/// nonconforming packets are dropped or tagged."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Conformance {
    /// The packet was within its flow's declared traffic filter.
    #[default]
    Conforming,
    /// The packet exceeded the filter but was forwarded anyway; switches may
    /// treat it as datagram traffic or drop it first under overload.
    Tagged,
}

/// What the packet carries, as far as the transport layer is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PacketKind {
    /// Ordinary data (real-time media samples, or TCP segments).
    #[default]
    Data,
    /// A cumulative acknowledgement for every sequence number `< ack`.
    Ack {
        /// The next sequence number expected by the receiver.
        ack: u64,
    },
}

/// A packet in flight.
///
/// Sizes are in bits because the paper specifies link speeds in bits per
/// second and packet sizes in bits (1000-bit packets over 1 Mbit/s links).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Per-flow sequence number, assigned by the source in generation order.
    pub seq: u64,
    /// Size in bits, including headers.
    pub size_bits: u64,
    /// Generation time at the source.
    pub created_at: SimTime,
    /// Accumulated FIFO+ jitter offset in nanoseconds: positive means the
    /// packet has so far experienced *more* queueing than its class average
    /// and should be treated as if it had arrived earlier at later hops.
    pub jitter_offset_ns: i64,
    /// Conformance tag set by the edge policer.
    pub tag: Conformance,
    /// Transport-level interpretation of the payload.
    pub kind: PacketKind,
    /// Index into the flow's route of the next link to traverse; incremented
    /// each time the packet is put on the wire.  When it equals the route
    /// length the packet has reached its destination.  Carrying the hop in
    /// the header keeps the forwarding path free of per-node lookup tables
    /// (the real architecture would derive it from the receiving interface).
    pub hop: u32,
}

impl Packet {
    /// Create a data packet.
    pub fn data(flow: FlowId, seq: u64, size_bits: u64, created_at: SimTime) -> Self {
        Packet {
            flow,
            seq,
            size_bits,
            created_at,
            jitter_offset_ns: 0,
            tag: Conformance::Conforming,
            kind: PacketKind::Data,
            hop: 0,
        }
    }

    /// Create an acknowledgement packet.
    pub fn ack(flow: FlowId, seq: u64, ack: u64, size_bits: u64, created_at: SimTime) -> Self {
        Packet {
            flow,
            seq,
            size_bits,
            created_at,
            jitter_offset_ns: 0,
            tag: Conformance::Conforming,
            kind: PacketKind::Ack { ack },
            hop: 0,
        }
    }

    /// Add `delta` (may be negative) to the FIFO+ jitter offset.
    ///
    /// The offset accumulates, at each hop, the difference between the
    /// queueing delay this packet experienced and the average queueing delay
    /// of its class at that hop (Section 6).
    pub fn accumulate_offset(&mut self, delta_ns: i64) {
        self.jitter_offset_ns = self.jitter_offset_ns.saturating_add(delta_ns);
    }

    /// The "expected arrival time" at a switch for FIFO+ ordering: the
    /// actual arrival time minus the accumulated offset.  A packet that has
    /// been unlucky so far (positive offset) is scheduled as if it had
    /// arrived earlier.
    pub fn expected_arrival(&self, actual_arrival: SimTime) -> SimTime {
        let ns = actual_arrival.as_nanos() as i128 - self.jitter_offset_ns as i128;
        if ns <= 0 {
            SimTime::ZERO
        } else if ns >= u64::MAX as i128 {
            SimTime::MAX
        } else {
            SimTime::from_nanos(ns as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_defaults() {
        let p = Packet::data(FlowId(3), 7, 1000, SimTime::from_millis(5));
        assert_eq!(p.flow, FlowId(3));
        assert_eq!(p.seq, 7);
        assert_eq!(p.size_bits, 1000);
        assert_eq!(p.jitter_offset_ns, 0);
        assert_eq!(p.tag, Conformance::Conforming);
        assert_eq!(p.kind, PacketKind::Data);
    }

    #[test]
    fn ack_packet_carries_cumulative_ack() {
        let p = Packet::ack(FlowId(1), 2, 10, 320, SimTime::ZERO);
        assert_eq!(p.kind, PacketKind::Ack { ack: 10 });
    }

    #[test]
    fn offset_accumulates_in_both_directions() {
        let mut p = Packet::data(FlowId(0), 0, 1000, SimTime::ZERO);
        p.accumulate_offset(500);
        p.accumulate_offset(-200);
        assert_eq!(p.jitter_offset_ns, 300);
    }

    #[test]
    fn expected_arrival_shifts_by_offset() {
        let mut p = Packet::data(FlowId(0), 0, 1000, SimTime::ZERO);
        let arrival = SimTime::from_millis(10);
        assert_eq!(p.expected_arrival(arrival), arrival);
        // A packet with positive offset (worse-than-average so far) looks
        // like it arrived earlier.
        p.jitter_offset_ns = 2_000_000; // 2 ms
        assert_eq!(p.expected_arrival(arrival), SimTime::from_millis(8));
        // Negative offset (better than average) looks later.
        p.jitter_offset_ns = -3_000_000;
        assert_eq!(p.expected_arrival(arrival), SimTime::from_millis(13));
    }

    #[test]
    fn expected_arrival_clamps_at_zero() {
        let mut p = Packet::data(FlowId(0), 0, 1000, SimTime::ZERO);
        p.jitter_offset_ns = i64::MAX;
        assert_eq!(p.expected_arrival(SimTime::from_millis(1)), SimTime::ZERO);
    }

    #[test]
    fn flow_id_display_and_index() {
        assert_eq!(FlowId(5).to_string(), "flow5");
        assert_eq!(FlowId(5).index(), 5);
    }

    #[test]
    fn tagging() {
        // The edge policer's mark changes nothing a scheduler orders by.
        let mut p = Packet::data(FlowId(0), 0, 1000, SimTime::ZERO);
        p.accumulate_offset(2_000_000);
        let untagged = p;
        p.tag = Conformance::Tagged;
        assert_ne!(p.tag, untagged.tag);
        let at = SimTime::from_millis(10);
        assert_eq!(p.expected_arrival(at), untagged.expected_arrival(at));
    }
}
