//! Constant-bit-rate source.
//!
//! The archetypal "rigid" real-time source (Section 2.2 notes the common
//! misconception that real-time sources *must* look like this); used by the
//! guaranteed-service examples and as a well-behaved control in tests.

use ispn_core::{FlowId, Packet};
use ispn_net::{Agent, AgentApi};
use ispn_sim::SimTime;

/// A source that emits one fixed-size packet every `interval`.
pub struct CbrSource {
    flow: FlowId,
    packet_bits: u64,
    interval: SimTime,
    start_offset: SimTime,
    seq: u64,
}

impl CbrSource {
    /// Create a CBR source emitting `rate_pps` packets per second.
    pub fn new(flow: FlowId, rate_pps: f64, packet_bits: u64) -> Self {
        assert!(rate_pps > 0.0);
        assert!(packet_bits > 0);
        CbrSource {
            flow,
            packet_bits,
            interval: SimTime::from_secs_f64(1.0 / rate_pps),
            start_offset: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Delay the first packet by `offset` (to de-synchronize several CBR
    /// sources).
    pub fn with_start_offset(mut self, offset: SimTime) -> Self {
        self.start_offset = offset;
        self
    }
}

impl Agent for CbrSource {
    fn start(&mut self, api: &mut AgentApi) {
        api.set_timer(self.start_offset, 0);
    }

    fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
        let now = api.now();
        let seq = crate::take_seq(&mut self.seq);
        api.send(Packet::data(self.flow, seq, self.packet_bits, now));
        api.set_timer(self.interval, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_alone;

    #[test]
    fn emits_at_the_configured_rate() {
        let (report, _) = run_alone(1e6, 10, |flow| CbrSource::new(flow, 100.0, 1000));
        // 100 pps for 10 s = roughly 1000 packets (first at t=0).
        let n = report.generated;
        assert!((990..=1001).contains(&n), "submitted {n}");
        assert_eq!(report.delivered, n);
        // A lone CBR source sees no queueing at all.
        assert!(report.max_delay < 1e-9);
    }

    #[test]
    fn start_offset_shifts_the_first_packet() {
        let (report, _) = run_alone(1e6, 1, |flow| {
            CbrSource::new(flow, 10.0, 1000).with_start_offset(SimTime::from_millis(950))
        });
        assert_eq!(report.generated, 1);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let _ = CbrSource::new(FlowId(0), 0.0, 1000);
    }
}
