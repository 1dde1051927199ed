//! Trace replay: a source that emits packets at an explicit list of times.
//!
//! Useful for regression tests (exact arrival patterns), for replaying a
//! recorded generation process through different disciplines, and for the
//! `b(r)` traffic-characterization examples.

use ispn_core::{FlowId, Packet};
use ispn_net::{Agent, AgentApi};
use ispn_sim::SimTime;

/// A source that replays a fixed schedule of `(time, size_bits)` packets.
pub struct TraceSource {
    flow: FlowId,
    schedule: Vec<(SimTime, u64)>,
    next: usize,
    seq: u64,
}

impl TraceSource {
    /// Create a trace source.  The schedule must be sorted by time.
    pub fn new(flow: FlowId, schedule: Vec<(SimTime, u64)>) -> Self {
        assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "trace must be sorted by time"
        );
        TraceSource {
            flow,
            schedule,
            next: 0,
            seq: 0,
        }
    }

    fn arm(&self, api: &mut AgentApi) {
        if let Some(&(t, _)) = self.schedule.get(self.next) {
            api.set_timer(t.saturating_sub(api.now()), 0);
        }
    }
}

impl Agent for TraceSource {
    fn start(&mut self, api: &mut AgentApi) {
        self.arm(api);
    }

    fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
        // Emit every packet scheduled at (or before) the current time.
        let now = api.now();
        while let Some(&(t, bits)) = self.schedule.get(self.next) {
            if t > now {
                break;
            }
            api.send(Packet::data(self.flow, self.seq, bits, now));
            self.seq += 1;
            self.next += 1;
        }
        self.arm(api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_alone;

    #[test]
    fn replays_exact_schedule() {
        let times = vec![
            (SimTime::from_millis(1), 1000),
            (SimTime::from_millis(1), 1000),
            (SimTime::from_millis(50), 1000),
        ];
        let (r, _) = run_alone(1e6, 1, |flow| TraceSource::new(flow, times));
        assert_eq!(r.generated, 3);
        assert_eq!(r.delivered, 3);
        // Two simultaneous packets: the second one waits one packet time.
        assert!((r.max_delay - 0.001).abs() < 1e-9);
    }

    #[test]
    fn mixed_sizes_supported() {
        let (_, received) = run_alone(1e6, 1, |flow| {
            TraceSource::new(
                flow,
                vec![(SimTime::ZERO, 500), (SimTime::from_millis(10), 2000)],
            )
        });
        let sizes: Vec<u64> = received.iter().map(|p| p.size_bits).collect();
        assert_eq!(sizes, [500, 2000]);
    }

    #[test]
    #[should_panic]
    fn unsorted_trace_rejected() {
        let _ = TraceSource::new(
            FlowId(0),
            vec![
                (SimTime::from_millis(5), 1000),
                (SimTime::from_millis(1), 1000),
            ],
        );
    }
}
