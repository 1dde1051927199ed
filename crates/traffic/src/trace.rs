//! Trace replay: a source that emits packets at an explicit list of times.
//!
//! Useful for regression tests (exact arrival patterns), for replaying a
//! recorded generation process through different disciplines, and for the
//! `b(r)` traffic-characterization examples.

use std::iter::{Enumerate, Peekable};
use std::vec;

use ispn_core::{FlowId, Packet};
use ispn_net::{Agent, AgentApi};
use ispn_sim::SimTime;

/// A source that replays a fixed schedule of `(time, size_bits)` packets.
pub struct TraceSource {
    flow: FlowId,
    /// The packets not yet sent, each numbered by its place in the schedule
    /// (its `seq`).
    schedule: Peekable<Enumerate<vec::IntoIter<(SimTime, u64)>>>,
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
            schedule: schedule.into_iter().enumerate().peekable(),
        }
    }

    fn arm(&mut self, api: &mut AgentApi) {
        if let Some(&(_, (t, _))) = self.schedule.peek() {
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
        while let Some((seq, (_, bits))) = self.schedule.next_if(|&(_, (t, _))| t <= now) {
            api.send(Packet::data(self.flow, seq as u64, bits, now));
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
