//! Poisson source: exponentially distributed inter-packet gaps.
//!
//! Used by the extension experiments and as the classic "smooth but random"
//! contrast to the Appendix's bursty on/off process.

use ispn_core::{FlowId, Packet};
use ispn_net::{Agent, AgentApi};
use ispn_sim::{Pcg64, SimTime};

/// A source whose packet inter-arrival times are i.i.d. exponential.
pub struct PoissonSource {
    flow: FlowId,
    packet_bits: u64,
    mean_gap_secs: f64,
    rng: Pcg64,
    seq: u64,
}

impl PoissonSource {
    /// Create a Poisson source with the given average rate.
    pub fn new(flow: FlowId, rate_pps: f64, packet_bits: u64, seed: u64) -> Self {
        assert!(rate_pps > 0.0);
        assert!(packet_bits > 0);
        PoissonSource {
            flow,
            packet_bits,
            mean_gap_secs: 1.0 / rate_pps,
            rng: Pcg64::new(seed),
            seq: 0,
        }
    }
}

impl Agent for PoissonSource {
    fn start(&mut self, api: &mut AgentApi) {
        let gap = self.rng.exponential(self.mean_gap_secs);
        api.set_timer(SimTime::from_secs_f64(gap), 0);
    }

    fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
        let now = api.now();
        let seq = crate::take_seq(&mut self.seq);
        api.send(Packet::data(self.flow, seq, self.packet_bits, now));
        let gap = self.rng.exponential(self.mean_gap_secs);
        api.set_timer(SimTime::from_secs_f64(gap), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_alone;

    #[test]
    fn long_run_rate_matches_configuration() {
        let (report, _) = run_alone(1e7, 100, |flow| PoissonSource::new(flow, 200.0, 1000, 11));
        let rate = report.generated as f64 / 100.0;
        assert!((rate - 200.0).abs() / 200.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let (report, _) = run_alone(1e7, 20, |flow| PoissonSource::new(flow, 50.0, 1000, seed));
            report.generated
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }
}
