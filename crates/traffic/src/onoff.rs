//! The two-state Markov on/off source of the paper's Appendix.
//!
//! "The sources of real-time traffic are two-state Markov processes.  In
//! each burst period, a geometrically distributed random number of packets
//! are generated at some peak rate P; B is the average size of this burst.
//! After the burst has been generated, the source remains idle for some
//! exponentially distributed random time period; I denotes the average
//! length of an idle period.  The average rate of packet generation A is
//! given by A⁻¹ = I/B + 1/P. … we chose B = 5 and set P = 2A … Each traffic
//! source was then subjected to an (A, 50) token bucket filter … and any
//! nonconforming packets were dropped at the source; in our simulations
//! about 2% of the packets were dropped, so the true average rate was
//! around 0.98·A."

use ispn_core::{FlowId, Packet, TokenBucket, TokenBucketSpec};
use ispn_net::{Agent, AgentApi};
use ispn_sim::{Pcg64, SimTime};

/// Parameters of an on/off source.
#[derive(Debug, Clone)]
pub struct OnOffConfig {
    /// Average packet generation rate A in packets per second.
    pub avg_rate_pps: f64,
    /// Peak rate P in packets per second (the paper uses P = 2A).
    pub peak_rate_pps: f64,
    /// Mean burst length B in packets (the paper uses 5).
    pub mean_burst_pkts: f64,
    /// Packet size in bits (the paper uses 1000).
    pub packet_bits: u64,
    /// Source-side policer; `None` disables policing.
    pub policer: Option<TokenBucketSpec>,
    /// Offset of the first burst from simulation start (used to
    /// de-synchronize sources; the paper's flows are statistically
    /// independent).
    pub start_offset: SimTime,
    /// Seed for this source's private random stream.
    pub seed: u64,
}

impl OnOffConfig {
    /// The exact source of the paper's Appendix: peak rate `2A`, mean burst
    /// 5 packets, 1000-bit packets, an `(A, 50-packet)` drop policer, and a
    /// start offset drawn uniformly from one average inter-burst cycle.
    pub fn paper(avg_rate_pps: f64, seed: u64) -> Self {
        let packet_bits = 1000;
        let mut rng = Pcg64::new(seed ^ 0x5EED_0FF5E7);
        // One full burst+idle cycle lasts B/A seconds on average.
        let cycle = 5.0 / avg_rate_pps;
        let start_offset = SimTime::from_secs_f64(rng.next_f64() * cycle);
        OnOffConfig {
            avg_rate_pps,
            peak_rate_pps: 2.0 * avg_rate_pps,
            mean_burst_pkts: 5.0,
            packet_bits,
            policer: Some(TokenBucketSpec::per_packets(
                avg_rate_pps,
                50.0,
                packet_bits,
            )),
            start_offset,
            seed,
        }
    }

    /// Mean idle period I implied by the configuration: `I = B(1/A − 1/P)`.
    pub fn mean_idle_secs(&self) -> f64 {
        self.mean_burst_pkts * (1.0 / self.avg_rate_pps - 1.0 / self.peak_rate_pps)
    }

    fn validate(&self) {
        assert!(self.avg_rate_pps > 0.0);
        assert!(
            self.peak_rate_pps >= self.avg_rate_pps,
            "peak rate must be at least the average rate"
        );
        assert!(self.mean_burst_pkts >= 1.0);
        assert!(self.packet_bits > 0);
    }
}

/// The on/off source agent.
pub struct OnOffSource {
    flow: FlowId,
    config: OnOffConfig,
    rng: Pcg64,
    policer: Option<TokenBucket>,
    /// The peak-rate packet spacing, `1 / P` to the nanosecond.
    peak_gap: SimTime,
    /// [`OnOffConfig::mean_idle_secs`], computed once.
    mean_idle_secs: f64,
    /// Packets remaining in the current burst (0 = idle).
    remaining_in_burst: u64,
    seq: u64,
}

impl OnOffSource {
    /// Create a source feeding `flow`.
    pub fn new(flow: FlowId, config: OnOffConfig) -> Self {
        config.validate();
        let policer = config.policer.map(TokenBucket::new);
        OnOffSource {
            flow,
            rng: Pcg64::new(config.seed),
            policer,
            peak_gap: SimTime::from_secs_f64(1.0 / config.peak_rate_pps),
            mean_idle_secs: config.mean_idle_secs(),
            config,
            remaining_in_burst: 0,
            seq: 0,
        }
    }

    /// The flow this source feeds.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    fn emit_one(&mut self, api: &mut AgentApi) {
        let now = api.now();
        // A policer drop still takes its sequence number: the gap is how
        // a receiver sees it.
        let seq = crate::take_seq(&mut self.seq);
        let conforms = match self.policer.as_mut() {
            Some(tb) => tb.offer(now, self.config.packet_bits),
            None => true,
        };
        if conforms {
            api.send(Packet::data(self.flow, seq, self.config.packet_bits, now));
        }
    }
}

impl Agent for OnOffSource {
    fn start(&mut self, api: &mut AgentApi) {
        api.set_timer(self.config.start_offset, 0);
    }

    fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
        if self.remaining_in_burst == 0 {
            // A new burst begins now.
            self.remaining_in_burst = self.rng.geometric(self.config.mean_burst_pkts);
        }
        self.emit_one(api);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "a burst draws at least one packet, so the count is positive before this packet's decrement"
        )]
        let left = self.remaining_in_burst - 1;
        self.remaining_in_burst = left;
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "`SimTime`'s `+` saturates at the end of time, by type"
        )]
        let next = if left > 0 {
            self.peak_gap
        } else {
            // The burst is over: idle for an exponential period (measured
            // after the last packet's peak-rate slot; a draw past
            // `SimTime::MAX` saturates).
            self.peak_gap + SimTime::from_secs_f64(self.rng.exponential(self.mean_idle_secs))
        };
        api.set_timer(next, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_alone;

    const PKT: u64 = 1000;

    /// What one on/off source did over `secs` seconds alone on a 10 Mbit/s
    /// link (never the bottleneck), read through the network.
    struct Run {
        /// Packets generated: one past the last delivered `seq` (a policer
        /// drop after the last delivery is not seen).
        generated: u64,
        /// Packets submitted, as the monitor counted them.
        submitted: u64,
        /// Packets delivered end to end.
        delivered: u64,
        /// Bursts started: a delivered packet whose generation time is later
        /// than its predecessor's by more than their `seq` distance at the
        /// peak-rate spacing opens a new burst.
        bursts: u64,
    }

    fn run_alone_onoff(config: OnOffConfig, secs: u64) -> Run {
        let peak_gap = SimTime::from_secs_f64(1.0 / config.peak_rate_pps);
        let (report, received) =
            run_alone(10_000_000.0, secs, |flow| OnOffSource::new(flow, config));
        let bursts = received
            .windows(2)
            .filter(|w| {
                let spacing = peak_gap.saturating_mul(w[1].seq - w[0].seq);
                w[1].created_at - w[0].created_at > spacing
            })
            .count() as u64
            + u64::from(!received.is_empty());
        Run {
            generated: received.last().map_or(0, |p| p.seq + 1),
            submitted: report.generated,
            delivered: report.delivered,
            bursts,
        }
    }

    #[test]
    fn paper_config_derived_quantities() {
        let c = OnOffConfig::paper(85.0, 1);
        assert_eq!(c.peak_rate_pps, 170.0);
        assert_eq!(c.mean_burst_pkts, 5.0);
        assert_eq!(c.packet_bits, 1000);
        // I = B/(2A) for P = 2A.
        assert!((c.mean_idle_secs() - 5.0 / 170.0).abs() < 1e-12);
        let p = c.policer.unwrap();
        assert_eq!(p.rate_bps, 85_000.0);
        assert_eq!(p.depth_bits, 50_000.0);
        // The start offset is within one mean cycle.
        assert!(c.start_offset.as_secs_f64() <= 5.0 / 85.0 + 1e-9);
    }

    #[test]
    fn average_rate_close_to_configured_a() {
        // 300 simulated seconds of the paper's A = 85 source: the carried
        // rate should be around 0.98·A (the policer removes ≈2 %).
        let st = run_alone_onoff(OnOffConfig::paper(85.0, 42), 300);
        let gen_rate = st.generated as f64 / 300.0;
        let sub_rate = st.submitted as f64 / 300.0;
        assert!(
            (gen_rate - 85.0).abs() / 85.0 < 0.05,
            "generated rate {gen_rate}"
        );
        assert!(
            sub_rate > 0.90 * 85.0 && sub_rate < 85.0,
            "submitted rate {sub_rate}"
        );
        // Policer drop rate in the low single-digit percent.
        let drop_rate = (st.generated - st.submitted) as f64 / st.generated as f64;
        assert!(drop_rate < 0.08, "drop rate {drop_rate}");
        assert!(drop_rate > 0.0, "the (A,50) policer should drop something");
        assert_eq!(st.delivered, st.submitted);
    }

    #[test]
    fn burst_lengths_have_mean_about_five() {
        let st = run_alone_onoff(OnOffConfig::paper(85.0, 7), 300);
        let mean_burst = st.generated as f64 / st.bursts as f64;
        assert!((mean_burst - 5.0).abs() < 0.5, "mean burst {mean_burst}");
    }

    #[test]
    fn unpoliced_source_submits_everything() {
        let mut c = OnOffConfig::paper(85.0, 3);
        c.policer = None;
        let st = run_alone_onoff(c, 100);
        assert_eq!(st.generated, st.submitted);
    }

    #[test]
    fn different_seeds_give_different_processes() {
        let a = run_alone_onoff(OnOffConfig::paper(85.0, 1), 50);
        let b = run_alone_onoff(OnOffConfig::paper(85.0, 2), 50);
        assert_ne!(a.generated, b.generated);
    }

    #[test]
    fn same_seed_is_reproducible() {
        let a = run_alone_onoff(OnOffConfig::paper(85.0, 9), 50);
        let b = run_alone_onoff(OnOffConfig::paper(85.0, 9), 50);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.submitted, b.submitted);
    }

    #[test]
    fn sequence_numbers_count_generated_packets() {
        let c = OnOffConfig {
            avg_rate_pps: 100.0,
            peak_rate_pps: 200.0,
            mean_burst_pkts: 1.0,
            packet_bits: PKT,
            policer: None,
            start_offset: SimTime::ZERO,
            seed: 5,
        };
        let st = run_alone_onoff(c, 10);
        assert_eq!(st.generated, st.delivered);
    }

    #[test]
    #[should_panic]
    fn peak_below_average_rejected() {
        let c = OnOffConfig {
            avg_rate_pps: 100.0,
            peak_rate_pps: 50.0,
            mean_burst_pkts: 5.0,
            packet_bits: PKT,
            policer: None,
            start_offset: SimTime::ZERO,
            seed: 0,
        };
        let _ = OnOffSource::new(FlowId(0), c);
    }
}
