//! The Appendix constants, in one place.

use ispn_sim::SimTime;

/// Global parameters of the paper's simulations.
#[derive(Debug, Clone)]
pub struct PaperConfig {
    /// Inter-switch link speed (1 Mbit/s in the paper).
    pub link_rate_bps: f64,
    /// Packet size (1000 bits in the paper).
    pub packet_bits: u64,
    /// Switch output buffer (200 packets in the paper).
    pub buffer_packets: usize,
    /// Length of the simulated run (10 minutes in the paper).
    pub duration: SimTime,
    /// Average generation rate A of every on/off source (85 pkt/s).
    pub avg_rate_pps: f64,
    /// Base seed; per-flow seeds are derived from it.
    pub seed: u64,
}

impl Default for PaperConfig {
    fn default() -> Self {
        PaperConfig {
            link_rate_bps: 1_000_000.0,
            packet_bits: 1000,
            buffer_packets: 200,
            duration: SimTime::from_secs(600),
            avg_rate_pps: 85.0,
            seed: 0x1992_5160,
        }
    }
}

impl PaperConfig {
    /// The full configuration used by the paper.
    pub fn paper() -> Self {
        PaperConfig::default()
    }

    /// A shortened configuration for unit and integration tests: identical
    /// parameters but a much shorter run.
    pub fn fast() -> Self {
        PaperConfig {
            duration: SimTime::from_secs(40),
            ..PaperConfig::default()
        }
    }

    /// A medium-length configuration (used by extension experiments whose
    /// sweep repeats many runs).
    pub fn medium() -> Self {
        PaperConfig {
            duration: SimTime::from_secs(150),
            ..PaperConfig::default()
        }
    }

    /// The per-packet transmission time — the unit every delay in the
    /// paper's tables is expressed in (1 ms for the default parameters).
    pub fn packet_time(&self) -> SimTime {
        ispn_sim::time::transmission_time(self.packet_bits, self.link_rate_bps)
    }

    /// The per-flow seed for flow number `i`.
    pub fn flow_seed(&self, i: u32) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_the_appendix() {
        let c = PaperConfig::paper();
        assert_eq!(c.link_rate_bps, 1_000_000.0);
        assert_eq!(c.packet_bits, 1000);
        assert_eq!(c.buffer_packets, 200);
        assert_eq!(c.duration, SimTime::from_secs(600));
        assert_eq!(c.avg_rate_pps, 85.0);
        assert_eq!(c.packet_time(), SimTime::MILLISECOND);
    }

    #[test]
    fn packet_time_conversion() {
        let c = PaperConfig {
            packet_bits: 500,
            ..PaperConfig::paper()
        };
        assert_eq!(c.packet_time(), SimTime::from_micros(500));
    }

    #[test]
    fn flow_seeds_are_distinct() {
        let c = PaperConfig::paper();
        let seeds: std::collections::BTreeSet<u64> = (0..100).map(|i| c.flow_seed(i)).collect();
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn fast_config_only_changes_duration() {
        let f = PaperConfig::fast();
        let p = PaperConfig::paper();
        assert!(f.duration < p.duration);
        assert_eq!(f.avg_rate_pps, p.avg_rate_pps);
    }
}
