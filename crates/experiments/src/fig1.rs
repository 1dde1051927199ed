//! The Figure-1 topology and its 22-flow placement.
//!
//! "This network has four equivalent 1 Mbit/sec inter-switch links, and each
//! link is shared by 10 flows.  There are, in total, 22 flows; all of them
//! have the same statistical generation process but they travel different
//! network paths.  12 traverse only one inter-switch link, 4 traverse two
//! inter-switch links, 4 traverse three inter-switch links, and 2 traverse
//! all four inter-switch links."
//!
//! The paper does not publish the exact placement, so [`placement`] fixes one
//! that satisfies every stated constraint — including, for Table 3, the
//! per-link mix of 2 Guaranteed-Peak, 1 Guaranteed-Average, 3 Predicted-High
//! and 4 Predicted-Low real-time flows plus one datagram TCP connection —
//! and the tests in this module verify it.

use ispn_net::{LinkId, NodeId, Topology};
use ispn_scenario::sweep::wire;
use ispn_scenario::{JsonValue, LinkProfile, TopologySpec, WireError, WireResult};
use ispn_sim::SimTime;

use crate::config::PaperConfig;

/// Number of inter-switch links in Figure 1.
pub const NUM_LINKS: usize = 4;
/// Number of real-time flows in Figure 1.
pub const NUM_FLOWS: usize = 22;
/// Real-time flows sharing each inter-switch link.
pub const FLOWS_PER_LINK: usize = 10;

/// The Table-3 class of a real-time flow (Table 2 ignores the distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowKind {
    /// Guaranteed service with clock rate equal to the source's peak rate.
    GuaranteedPeak,
    /// Guaranteed service with clock rate equal to the source's average rate.
    GuaranteedAverage,
    /// Predicted service in the high-priority class.
    PredictedHigh,
    /// Predicted service in the low-priority class.
    PredictedLow,
}

impl FlowKind {
    /// Display label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            FlowKind::GuaranteedPeak => "Guaranteed-Peak",
            FlowKind::GuaranteedAverage => "Guaranteed-Average",
            FlowKind::PredictedHigh => "Predicted-High",
            FlowKind::PredictedLow => "Predicted-Low",
        }
    }

    /// `true` for the two guaranteed kinds.
    pub fn is_guaranteed(self) -> bool {
        matches!(self, FlowKind::GuaranteedPeak | FlowKind::GuaranteedAverage)
    }
}

/// A kind crosses the wire as its printed label; a label no kind prints
/// is a schema error.
impl WireResult for FlowKind {
    fn write_wire(&self, out: &mut String) {
        wire::write_str(self.label(), out);
    }

    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        let label = value.as_str()?;
        [
            FlowKind::GuaranteedPeak,
            FlowKind::GuaranteedAverage,
            FlowKind::PredictedHigh,
            FlowKind::PredictedLow,
        ]
        .into_iter()
        .find(|kind| kind.label() == label)
        .ok_or_else(|| WireError::new(format!("unknown flow kind {label:?}")))
    }
}

/// Where one real-time flow enters the chain and how many links it crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPlacement {
    /// Table-3 class.
    pub kind: FlowKind,
    /// Index (0-based) of the first inter-switch link the flow crosses.
    pub first_link: usize,
    /// Number of consecutive inter-switch links crossed (the paper's "path
    /// length").
    pub hops: usize,
}

impl FlowPlacement {
    /// The link indices this flow crosses.
    pub fn link_indices(&self) -> std::ops::Range<usize> {
        self.first_link..self.first_link + self.hops
    }
}

/// The fixed placement of the 22 real-time flows (the module docs list the
/// constraints it meets).
pub fn placement() -> Vec<FlowPlacement> {
    use FlowKind::*;
    let mut flows = Vec::with_capacity(NUM_FLOWS);
    let mut push = |kind, first_link, hops| {
        flows.push(FlowPlacement {
            kind,
            first_link,
            hops,
        })
    };
    // Guaranteed-Peak: one 4-hop flow and two 2-hop flows covering each link
    // exactly twice in total.
    push(GuaranteedPeak, 0, 4);
    push(GuaranteedPeak, 0, 2);
    push(GuaranteedPeak, 2, 2);
    // Guaranteed-Average: a 3-hop and a 1-hop flow covering each link once.
    push(GuaranteedAverage, 0, 3);
    push(GuaranteedAverage, 3, 1);
    // Predicted-High: a 4-hop flow, two 2-hop flows and one 1-hop flow per
    // link — three per link.
    push(PredictedHigh, 0, 4);
    push(PredictedHigh, 0, 2);
    push(PredictedHigh, 2, 2);
    push(PredictedHigh, 0, 1);
    push(PredictedHigh, 1, 1);
    push(PredictedHigh, 2, 1);
    push(PredictedHigh, 3, 1);
    // Predicted-Low: three 3-hop flows and seven 1-hop flows — four per link.
    push(PredictedLow, 0, 3);
    push(PredictedLow, 0, 3);
    push(PredictedLow, 1, 3);
    push(PredictedLow, 0, 1);
    push(PredictedLow, 0, 1);
    push(PredictedLow, 1, 1);
    push(PredictedLow, 2, 1);
    push(PredictedLow, 3, 1);
    push(PredictedLow, 3, 1);
    push(PredictedLow, 3, 1);
    flows
}

/// Placement of the two datagram TCP connections of Table 3 (first link
/// index, hops): one on L1–L2 and one on L3–L4, so every link carries
/// exactly one datagram connection.
pub fn tcp_placement() -> Vec<(usize, usize)> {
    vec![(0, 2), (2, 2)]
}

/// The built Figure-1 network skeleton: five switches, four forward links
/// and four reverse links (the reverse direction is idle except for TCP
/// acknowledgements).
#[derive(Debug, Clone)]
pub struct Fig1Network {
    /// The topology.
    pub topology: Topology,
    /// The five switches S-1 … S-5.
    pub nodes: Vec<NodeId>,
    /// The four forward inter-switch links (L1 … L4).
    pub links: Vec<LinkId>,
    /// The four reverse links (L4' … L1' by position: `reverse[i]` runs from
    /// `nodes[i+1]` back to `nodes[i]`).
    pub reverse_links: Vec<LinkId>,
}

impl Fig1Network {
    /// The scenario link profile Figure 1 uses (the Appendix parameters).
    pub fn link_profile(cfg: &PaperConfig) -> LinkProfile {
        LinkProfile {
            rate_bps: cfg.link_rate_bps,
            propagation: SimTime::ZERO,
            buffer_packets: cfg.buffer_packets,
        }
    }

    /// Build the Figure-1 topology with the configured link parameters —
    /// a duplex five-switch chain, via the scenario preset.
    pub fn build(cfg: &PaperConfig) -> Self {
        let built = TopologySpec::chain_duplex(5)
            .build(&Self::link_profile(cfg))
            .expect("the Figure-1 chain is a valid preset");
        Fig1Network {
            topology: built.topology,
            nodes: built.nodes,
            links: built.forward,
            reverse_links: built.reverse,
        }
    }
}

/// Census of the placement: per-link flow counts by kind, used by the tests
/// and printed by the `fig1` binary.
pub fn per_link_census(
    flows: &[FlowPlacement],
) -> Vec<std::collections::BTreeMap<FlowKind, usize>> {
    let mut census = vec![std::collections::BTreeMap::new(); NUM_LINKS];
    for f in flows {
        for l in f.link_indices() {
            *census[l].entry(f.kind).or_insert(0) += 1;
        }
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drift guard for the wire decoder: it must invert `label` for every
    /// kind, or distributed Table-3 runs would poison rows of a newly
    /// added kind at decode.
    #[test]
    fn from_label_inverts_label_for_every_kind() {
        for kind in [
            FlowKind::GuaranteedPeak,
            FlowKind::GuaranteedAverage,
            FlowKind::PredictedHigh,
            FlowKind::PredictedLow,
        ] {
            let label = JsonValue::Str(kind.label().to_string());
            assert_eq!(FlowKind::from_wire_json(&label), Ok(kind));
        }
        let unknown = JsonValue::Str("Best-Effort-Maybe".to_string());
        assert!(FlowKind::from_wire_json(&unknown).is_err());
    }

    #[test]
    fn path_length_census_matches_the_appendix() {
        let flows = placement();
        assert_eq!(flows.len(), NUM_FLOWS);
        let count = |h| flows.iter().filter(|f| f.hops == h).count();
        assert_eq!(count(1), 12, "12 flows of path length one");
        assert_eq!(count(2), 4, "4 flows of path length two");
        assert_eq!(count(3), 4, "4 flows of path length three");
        assert_eq!(count(4), 2, "2 flows of path length four");
    }

    #[test]
    fn every_link_carries_ten_flows() {
        let census = per_link_census(&placement());
        for (i, link) in census.iter().enumerate() {
            let total: usize = link.values().sum();
            assert_eq!(total, FLOWS_PER_LINK, "link {i} carries {total} flows");
        }
    }

    #[test]
    fn per_link_class_mix_matches_section_7() {
        // "it consists of one datagram connection and 10 real-time flows:
        // 2 Guaranteed-Peak, 1 Guaranteed-Average, 3 Predicted-High, and
        // 4 Predicted-Low."
        let census = per_link_census(&placement());
        for (i, link) in census.iter().enumerate() {
            assert_eq!(link.get(&FlowKind::GuaranteedPeak), Some(&2), "link {i}");
            assert_eq!(link.get(&FlowKind::GuaranteedAverage), Some(&1), "link {i}");
            assert_eq!(link.get(&FlowKind::PredictedHigh), Some(&3), "link {i}");
            assert_eq!(link.get(&FlowKind::PredictedLow), Some(&4), "link {i}");
        }
    }

    #[test]
    fn class_totals_match_section_7() {
        let flows = placement();
        let count = |k| flows.iter().filter(|f| f.kind == k).count();
        assert_eq!(count(FlowKind::GuaranteedPeak), 3);
        assert_eq!(count(FlowKind::GuaranteedAverage), 2);
        assert_eq!(count(FlowKind::PredictedHigh), 7);
        assert_eq!(count(FlowKind::PredictedLow), 10);
    }

    #[test]
    fn placements_stay_inside_the_chain() {
        for f in placement() {
            assert!(
                f.first_link + f.hops <= NUM_LINKS,
                "{f:?} runs off the chain"
            );
            assert!(f.hops >= 1);
        }
    }

    #[test]
    fn tcp_connections_cover_each_link_once() {
        let mut per_link = [0usize; NUM_LINKS];
        for (first, hops) in tcp_placement() {
            for count in per_link.iter_mut().skip(first).take(hops) {
                *count += 1;
            }
        }
        assert_eq!(per_link, [1, 1, 1, 1]);
    }

    #[test]
    fn built_topology_matches_figure_1() {
        let cfg = PaperConfig::paper();
        let net = Fig1Network::build(&cfg);
        assert_eq!(net.nodes.len(), 5);
        assert_eq!(net.links.len(), 4);
        assert_eq!(net.reverse_links.len(), 4);
        for (i, l) in net.links.iter().enumerate() {
            let p = net.topology.link(*l);
            assert_eq!(p.from, net.nodes[i]);
            assert_eq!(p.to, net.nodes[i + 1]);
            assert_eq!(p.rate_bps, 1_000_000.0);
            assert_eq!(p.buffer_packets, 200);
        }
    }

    #[test]
    fn kind_labels() {
        assert_eq!(FlowKind::GuaranteedPeak.label(), "Guaranteed-Peak");
        assert!(FlowKind::GuaranteedPeak.is_guaranteed());
        assert!(!FlowKind::PredictedLow.is_guaranteed());
    }

    #[test]
    fn offered_load_is_about_83_percent_per_link() {
        // 10 flows per link at ~0.98·85 pkt/s each over a 1000 pkt/s link.
        let cfg = PaperConfig::paper();
        let per_link_pps = FLOWS_PER_LINK as f64 * 0.98 * cfg.avg_rate_pps;
        let util = per_link_pps * cfg.packet_bits as f64 / cfg.link_rate_bps;
        assert!((util - 0.835).abs() < 0.01, "offered load {util}");
    }
}
