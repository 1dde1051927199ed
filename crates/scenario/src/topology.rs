//! Topology presets and the built-topology handle.
//!
//! The paper's own evaluations only ever use a chain (Figure 1): chains
//! (optionally duplex, as Figure 1's reverse acknowledgement path
//! requires) and, for the cross-traffic study, rectangular meshes
//! (cross-traffic over shared interior links).

use ispn_net::{LinkId, NodeId, Topology};
use ispn_sim::SimTime;

use crate::error::BuildError;

/// Link parameters every preset link is built with (the Appendix defaults:
/// 1 Mbit/s, zero propagation, 200-packet buffers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Transmission rate in bits per second.
    pub rate_bps: f64,
    /// Propagation delay.
    pub propagation: SimTime,
    /// Output buffer limit in packets.
    pub buffer_packets: usize,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile {
            rate_bps: 1_000_000.0,
            propagation: SimTime::ZERO,
            buffer_packets: 200,
        }
    }
}

/// A declarative topology preset.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// `nodes` switches in a row.  Forward links (left to right) get ids
    /// `0..nodes-1`; with `duplex`, reverse links follow in the same order
    /// (`reverse[i]` runs from switch `i+1` back to switch `i`), matching
    /// the Figure-1 wiring.
    Chain {
        /// Number of switches (at least two).
        nodes: usize,
        /// Whether to add the reverse direction of every link.
        duplex: bool,
    },
    /// A `rows × cols` grid; neighbouring switches are connected in both
    /// directions.  Nodes are numbered row-major; links are added per node
    /// in row-major order (east-bound pair, then south-bound pair), so ids
    /// are deterministic.
    Mesh {
        /// Number of rows (at least two).
        rows: usize,
        /// Number of columns (at least two).
        cols: usize,
    },
}

impl TopologySpec {
    /// A simplex chain of `nodes` switches.
    pub fn chain(nodes: usize) -> Self {
        TopologySpec::Chain {
            nodes,
            duplex: false,
        }
    }

    /// A duplex chain of `nodes` switches (the Figure-1 shape).
    pub fn chain_duplex(nodes: usize) -> Self {
        TopologySpec::Chain {
            nodes,
            duplex: true,
        }
    }

    /// A `rows × cols` duplex grid mesh.
    pub fn mesh(rows: usize, cols: usize) -> Self {
        TopologySpec::Mesh { rows, cols }
    }

    /// Build the topology with the given link profile.
    pub fn build(&self, profile: &LinkProfile) -> Result<BuiltTopology, BuildError> {
        // Presets wire every link from the profile: refuse the values
        // `Topology::add_link` would panic on (`!(r > 0)` also catches NaN),
        // and the infinite and subnormal rates whose per-flow share in a
        // WFQ or VirtualClock port is not a positive, finite rate.
        let rate = profile.rate_bps;
        if !(rate > 0.0 && rate.is_normal() && profile.buffer_packets > 0) {
            return Err(BuildError::BadTopology {
                reason: format!(
                    "preset links need a positive, finite rate and a buffer, got {} bit/s and {} packets",
                    profile.rate_bps, profile.buffer_packets
                ),
            });
        }
        match self {
            TopologySpec::Chain { nodes, duplex } => {
                if *nodes < 2 {
                    return Err(BuildError::BadTopology {
                        reason: format!("a chain needs at least two switches, got {nodes}"),
                    });
                }
                let mut topology = Topology::new();
                let nodes_v = topology.add_nodes(*nodes);
                let mut forward = Vec::with_capacity(nodes - 1);
                for i in 0..nodes - 1 {
                    forward.push(topology.add_link(
                        nodes_v[i],
                        nodes_v[i + 1],
                        profile.rate_bps,
                        profile.propagation,
                        profile.buffer_packets,
                    ));
                }
                let mut reverse = Vec::new();
                if *duplex {
                    for i in 0..nodes - 1 {
                        reverse.push(topology.add_link(
                            nodes_v[i + 1],
                            nodes_v[i],
                            profile.rate_bps,
                            profile.propagation,
                            profile.buffer_packets,
                        ));
                    }
                }
                Ok(BuiltTopology {
                    topology,
                    nodes: nodes_v,
                    forward,
                    reverse,
                })
            }
            TopologySpec::Mesh { rows, cols } => {
                if *rows < 2 || *cols < 2 {
                    return Err(BuildError::BadTopology {
                        reason: format!("a mesh needs at least 2×2 switches, got {rows}×{cols}"),
                    });
                }
                let mut topology = Topology::new();
                let nodes = topology.add_nodes(rows * cols);
                let mut forward = Vec::new();
                let at = |r: usize, c: usize| nodes[r * cols + c];
                for r in 0..*rows {
                    for c in 0..*cols {
                        if c + 1 < *cols {
                            forward.push(topology.add_link(
                                at(r, c),
                                at(r, c + 1),
                                profile.rate_bps,
                                profile.propagation,
                                profile.buffer_packets,
                            ));
                            forward.push(topology.add_link(
                                at(r, c + 1),
                                at(r, c),
                                profile.rate_bps,
                                profile.propagation,
                                profile.buffer_packets,
                            ));
                        }
                        if r + 1 < *rows {
                            forward.push(topology.add_link(
                                at(r, c),
                                at(r + 1, c),
                                profile.rate_bps,
                                profile.propagation,
                                profile.buffer_packets,
                            ));
                            forward.push(topology.add_link(
                                at(r + 1, c),
                                at(r, c),
                                profile.rate_bps,
                                profile.propagation,
                                profile.buffer_packets,
                            ));
                        }
                    }
                }
                Ok(BuiltTopology {
                    topology,
                    nodes,
                    forward,
                    reverse: Vec::new(),
                })
            }
        }
    }
}

/// A built preset: the topology plus the link-id bookkeeping the preset's
/// route helpers need.
#[derive(Debug, Clone)]
pub struct BuiltTopology {
    /// The concrete topology.
    pub topology: Topology,
    /// All switches, in preset order (chain: left to right; mesh:
    /// row-major).
    pub nodes: Vec<NodeId>,
    /// The preset's "forward" links: chain left-to-right, mesh all links in
    /// id order.
    pub forward: Vec<LinkId>,
    /// The preset's "reverse" links (duplex chain right-to-left); empty for
    /// meshes.
    pub reverse: Vec<LinkId>,
}

impl BuiltTopology {
    /// The forward-link span `[first, first + hops)` as a route.
    pub fn span(&self, first: usize, hops: usize) -> Option<Vec<LinkId>> {
        if first + hops > self.forward.len() || hops == 0 {
            return None;
        }
        Some(self.forward[first..first + hops].to_vec())
    }

    /// The reverse route matching a forward span (used by acknowledgement
    /// paths): the reverse links of the span, walked right to left.
    pub fn reverse_span(&self, first: usize, hops: usize) -> Option<Vec<LinkId>> {
        if first + hops > self.reverse.len() || hops == 0 {
            return None;
        }
        Some(
            (first..first + hops)
                .rev()
                .map(|i| self.reverse[i])
                .collect(),
        )
    }

    /// Shortest route (fewest hops, deterministic tie-break) between two
    /// switches.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<Vec<LinkId>> {
        self.topology.shortest_path(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_matches_topology_chain() {
        let profile = LinkProfile::default();
        let built = TopologySpec::chain(4).build(&profile).unwrap();
        let (reference, nodes, links) = Topology::chain(
            4,
            profile.rate_bps,
            profile.propagation,
            profile.buffer_packets,
        );
        assert_eq!(built.nodes, nodes);
        assert_eq!(built.forward, links);
        assert!(built.reverse.is_empty());
        assert_eq!(built.topology.num_links(), reference.num_links());
        for i in 0..reference.num_links() {
            assert_eq!(built.topology.link(LinkId(i)), reference.link(LinkId(i)));
        }
    }

    #[test]
    fn duplex_chain_matches_figure_1_wiring() {
        let built = TopologySpec::chain_duplex(5)
            .build(&LinkProfile::default())
            .unwrap();
        assert_eq!(built.forward.len(), 4);
        assert_eq!(built.reverse.len(), 4);
        for i in 0..4 {
            let f = built.topology.link(built.forward[i]);
            assert_eq!((f.from, f.to), (built.nodes[i], built.nodes[i + 1]));
            let r = built.topology.link(built.reverse[i]);
            assert_eq!((r.from, r.to), (built.nodes[i + 1], built.nodes[i]));
        }
        // The reverse span walks right to left.
        let rev = built.reverse_span(1, 2).unwrap();
        assert_eq!(rev, vec![built.reverse[2], built.reverse[1]]);
        assert!(built
            .topology
            .validate_route(&built.reverse_span(0, 4).unwrap()));
    }

    #[test]
    fn mesh_has_shared_interior_links() {
        let built = TopologySpec::mesh(3, 3)
            .build(&LinkProfile::default())
            .unwrap();
        assert_eq!(built.nodes.len(), 9);
        // 2 directed links per grid edge: 12 edges in a 3×3 grid.
        assert_eq!(built.topology.num_links(), 24);
        // Row route and diagonal route share the centre's east-bound link
        // (nodes are numbered row-major).
        let row = built.route(built.nodes[3], built.nodes[5]).unwrap();
        assert_eq!(row.len(), 2);
        let diag = built.route(built.nodes[0], built.nodes[8]).unwrap();
        assert_eq!(diag.len(), 4);
        assert!(built.topology.validate_route(&row));
        assert!(built.topology.validate_route(&diag));
    }

    #[test]
    fn bad_presets_are_reported_not_panicked() {
        assert!(matches!(
            TopologySpec::chain(1).build(&LinkProfile::default()),
            Err(BuildError::BadTopology { .. })
        ));
        assert!(TopologySpec::mesh(1, 3)
            .build(&LinkProfile::default())
            .is_err());
    }

    #[test]
    fn spans_check_bounds() {
        let built = TopologySpec::chain(5)
            .build(&LinkProfile::default())
            .unwrap();
        assert_eq!(built.span(1, 3).unwrap().len(), 3);
        assert!(built.span(3, 2).is_none());
        assert!(built.span(0, 0).is_none());
        assert!(built.reverse_span(0, 1).is_none(), "simplex chain");
    }
}
