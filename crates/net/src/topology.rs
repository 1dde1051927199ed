//! Nodes, links and the topology builder.
//!
//! Only switches are modelled as nodes; the paper attaches each host to its
//! switch by an infinitely fast link, so host behaviour collapses into
//! "inject at the first switch / deliver at the last switch" and needs no
//! node of its own.  Links are unidirectional; a full-duplex cable is two
//! links.

use ispn_sim::SimTime;

/// Identifier of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

impl LinkId {
    /// The numeric index of the link.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Static parameters of one unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Upstream switch (the output port that queues for this link).
    pub from: NodeId,
    /// Downstream switch.
    pub to: NodeId,
    /// Transmission rate in bits per second.
    pub rate_bps: f64,
    /// Propagation delay.
    pub propagation: SimTime,
    /// Output buffer limit in packets (the Appendix uses 200).
    pub buffer_packets: usize,
}

/// A static network topology: a set of switches and directed links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    num_nodes: usize,
    links: Vec<LinkParams>,
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a switch and return its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.num_nodes);
        self.num_nodes += 1;
        id
    }

    /// Add `n` switches and return their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Add a unidirectional link and return its id.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist, the rate is not positive,
    /// or the buffer is zero.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        rate_bps: f64,
        propagation: SimTime,
        buffer_packets: usize,
    ) -> LinkId {
        assert!(from.0 < self.num_nodes, "unknown from-node {from:?}");
        assert!(to.0 < self.num_nodes, "unknown to-node {to:?}");
        assert!(from != to, "self-loops are not allowed");
        assert!(rate_bps > 0.0, "link rate must be positive");
        assert!(buffer_packets > 0, "buffer must hold at least one packet");
        let id = LinkId(self.links.len());
        self.links.push(LinkParams {
            from,
            to,
            rate_bps,
            propagation,
            buffer_packets,
        });
        id
    }

    /// Number of switches.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Parameters of a link.
    pub fn link(&self, id: LinkId) -> &LinkParams {
        &self.links[id.0]
    }

    /// All links, indexed by [`LinkId`].
    pub fn links(&self) -> &[LinkParams] {
        &self.links
    }

    /// Shortest path (fewest hops) from `src` to `dst` as a list of link
    /// ids, found by breadth-first search; `None` if unreachable.  Ties are
    /// broken toward lower link ids so routing is deterministic.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; self.num_nodes];
        let mut visited = vec![false; self.num_nodes];
        let mut queue = std::collections::VecDeque::new();
        visited[src.0] = true;
        queue.push_back(src);
        while let Some(n) = queue.pop_front() {
            for (i, l) in self.links.iter().enumerate() {
                if l.from == n && !visited[l.to.0] {
                    visited[l.to.0] = true;
                    prev[l.to.0] = Some((n, LinkId(i)));
                    if l.to == dst {
                        // Reconstruct.
                        let mut path = Vec::new();
                        let mut cur = dst;
                        while cur != src {
                            let (p, link) = prev[cur.0].expect("visited nodes have predecessors");
                            path.push(link);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(l.to);
                }
            }
        }
        None
    }

    /// Verify that a route is a contiguous path (each link starts where the
    /// previous one ended).
    pub fn validate_route(&self, route: &[LinkId]) -> bool {
        if route.is_empty() {
            return false;
        }
        for w in route.windows(2) {
            if self.link(w[0]).to != self.link(w[1]).from {
                return false;
            }
        }
        route.iter().all(|l| l.0 < self.links.len())
    }

    /// Build a chain of `n` switches connected left-to-right by links with
    /// the given parameters (the Figure-1 topology is `chain(5, …)` plus its
    /// hosts).  Returns the node ids and link ids in order.
    pub fn chain(
        n: usize,
        rate_bps: f64,
        propagation: SimTime,
        buffer_packets: usize,
    ) -> (Topology, Vec<NodeId>, Vec<LinkId>) {
        assert!(n >= 2, "a chain needs at least two switches");
        let mut topo = Topology::new();
        let nodes = topo.add_nodes(n);
        let mut links = Vec::new();
        for i in 0..n - 1 {
            links.push(topo.add_link(
                nodes[i],
                nodes[i + 1],
                rate_bps,
                propagation,
                buffer_packets,
            ));
        }
        (topo, nodes, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBIT: f64 = 1_000_000.0;

    #[test]
    fn build_nodes_and_links() {
        let mut t = Topology::new();
        let a = t.add_node();
        let b = t.add_node();
        let l = t.add_link(a, b, MBIT, SimTime::ZERO, 200);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_links(), 1);
        assert_eq!(t.link(l).from, a);
        assert_eq!(t.link(l).to, b);
    }

    #[test]
    fn chain_constructor_matches_figure_1_shape() {
        let (t, nodes, links) = Topology::chain(5, MBIT, SimTime::ZERO, 200);
        assert_eq!(nodes.len(), 5);
        assert_eq!(links.len(), 4);
        for (i, l) in links.iter().enumerate() {
            assert_eq!(t.link(*l).from, nodes[i]);
            assert_eq!(t.link(*l).to, nodes[i + 1]);
        }
    }

    #[test]
    fn shortest_path_on_chain() {
        let (t, nodes, links) = Topology::chain(5, MBIT, SimTime::ZERO, 200);
        let p = t.shortest_path(nodes[0], nodes[4]).unwrap();
        assert_eq!(p, links);
        let p = t.shortest_path(nodes[2], nodes[3]).unwrap();
        assert_eq!(p, vec![links[2]]);
        assert_eq!(t.shortest_path(nodes[2], nodes[2]).unwrap(), vec![]);
        // The chain has no reverse links.
        assert!(t.shortest_path(nodes[4], nodes[0]).is_none());
    }

    #[test]
    fn validate_route_checks_contiguity() {
        let (t, _nodes, links) = Topology::chain(4, MBIT, SimTime::ZERO, 200);
        assert!(t.validate_route(&[links[0], links[1], links[2]]));
        assert!(t.validate_route(&[links[1]]));
        assert!(!t.validate_route(&[links[0], links[2]]));
        assert!(!t.validate_route(&[]));
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let a = t.add_node();
        t.add_link(a, a, MBIT, SimTime::ZERO, 10);
    }

    #[test]
    #[should_panic]
    fn unknown_node_rejected() {
        let mut t = Topology::new();
        let a = t.add_node();
        t.add_link(a, NodeId(5), MBIT, SimTime::ZERO, 10);
    }

    #[test]
    #[should_panic]
    fn zero_buffer_rejected() {
        let mut t = Topology::new();
        let a = t.add_node();
        let b = t.add_node();
        t.add_link(a, b, MBIT, SimTime::ZERO, 0);
    }
}
