//! The physical network graph: nodes, full-duplex links, adjacency.

use crate::units::{Nanos, GBIT, MICROS};

/// Index of a node (host or switch) in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a full-duplex link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Direction of travel over a full-duplex [`Link`].
///
/// `Forward` is `a → b` in the link's declaration order; `Reverse` is
/// `b → a`. The two directions are independent capacity resources, matching
/// real switched Ethernet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDir {
    /// Travel from `link.a` to `link.b`.
    Forward,
    /// Travel from `link.b` to `link.a`.
    Reverse,
}

impl LinkDir {
    /// The opposite direction.
    pub fn flip(self) -> LinkDir {
        match self {
            LinkDir::Forward => LinkDir::Reverse,
            LinkDir::Reverse => LinkDir::Forward,
        }
    }
}

/// What role a node plays in the datacenter tree (Fig. 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A physical machine that hosts VMs and terminates flows.
    Host,
    /// Top-of-rack switch.
    Tor,
    /// Aggregation switch (first aggregation tier).
    Agg,
    /// Second aggregation tier (present in deeper trees; gives 8-hop paths).
    Agg2,
    /// Core switch.
    Core,
}

impl NodeKind {
    /// True for nodes that can source/sink traffic.
    pub fn is_host(self) -> bool {
        matches!(self, NodeKind::Host)
    }

    /// Tree depth of the tier: hosts are deepest (0), cores are highest.
    ///
    /// Used by the tree generators and by traceroute-visibility rules; a
    /// general [`Topology`] does not need tiers to make sense.
    pub fn tier(self) -> u8 {
        match self {
            NodeKind::Host => 0,
            NodeKind::Tor => 1,
            NodeKind::Agg => 2,
            NodeKind::Agg2 => 3,
            NodeKind::Core => 4,
        }
    }
}

/// A node in the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id (equal to its index in [`Topology::nodes`]).
    pub id: NodeId,
    /// Role of the node.
    pub kind: NodeKind,
    /// Human-readable name, e.g. `"tor-2"` or `"host-17"`.
    pub name: String,
}

/// Capacity and propagation delay for one link (both directions share the
/// spec; capacities are independent at runtime).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Capacity of each direction, bits/second.
    pub rate_bps: f64,
    /// One-way propagation delay, nanoseconds.
    pub delay: Nanos,
}

impl LinkSpec {
    /// Convenience constructor.
    pub fn new(rate_bps: f64, delay: Nanos) -> Self {
        LinkSpec { rate_bps, delay }
    }
}

/// Capacity/delay model of the intra-host "memory loopback" that carries
/// traffic between co-located VMs: the ≈ 4 Gbit/s paths the paper measured
/// between VMs on one EC2 machine (§2.2). Every simulator, provider and
/// the online scheduler model co-located traffic with this one value.
pub const LOOPBACK: LinkSpec = LinkSpec { rate_bps: 4.2 * GBIT, delay: 20 * MICROS };

/// A full-duplex link between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    /// This link's id (equal to its index in [`Topology::links`]).
    pub id: LinkId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Rate/delay spec (per direction).
    pub spec: LinkSpec,
}

impl Link {
    /// The node a packet travelling in `dir` arrives at.
    pub fn head(&self, dir: LinkDir) -> NodeId {
        match dir {
            LinkDir::Forward => self.b,
            LinkDir::Reverse => self.a,
        }
    }

    /// The node a packet travelling in `dir` departs from.
    pub fn tail(&self, dir: LinkDir) -> NodeId {
        match dir {
            LinkDir::Forward => self.a,
            LinkDir::Reverse => self.b,
        }
    }

    /// Direction such that the packet departs `from`.
    ///
    /// Panics if `from` is not an endpoint of this link.
    pub fn dir_from(&self, from: NodeId) -> LinkDir {
        if from == self.a {
            LinkDir::Forward
        } else if from == self.b {
            LinkDir::Reverse
        } else {
            panic!("node {from:?} is not an endpoint of link {:?}", self.id);
        }
    }
}

/// An immutable network graph.
///
/// Built once by a [`TopologyBuilder`] or a generator in [`crate::tree`];
/// simulators hold it behind an `Arc` or reference and never mutate it.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[n] = (neighbor, link over which the neighbor is reached)
    adj: Vec<Vec<(NodeId, LinkId)>>,
    hosts: Vec<NodeId>,
}

impl Topology {
    /// Start building a topology by hand.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// All nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Neighbors of `n` with the link that reaches each.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[n.0 as usize]
    }

    /// All host nodes, in creation order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }
}

/// Incremental construction of a [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Add a node of the given kind; returns its id.
    pub fn node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, kind, name: name.into() });
        id
    }

    /// Add `n` hosts named `prefix-i`; returns their ids.
    pub fn hosts(&mut self, n: usize, prefix: &str) -> Vec<NodeId> {
        (0..n).map(|i| self.node(NodeKind::Host, format!("{prefix}-{i}"))).collect()
    }

    /// Add a full-duplex link; returns its id.
    ///
    /// Panics on self-loops and on non-positive rates: neither occurs in a
    /// physical datacenter, and both break the simulators.
    pub fn link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        assert!(a != b, "self-loop on node {a:?}");
        assert!(spec.rate_bps > 0.0, "non-positive link rate {}", spec.rate_bps);
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { id, a, b, spec });
        id
    }

    /// Finish: compute adjacency and host list.
    pub fn build(self) -> Topology {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for l in &self.links {
            adj[l.a.0 as usize].push((l.b, l.id));
            adj[l.b.0 as usize].push((l.a, l.id));
        }
        let hosts = self.nodes.iter().filter(|n| n.kind.is_host()).map(|n| n.id).collect();
        Topology { nodes: self.nodes, links: self.links, adj, hosts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{GBIT, MICROS};

    fn triangle() -> Topology {
        let mut b = Topology::builder();
        let h0 = b.node(NodeKind::Host, "h0");
        let h1 = b.node(NodeKind::Host, "h1");
        let s = b.node(NodeKind::Tor, "s");
        b.link(h0, s, LinkSpec::new(GBIT, 5 * MICROS));
        b.link(h1, s, LinkSpec::new(GBIT, 5 * MICROS));
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let t = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.node(NodeId(0)).name, "h0");
        assert_eq!(t.link(LinkId(1)).a, NodeId(1));
    }

    #[test]
    fn hosts_are_only_host_kind() {
        let t = triangle();
        assert_eq!(t.hosts(), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let t = triangle();
        let s = NodeId(2);
        assert_eq!(t.neighbors(s).len(), 2);
        assert_eq!(t.neighbors(NodeId(0)), &[(s, LinkId(0))]);
    }

    #[test]
    fn link_direction_helpers() {
        let t = triangle();
        let l = t.link(LinkId(0));
        assert_eq!(l.dir_from(NodeId(0)), LinkDir::Forward);
        assert_eq!(l.dir_from(NodeId(2)), LinkDir::Reverse);
        assert_eq!(l.head(LinkDir::Forward), NodeId(2));
        assert_eq!(l.tail(LinkDir::Reverse), NodeId(2));
        assert_eq!(LinkDir::Forward.flip(), LinkDir::Reverse);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut b = Topology::builder();
        let h = b.node(NodeKind::Host, "h");
        b.link(h, h, LinkSpec::new(GBIT, 0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn dir_from_foreign_node_panics() {
        let t = triangle();
        t.link(LinkId(0)).dir_from(NodeId(1));
    }

    #[test]
    fn node_kind_tiers_are_ordered() {
        assert!(NodeKind::Host.tier() < NodeKind::Tor.tier());
        assert!(NodeKind::Tor.tier() < NodeKind::Agg.tier());
        assert!(NodeKind::Agg.tier() < NodeKind::Agg2.tier());
        assert!(NodeKind::Agg2.tier() < NodeKind::Core.tier());
    }
}
