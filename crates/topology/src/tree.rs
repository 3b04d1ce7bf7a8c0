//! Canned topology generators.
//!
//! * [`dumbbell`] — the ns-2 "simple topology" of Fig. 3(a): N sender hosts
//!   and N receiver hosts on opposite sides of one shared bottleneck link.
//! * [`two_rack`] — the ns-2 "cloud topology" of Fig. 3(b): two racks of
//!   hosts behind ToR switches joined by an aggregation switch, with
//!   1 Gbit/s edge links and 10 Gbit/s ToR↔agg links.
//! * [`MultiRootedTreeSpec`] — the general multi-tier datacenter tree of
//!   Fig. 5, optionally with a second aggregation tier so that the longest
//!   host-to-host paths are 8 hops, matching the EC2 path-length set
//!   {1, 2, 4, 6, 8} observed in §4.2.

use crate::graph::{LinkSpec, NodeId, NodeKind, Topology};
use crate::units::{GBIT, MICROS};

/// Fig. 3(a): `n_pairs` senders S1..Sn and receivers R1..Rn joined by one
/// shared full-duplex link of `shared` capacity; host access links use
/// `edge`. Hosts are ordered S1..Sn, R1..Rn in `topology.hosts()`.
pub fn dumbbell(n_pairs: usize, edge: LinkSpec, shared: LinkSpec) -> Topology {
    assert!(n_pairs >= 1);
    let mut b = Topology::builder();
    let senders = b.hosts(n_pairs, "s");
    let receivers = b.hosts(n_pairs, "r");
    let left = b.node(NodeKind::Tor, "left");
    let right = b.node(NodeKind::Tor, "right");
    for &s in &senders {
        b.link(s, left, edge);
    }
    for &r in &receivers {
        b.link(r, right, edge);
    }
    b.link(left, right, shared);
    b.build()
}

/// Fig. 3(b): two racks of `hosts_per_rack` hosts each. Rack links are
/// `edge` (1 Gbit/s in the paper); ToR↔aggregate links are `uplink`
/// (10 Gbit/s in the paper). Hosts are ordered rack-0 then rack-1.
pub fn two_rack(hosts_per_rack: usize, edge: LinkSpec, uplink: LinkSpec) -> Topology {
    assert!(hosts_per_rack >= 1);
    let mut b = Topology::builder();
    let rack0 = b.hosts(hosts_per_rack, "s");
    let rack1 = b.hosts(hosts_per_rack, "r");
    let tor0 = b.node(NodeKind::Tor, "tor-0");
    let tor1 = b.node(NodeKind::Tor, "tor-1");
    let agg = b.node(NodeKind::Agg, "agg");
    for &h in &rack0 {
        b.link(h, tor0, edge);
    }
    for &h in &rack1 {
        b.link(h, tor1, edge);
    }
    b.link(tor0, agg, uplink);
    b.link(tor1, agg, uplink);
    b.build()
}

/// Parameters for a multi-rooted datacenter tree (Fig. 5).
///
/// The tree has `cores` roots. Below them sit `pods` pods; each pod has
/// `aggs_per_pod` aggregation switches, each connected to every core.
/// Each pod contains `tors_per_pod` ToR switches, each connected to every
/// aggregation switch in its pod, and each ToR serves `hosts_per_tor`
/// hosts.
///
/// With `second_agg_tier == true`, each pod's aggregation switches connect
/// to the cores through an extra tier (one `Agg2` switch per pod), making
/// inter-pod paths 8 hops instead of 6 — the deeper trees the paper infers
/// from 8-hop EC2 traceroutes.
#[derive(Debug, Clone)]
pub struct MultiRootedTreeSpec {
    /// Number of core switches (roots).
    pub cores: usize,
    /// Number of pods (subtrees).
    pub pods: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
    /// ToR switches per pod.
    pub tors_per_pod: usize,
    /// Hosts per ToR switch.
    pub hosts_per_tor: usize,
    /// Host ↔ ToR link.
    pub host_link: LinkSpec,
    /// ToR ↔ aggregation link.
    pub tor_link: LinkSpec,
    /// Aggregation ↔ core (or Agg2, if present) link.
    pub agg_link: LinkSpec,
    /// Insert a second aggregation tier (8-hop inter-pod paths).
    pub second_agg_tier: bool,
}

impl Default for MultiRootedTreeSpec {
    /// A small 3-tier tree: 2 cores, 2 pods × 2 aggs × 2 ToRs × 4 hosts
    /// (16 hosts), 1 Gbit/s edges, 10 Gbit/s fabric links, 5 µs hops.
    fn default() -> Self {
        MultiRootedTreeSpec {
            cores: 2,
            pods: 2,
            aggs_per_pod: 2,
            tors_per_pod: 2,
            hosts_per_tor: 4,
            host_link: LinkSpec::new(GBIT, 5 * MICROS),
            tor_link: LinkSpec::new(10.0 * GBIT, 5 * MICROS),
            agg_link: LinkSpec::new(10.0 * GBIT, 5 * MICROS),
            second_agg_tier: false,
        }
    }
}

impl MultiRootedTreeSpec {
    /// Build the topology. Hosts appear in `topology.hosts()` grouped by
    /// pod, then ToR, then host index.
    pub fn build(&self) -> Topology {
        assert!(self.cores >= 1 && self.pods >= 1);
        assert!(self.aggs_per_pod >= 1 && self.tors_per_pod >= 1 && self.hosts_per_tor >= 1);
        let mut b = Topology::builder();
        let cores: Vec<NodeId> =
            (0..self.cores).map(|i| b.node(NodeKind::Core, format!("core-{i}"))).collect();
        for p in 0..self.pods {
            // Optional second aggregation tier: one Agg2 per pod between
            // the pod's aggs and the cores.
            let agg2 = if self.second_agg_tier {
                let a2 = b.node(NodeKind::Agg2, format!("agg2-{p}"));
                for &c in &cores {
                    b.link(a2, c, self.agg_link);
                }
                Some(a2)
            } else {
                None
            };
            let aggs: Vec<NodeId> = (0..self.aggs_per_pod)
                .map(|a| b.node(NodeKind::Agg, format!("agg-{p}-{a}")))
                .collect();
            for &a in &aggs {
                match agg2 {
                    Some(a2) => {
                        b.link(a, a2, self.agg_link);
                    }
                    None => {
                        for &c in &cores {
                            b.link(a, c, self.agg_link);
                        }
                    }
                }
            }
            for t in 0..self.tors_per_pod {
                let tor = b.node(NodeKind::Tor, format!("tor-{p}-{t}"));
                for &a in &aggs {
                    b.link(tor, a, self.tor_link);
                }
                for h in 0..self.hosts_per_tor {
                    let host = b.node(NodeKind::Host, format!("host-{p}-{t}-{h}"));
                    b.link(host, tor, self.host_link);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RouteTable;
    use crate::units::MILLIS;

    #[test]
    fn dumbbell_shape() {
        let edge = LinkSpec::new(GBIT, 5 * MICROS);
        let shared = LinkSpec::new(GBIT, MILLIS);
        let t = dumbbell(10, edge, shared);
        assert_eq!(t.hosts().len(), 20);
        // 20 edge links + 1 shared.
        assert_eq!(t.link_count(), 21);
        let rt = RouteTable::new(&t);
        // sender 0 -> receiver 0 crosses 3 links.
        assert_eq!(rt.hop_count(t.hosts()[0], t.hosts()[10]), 3);
        // sender 0 -> sender 1 crosses 2 links (same switch).
        assert_eq!(rt.hop_count(t.hosts()[0], t.hosts()[1]), 2);
    }

    #[test]
    fn two_rack_shape() {
        let t =
            two_rack(10, LinkSpec::new(GBIT, 5 * MICROS), LinkSpec::new(10.0 * GBIT, 5 * MICROS));
        assert_eq!(t.hosts().len(), 20);
        let rt = RouteTable::new(&t);
        // same rack: 2 hops, cross rack: 4 hops.
        assert_eq!(rt.hop_count(t.hosts()[0], t.hosts()[1]), 2);
        assert_eq!(rt.hop_count(t.hosts()[0], t.hosts()[10]), 4);
    }

    #[test]
    fn three_tier_tree_hop_counts() {
        let spec = MultiRootedTreeSpec::default();
        let t = spec.build();
        assert_eq!(t.hosts().len(), spec.pods * spec.tors_per_pod * spec.hosts_per_tor);
        let rt = RouteTable::new(&t);
        let h = t.hosts();
        // Same ToR: 2 hops.
        assert_eq!(rt.hop_count(h[0], h[1]), 2);
        // Same pod, different ToR: 4 hops.
        assert_eq!(rt.hop_count(h[0], h[4]), 4);
        // Different pod: 6 hops.
        assert_eq!(rt.hop_count(h[0], h[8]), 6);
    }

    #[test]
    fn four_tier_tree_gives_8_hop_paths() {
        let spec = MultiRootedTreeSpec { second_agg_tier: true, ..Default::default() };
        let t = spec.build();
        let rt = RouteTable::new(&t);
        let h = t.hosts();
        assert_eq!(rt.hop_count(h[0], h[8]), 8);
        // Intra-pod distances unchanged.
        assert_eq!(rt.hop_count(h[0], h[1]), 2);
        assert_eq!(rt.hop_count(h[0], h[4]), 4);
    }

    #[test]
    fn all_host_pair_hops_are_even() {
        // §3.3.1: all inter-host paths use an even number of hops.
        let spec = MultiRootedTreeSpec { second_agg_tier: true, ..Default::default() };
        let t = spec.build();
        let rt = RouteTable::new(&t);
        for &a in t.hosts() {
            for &b in t.hosts() {
                if a != b {
                    assert_eq!(rt.hop_count(a, b) % 2, 0, "{a:?}->{b:?}");
                }
            }
        }
    }

    #[test]
    fn ecmp_multiplicity_matches_fabric() {
        // 2 aggs per pod and 2 cores: intra-pod cross-ToR pairs have 2
        // equal-cost paths; inter-pod pairs have up to 2*2*2 = 8.
        let spec = MultiRootedTreeSpec::default();
        let t = spec.build();
        let rt = RouteTable::new(&t);
        let h = t.hosts();
        assert_eq!(rt.path_count(h[0], h[4]), 2);
        assert_eq!(rt.path_count(h[0], h[8]), 8);
    }
}
