//! Pod partitioning: group a topology's nodes and links into subtrees
//! ("pods") joined by a shared spine.
//!
//! Multi-rooted datacenter trees (§3.3.1, Fig. 5) are pod-structured:
//! hosts hang off ToRs, ToRs off a pod's aggregation switches, and only
//! the aggregation↔core tier stitches pods together. Flows between hosts
//! of the same pod never leave it, so the links of distinct pods form
//! independent capacity subproblems between the rare cross-pod
//! interactions — which is why a failure is reported per pod.
//!
//! [`PodPartition::of`] derives the structure from an arbitrary
//! [`Topology`] without assuming a generator:
//!
//! * the **spine** is the highest switch tier present
//!   ([`crate::NodeKind::tier`]): cores in a multi-rooted tree, the aggregation
//!   switch in the two-rack cloud topology, the two ToRs of a dumbbell;
//! * **pods** are the connected components of the subgraph induced by the
//!   remaining (non-spine) nodes, numbered in node-id order
//!   (deterministic);
//! * a **link** belongs to a pod iff both endpoints do; links touching
//!   the spine (uplinks, core↔core) belong to no pod.
//!
//! Degenerate shapes stay well-defined rather than special-cased: a
//! dumbbell decomposes into single-host pods with every link on the
//! spine (the all-flows-cross-pod worst case), and a single-pod tree
//! yields one pod.

use crate::graph::{Link, NodeId, Topology};

/// Partition of a topology into pods plus a spine (see the module docs).
#[derive(Debug, Clone)]
pub struct PodPartition {
    /// Per node: its pod, or `None` for spine nodes.
    pod_of_node: Vec<Option<u32>>,
    n_pods: u32,
}

impl PodPartition {
    /// Partition `topo` (deterministic: pods are numbered by the smallest
    /// node id they contain, in increasing order).
    pub fn of(topo: &Topology) -> PodPartition {
        // The highest switch tier is spine; with no switches at all
        // (`u8::MAX`) nothing is, and everything is partitionable.
        let spine_tier = topo
            .nodes()
            .iter()
            .filter(|n| !n.kind.is_host())
            .map(|n| n.kind.tier())
            .max()
            .unwrap_or(u8::MAX);
        let is_spine = |n: NodeId| topo.node(n).kind.tier() >= spine_tier;
        let n = topo.node_count();
        let mut pod_of_node: Vec<Option<u32>> = vec![None; n];
        let mut n_pods = 0u32;
        let mut stack: Vec<NodeId> = Vec::new();
        for start in 0..n {
            let s = NodeId(start as u32);
            if pod_of_node[start].is_some() || is_spine(s) {
                continue;
            }
            let id = n_pods;
            n_pods += 1;
            pod_of_node[start] = Some(id);
            stack.push(s);
            while let Some(u) = stack.pop() {
                for &(v, _) in topo.neighbors(u) {
                    let vi = v.0 as usize;
                    if pod_of_node[vi].is_none() && !is_spine(v) {
                        pod_of_node[vi] = Some(id);
                        stack.push(v);
                    }
                }
            }
        }
        PodPartition { pod_of_node, n_pods }
    }

    /// Number of pods found.
    pub fn n_pods(&self) -> usize {
        self.n_pods as usize
    }

    /// The pod containing node `n`, or `None` for spine nodes.
    pub fn pod_of_node(&self, n: NodeId) -> Option<u32> {
        self.pod_of_node[n.0 as usize]
    }

    /// The pod a link belongs to: the common pod of its endpoints, or
    /// `None` for links that touch the spine (uplinks, core links).
    pub fn pod_of_link(&self, link: &Link) -> Option<u32> {
        match (self.pod_of_node(link.a), self.pod_of_node(link.b)) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{dumbbell, two_rack, MultiRootedTreeSpec};
    use crate::units::{GBIT, MICROS};
    use crate::LinkSpec;

    #[test]
    fn multi_rooted_tree_pods_are_the_subtrees() {
        let spec = MultiRootedTreeSpec { pods: 3, ..Default::default() };
        let topo = spec.build();
        let p = PodPartition::of(&topo);
        assert_eq!(p.n_pods(), 3, "one pod per aggregation subtree");
        // Cores are spine; everything below belongs to exactly one pod.
        for n in topo.nodes() {
            match n.kind {
                crate::NodeKind::Core => assert!(p.pod_of_node(n.id).is_none(), "{}", n.name),
                _ => assert!(p.pod_of_node(n.id).is_some(), "{}", n.name),
            }
        }
        // Hosts of the same pod share a pod id; across pods they differ.
        let h = topo.hosts();
        let per_pod = spec.tors_per_pod * spec.hosts_per_tor;
        assert_eq!(p.pod_of_node(h[0]), p.pod_of_node(h[per_pod - 1]));
        assert_ne!(p.pod_of_node(h[0]), p.pod_of_node(h[per_pod]));
        // Host/ToR/ToR-agg links are pod-local; agg-core links are spine.
        for l in topo.links() {
            let touches_core =
                [l.a, l.b].iter().any(|&n| topo.node(n).kind == crate::NodeKind::Core);
            assert_eq!(p.pod_of_link(l).is_none(), touches_core);
        }
    }

    #[test]
    fn second_agg_tier_stays_inside_the_pod() {
        let spec = MultiRootedTreeSpec { second_agg_tier: true, ..Default::default() };
        let topo = spec.build();
        let p = PodPartition::of(&topo);
        assert_eq!(p.n_pods(), spec.pods);
        for n in topo.nodes() {
            if n.kind == crate::NodeKind::Agg2 {
                assert!(p.pod_of_node(n.id).is_some(), "agg2 belongs to its pod");
            }
        }
    }

    #[test]
    fn two_rack_pods_are_the_racks() {
        let t =
            two_rack(4, LinkSpec::new(GBIT, 5 * MICROS), LinkSpec::new(10.0 * GBIT, 5 * MICROS));
        let p = PodPartition::of(&t);
        assert_eq!(p.n_pods(), 2, "one pod per rack, agg switch on the spine");
        let h = t.hosts();
        assert_eq!(p.pod_of_node(h[0]), p.pod_of_node(h[3]));
        assert_ne!(p.pod_of_node(h[0]), p.pod_of_node(h[4]));
        // ToR↔agg uplinks are spine links; host↔ToR links are pod-local.
        let spine_links = t.links().iter().filter(|l| p.pod_of_link(l).is_none()).count();
        assert_eq!(spine_links, 2);
    }

    #[test]
    fn dumbbell_degenerates_to_singleton_pods() {
        // The highest switch tier is ToR, so both switches are spine and
        // every host is its own pod: the all-flows-cross-pod worst case.
        let t = dumbbell(3, LinkSpec::new(GBIT, 5 * MICROS), LinkSpec::new(GBIT, 20 * MICROS));
        let p = PodPartition::of(&t);
        assert_eq!(p.n_pods(), 6);
        for l in t.links() {
            assert_eq!(p.pod_of_link(l), None, "every link touches the spine");
        }
    }

    #[test]
    fn switchless_topology_partitions_all_nodes() {
        // No non-host nodes: nothing is spine, components are pods.
        let mut b = Topology::builder();
        let a = b.node(crate::NodeKind::Host, "a");
        let c = b.node(crate::NodeKind::Host, "c");
        b.link(a, c, LinkSpec::new(GBIT, 0));
        let d = b.node(crate::NodeKind::Host, "d");
        let e = b.node(crate::NodeKind::Host, "e");
        b.link(d, e, LinkSpec::new(GBIT, 0));
        let t = b.build();
        let p = PodPartition::of(&t);
        assert_eq!(p.n_pods(), 2);
        assert!(t.nodes().iter().all(|n| p.pod_of_node(n.id).is_some()), "no spine node");
        assert_eq!(p.pod_of_node(a), p.pod_of_node(c));
        assert_ne!(p.pod_of_node(a), p.pod_of_node(d));
    }
}
