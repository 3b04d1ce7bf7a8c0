//! Equal-cost shortest paths and deterministic per-flow path selection.
//!
//! Datacenter multi-rooted trees have many equal-cost paths between hosts;
//! real fabrics spread flows over them with ECMP (hash of the flow 5-tuple).
//! [`RouteTable`] precomputes, for every host pair, the full set of equal-cost
//! shortest paths and picks one per flow with a deterministic hash, so both
//! simulators agree on routing and experiments are reproducible.

use std::collections::VecDeque;

use crate::graph::{LinkDir, LinkId, NodeId, Topology};

/// One directed hop of a path: traverse `link` in direction `dir`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectedHop {
    /// The link traversed.
    pub link: LinkId,
    /// Direction of traversal.
    pub dir: LinkDir,
}

/// A loop-free path between two hosts, as a sequence of directed hops.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Hops, in travel order. Empty iff `src == dst`.
    pub hops: Vec<DirectedHop>,
}

impl Path {
    /// Number of links traversed.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True iff the path has no hops (src == dst).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Sequence of nodes visited, starting at `src` and ending at `dst`.
    pub fn nodes(&self, topo: &Topology) -> Vec<NodeId> {
        let mut out = vec![self.src];
        let mut cur = self.src;
        for h in &self.hops {
            let link = topo.link(h.link);
            debug_assert_eq!(link.tail(h.dir), cur, "discontinuous path");
            cur = link.head(h.dir);
            out.push(cur);
        }
        out
    }
}

/// Precomputed equal-cost shortest paths between every pair of hosts.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// `paths[src_host_index][dst_host_index]` = all equal-cost shortest
    /// paths, deterministic order. Indexed by position in `topo.hosts()`.
    paths: Vec<Vec<Vec<Path>>>,
    host_index: Vec<Option<u32>>, // NodeId -> host index
    /// Cap on equal-cost paths retained per pair (memory guard).
    max_paths: usize,
}

/// Default cap on the number of equal-cost paths stored per host pair.
pub const DEFAULT_MAX_ECMP_PATHS: usize = 16;

impl RouteTable {
    /// Compute all-pairs equal-cost shortest paths among `topo`'s hosts,
    /// keeping at most [`DEFAULT_MAX_ECMP_PATHS`] per pair.
    pub fn new(topo: &Topology) -> Self {
        Self::with_max_paths(topo, DEFAULT_MAX_ECMP_PATHS)
    }

    /// As [`RouteTable::new`] but with an explicit cap per pair.
    pub fn with_max_paths(topo: &Topology, max_paths: usize) -> Self {
        assert!(max_paths >= 1, "must keep at least one path per pair");
        let hosts = topo.hosts();
        let mut host_index = vec![None; topo.node_count()];
        for (i, h) in hosts.iter().enumerate() {
            host_index[h.0 as usize] = Some(i as u32);
        }
        let mut paths = Vec::with_capacity(hosts.len());
        for &src in hosts {
            paths.push(Self::bfs_all(topo, src, max_paths));
        }
        RouteTable { paths, host_index, max_paths }
    }

    /// BFS from `src`, enumerating equal-cost shortest paths to every host.
    fn bfs_all(topo: &Topology, src: NodeId, max_paths: usize) -> Vec<Vec<Path>> {
        let n = topo.node_count();
        let mut dist = vec![u32::MAX; n];
        // preds[v] = (pred node, link) pairs on *some* shortest path
        let mut preds: Vec<Vec<(NodeId, LinkId)>> = vec![Vec::new(); n];
        dist[src.0 as usize] = 0;
        let mut q = VecDeque::new();
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            let du = dist[u.0 as usize];
            for &(v, l) in topo.neighbors(u) {
                let dv = &mut dist[v.0 as usize];
                if *dv == u32::MAX {
                    *dv = du + 1;
                    preds[v.0 as usize].push((u, l));
                    q.push_back(v);
                } else if *dv == du + 1 {
                    preds[v.0 as usize].push((u, l));
                }
            }
        }
        topo.hosts()
            .iter()
            .map(|&dst| {
                if dst == src {
                    return vec![Path { src, dst, hops: Vec::new() }];
                }
                if dist[dst.0 as usize] == u32::MAX {
                    return Vec::new(); // disconnected
                }
                let mut acc = Vec::new();
                let mut stack = Vec::new();
                Self::unwind(topo, &preds, src, dst, &mut stack, &mut acc, max_paths);
                acc
            })
            .collect()
    }

    /// Depth-first unwinding of the predecessor DAG from `dst` back to `src`.
    fn unwind(
        topo: &Topology,
        preds: &[Vec<(NodeId, LinkId)>],
        src: NodeId,
        cur: NodeId,
        stack: &mut Vec<DirectedHop>,
        acc: &mut Vec<Path>,
        max_paths: usize,
    ) {
        if acc.len() >= max_paths {
            return;
        }
        if cur == src {
            let mut hops = stack.clone();
            hops.reverse();
            acc.push(Path { src, dst: Self::path_dst(topo, src, &hops), hops });
            return;
        }
        for &(p, l) in &preds[cur.0 as usize] {
            let dir = topo.link(l).dir_from(p);
            stack.push(DirectedHop { link: l, dir });
            Self::unwind(topo, preds, src, p, stack, acc, max_paths);
            stack.pop();
            if acc.len() >= max_paths {
                return;
            }
        }
    }

    fn path_dst(topo: &Topology, src: NodeId, hops: &[DirectedHop]) -> NodeId {
        let mut cur = src;
        for h in hops {
            cur = topo.link(h.link).head(h.dir);
        }
        cur
    }

    /// Position of `host` in [`Topology::hosts`] (O(1)); panics for a
    /// node that is not a host.
    pub fn host_index(&self, host: NodeId) -> usize {
        self.host_index[host.0 as usize].unwrap_or_else(|| panic!("{host:?} is not a host"))
            as usize
    }

    /// All equal-cost shortest paths from `src` to `dst` (both hosts).
    pub fn paths(&self, src: NodeId, dst: NodeId) -> &[Path] {
        &self.paths[self.host_index(src)][self.host_index(dst)]
    }

    /// The path a flow with hash `flow_hash` uses (ECMP selection).
    ///
    /// Deterministic: the same hash always picks the same path.
    pub fn path_for_flow(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> &Path {
        let ps = self.paths(src, dst);
        assert!(!ps.is_empty(), "no path from {src:?} to {dst:?}");
        // Mix the hash so consecutive flow ids spread across paths.
        let mixed = splitmix64(flow_hash);
        &ps[(mixed % ps.len() as u64) as usize]
    }

    /// Number of links on the shortest path between two hosts
    /// (0 iff same host).
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> usize {
        if src == dst {
            return 0;
        }
        self.paths(src, dst).first().map_or(usize::MAX, Path::len)
    }

    /// The configured cap on stored equal-cost paths per pair.
    pub fn max_paths(&self) -> usize {
        self.max_paths
    }
}

/// SplitMix64: cheap, well-distributed 64-bit mixer for ECMP hashing.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkSpec, NodeKind, Topology};
    use crate::units::{GBIT, MICROS};

    /// Two hosts connected via two parallel 2-hop routes (ECMP diamond).
    fn diamond() -> Topology {
        let mut b = Topology::builder();
        let h0 = b.node(NodeKind::Host, "h0");
        let h1 = b.node(NodeKind::Host, "h1");
        let s0 = b.node(NodeKind::Tor, "s0");
        let s1 = b.node(NodeKind::Tor, "s1");
        let spec = LinkSpec::new(GBIT, MICROS);
        b.link(h0, s0, spec);
        b.link(h0, s1, spec);
        b.link(s0, h1, spec);
        b.link(s1, h1, spec);
        b.build()
    }

    #[test]
    fn diamond_has_two_equal_cost_paths() {
        let t = diamond();
        let rt = RouteTable::new(&t);
        let ps = rt.paths(NodeId(0), NodeId(1));
        assert_eq!(ps.len(), 2);
        for p in ps {
            assert_eq!(p.len(), 2);
            let nodes = p.nodes(&t);
            assert_eq!(nodes.first(), Some(&NodeId(0)));
            assert_eq!(nodes.last(), Some(&NodeId(1)));
        }
        // The two paths traverse different middle switches.
        let mids: Vec<NodeId> = ps.iter().map(|p| p.nodes(&t)[1]).collect();
        assert_ne!(mids[0], mids[1]);
    }

    #[test]
    fn ecmp_selection_is_deterministic_and_spreads() {
        let t = diamond();
        let rt = RouteTable::new(&t);
        let p1 = rt.path_for_flow(NodeId(0), NodeId(1), 7).clone();
        let p2 = rt.path_for_flow(NodeId(0), NodeId(1), 7).clone();
        assert_eq!(p1, p2);
        // Over many hashes, both paths get used.
        let mut seen = std::collections::HashSet::new();
        for h in 0..64u64 {
            seen.insert(rt.path_for_flow(NodeId(0), NodeId(1), h).hops.clone());
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn hop_count_same_host_is_zero() {
        let t = diamond();
        let rt = RouteTable::new(&t);
        assert_eq!(rt.hop_count(NodeId(0), NodeId(0)), 0);
        assert_eq!(rt.hop_count(NodeId(0), NodeId(1)), 2);
    }

    #[test]
    fn path_nodes_are_contiguous() {
        let t = diamond();
        let rt = RouteTable::new(&t);
        for p in rt.paths(NodeId(0), NodeId(1)) {
            let nodes = p.nodes(&t);
            assert_eq!(nodes.len(), p.len() + 1);
        }
    }

    #[test]
    fn max_paths_caps_enumeration() {
        let t = diamond();
        let rt = RouteTable::with_max_paths(&t, 1);
        assert_eq!(rt.paths(NodeId(0), NodeId(1)).len(), 1);
        assert_eq!(rt.max_paths(), 1);
    }

    #[test]
    fn self_path_is_empty() {
        let t = diamond();
        let rt = RouteTable::new(&t);
        let ps = rt.paths(NodeId(0), NodeId(0));
        assert_eq!(ps.len(), 1);
        assert!(ps[0].is_empty());
    }

    #[test]
    fn splitmix_distributes() {
        // Not a statistical test; just confirm consecutive inputs diverge.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
    }
}
