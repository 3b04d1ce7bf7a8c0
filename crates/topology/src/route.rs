//! Equal-cost shortest paths and deterministic per-flow path selection.
//!
//! Datacenter multi-rooted trees have many equal-cost paths between hosts;
//! real fabrics spread flows over them with ECMP (hash of the flow 5-tuple).
//! [`RouteTable`] answers, for every host pair, how many equal-cost shortest
//! paths there are (up to a cap), what the `k`-th one is, and which one a
//! flow's hash picks — deterministically, so both simulators agree on
//! routing and experiments are reproducible.
//!
//! # One shortest-path DAG per transit node
//!
//! A host pair's equal-cost paths are fixed by the switches between the two
//! hosts (§3.3.1 of the paper), so nothing is stored per host pair. Call a
//! node *transit* unless it is a single-homed host (a host with exactly one
//! link — a *leaf*). For every transit root the table keeps the BFS
//! shortest-path DAG over transit nodes: per `(root, node)` one 16-byte
//! record with the node's BFS distance, its shortest-path count saturated
//! at the ECMP cap, and its predecessors in discovery order — the first
//! predecessor and its hop inline when it is the only one, otherwise a
//! range of a shared list that carries each predecessor's own count.
//!
//! The `k`-th path of a pair is *unranked* by walking from the target back
//! to the root: at each node scan the predecessors in order, descend into
//! the first whose count exceeds `k`, otherwise subtract that count from
//! `k`. That enumerates paths in lexicographic order of predecessor index
//! read from the destination end — the order a depth-first unwinding of the
//! same predecessor lists produces — and a saturated count is only ever
//! compared against a `k` below the cap, where it equals the true count.
//! A leaf source contributes its one hop and roots the walk at its
//! neighbour; a leaf destination targets its neighbour and appends its hop.
//!
//! **Why leaving the leaves out moves nothing.** A BFS from a source host
//! over *all* nodes would also discover every leaf, but a leaf is never
//! another node's predecessor: its only neighbour was discovered before it,
//! so when the leaf leaves the queue it finds nothing new. Dropping leaves
//! from the queue therefore changes neither the order in which transit
//! nodes are discovered nor any predecessor list, and a BFS from a leaf
//! source is, after its first step, the BFS from its neighbour. Path set,
//! path order and ECMP pick are exactly those of the all-nodes BFS from
//! each host; the `#[cfg(test)]` reference enumerator in this file is
//! that BFS, and the tests compare the two pair by pair.
//!
//! # Path 0 in three parts
//!
//! Call the transit node a host's walk starts or ends at its *attach*
//! node: a leaf's neighbour (its ToR on a tree), or a transit host itself.
//! A pair's path 0 is the source's leaf hop, then path 0 of the DAG rooted
//! at the source's attach node down to the destination's, then the
//! destination's leaf hop — and the middle part depends on the two attach
//! nodes alone, not on which hosts hang off them. [`RouteTable::path0_parts`]
//! hands a pair's path 0 out in exactly those parts: the lead hop, a
//! [`WalkId`] naming the `(source attach, destination attach)` walk, and
//! the tail hop; [`RouteTable::walk`] unranks a walk's hops. Every pair
//! under the same two ToRs names the same walk, so a caller that prices a
//! path hop by hop can price each walk once and splice. Walk ids are dense,
//! `source attach × attaches + destination attach`, below
//! [`RouteTable::walk_count`]: 1 024 on the 128-host trees, 4 096 on the
//! 512-host tree.
//!
//! # Cost
//!
//! A lookup is `O(hops + predecessors scanned)`: two per-node loads for the
//! endpoints, one record per hop, and for a node with several predecessors
//! a scan of its list that touches no other record. The path comes back by
//! value with its hops inline ([`MAX_PATH_HOPS`]), so nothing allocates.
//! Memory is `O(transit² · fan-in)`: independent of the ECMP cap, and of
//! the host count except through the number of ToRs (0.6 MB for the
//! 512-host tree, 7.8 MB at 2 048 hosts).

use std::fmt;

use crate::graph::{LinkDir, LinkId, NodeId, Topology};

/// One directed hop of a path: a link and the direction it is traversed
/// in, packed as `link << 1 | dir` (`Forward` = 0, `Reverse` = 1).
///
/// The packed value is also the hop's transmission-resource index in both
/// simulators ([`DirectedHop::index`]): directed links are laid out forward
/// then reverse, per link.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectedHop(u32);

impl DirectedHop {
    /// The hop over `link` in direction `dir`.
    pub fn new(link: LinkId, dir: LinkDir) -> Self {
        assert!(link.0 <= u32::MAX >> 1, "{link:?} does not fit a packed hop");
        DirectedHop(link.0 << 1 | matches!(dir, LinkDir::Reverse) as u32)
    }

    /// The link traversed.
    #[inline]
    pub fn link(self) -> LinkId {
        LinkId(self.0 >> 1)
    }

    /// Direction of traversal.
    #[inline]
    pub fn dir(self) -> LinkDir {
        if self.0 & 1 == 0 {
            LinkDir::Forward
        } else {
            LinkDir::Reverse
        }
    }

    /// Flat index of this directed link, `2·link + dir`: where both
    /// simulators keep its capacity and queue.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The same link traversed the other way.
    #[inline]
    pub fn flip(self) -> Self {
        DirectedHop(self.0 ^ 1)
    }
}

impl fmt::Debug for DirectedHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/{:?}", self.link(), self.dir())
    }
}

/// Most hops a [`Path`] can hold. Paths are returned by value with their
/// hops inline, so the bound is a compile-time constant;
/// [`RouteTable::with_max_paths`] panics on a topology with a longer
/// shortest path. The deepest tree of the paper (§4.2) has 8-hop paths.
pub const MAX_PATH_HOPS: usize = 16;

/// A loop-free path between two hosts — or, for a [`RouteTable::walk`],
/// between two attach nodes — as a sequence of directed hops.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Path {
    /// Source host (a walk's source attach node).
    pub src: NodeId,
    /// Destination host (a walk's destination attach node).
    pub dst: NodeId,
    len: u8,
    /// Entries past `len` stay at the filler value, so derived equality
    /// and hashing see only the hops.
    hops: [DirectedHop; MAX_PATH_HOPS],
}

impl Path {
    /// Number of links traversed.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff the path has no hops (src == dst).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hops, in travel order. Empty iff `src == dst`.
    #[inline]
    pub fn hops(&self) -> &[DirectedHop] {
        &self.hops[..self.len as usize]
    }

    /// Sequence of nodes visited, starting at `src` and ending at `dst`.
    pub fn nodes(&self, topo: &Topology) -> Vec<NodeId> {
        let mut out = vec![self.src];
        let mut cur = self.src;
        for h in self.hops() {
            let link = topo.link(h.link());
            debug_assert_eq!(link.tail(h.dir()), cur, "discontinuous path");
            cur = link.head(h.dir());
            out.push(cur);
        }
        out
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Path")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("hops", &self.hops())
            .finish()
    }
}

/// "No such index" in the `u32` index fields below.
const NONE: u32 = u32::MAX;

/// How a node attaches to the transit graph; one per node, by [`NodeId`].
#[derive(Debug, Clone, Copy)]
struct End {
    /// Position in [`Topology::hosts`]; `NONE` for a switch.
    host: u32,
    /// Transit index of the node itself or, for a leaf, of its one
    /// neighbour; `NONE` for a leaf whose neighbour is a leaf too.
    transit: u32,
    /// A leaf's one hop, leaf → neighbour.
    up: DirectedHop,
    /// Single-homed host.
    leaf: bool,
}

/// One node of one root's shortest-path DAG.
#[derive(Debug, Clone, Copy)]
struct Rec {
    /// The one predecessor's transit index (`fan == 1`), or where this
    /// node's predecessors start in `RouteTable::fans` (`fan > 1`).
    pred: u32,
    /// Hop from the one predecessor into this node (`fan == 1`).
    hop: DirectedHop,
    /// Shortest paths from the root, saturated at the cap; 0 = unreachable.
    count: u32,
    /// Number of predecessors (0 for the root).
    fan: u16,
    /// BFS distance from the root.
    dist: u8,
}

const _: () = assert!(std::mem::size_of::<Rec>() == 16);

/// One entry of a multi-predecessor list: the predecessor, the hop from it
/// into the node, and the predecessor's own saturated path count.
#[derive(Debug, Clone, Copy)]
struct Pred {
    node: u32,
    hop: DirectedHop,
    count: u32,
}

/// What a routable host pair resolves to: the leaf hops at either end and
/// the `(root, target)` walk between them.
struct Span {
    lead: Option<DirectedHop>,
    tail: Option<DirectedHop>,
    /// Start of the root's row in `RouteTable::recs`.
    row: usize,
    target: u32,
    dist: u8,
    count: u32,
}

impl Span {
    /// Hops of each of the pair's paths.
    fn hops(&self) -> usize {
        self.lead.is_some() as usize + self.dist as usize + self.tail.is_some() as usize
    }
}

/// Names the transit walk between two attach nodes: the middle part of
/// path 0 of every host pair under them (see
/// [`RouteTable::path0_parts`]). Dense, below [`RouteTable::walk_count`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WalkId(pub u32);

/// A host pair's path 0 in three parts: `lead ++ walk ++ tail` is
/// [`RouteTable::path`]`(src, dst, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathParts {
    /// The source's leaf hop (`None` for a transit source).
    pub lead: Option<DirectedHop>,
    /// The walk between the two attach nodes (`None` when it has no hops:
    /// both hosts attach at the same node, or the path has no transit part
    /// at all).
    pub walk: Option<WalkId>,
    /// The destination's leaf hop (`None` for a transit destination).
    pub tail: Option<DirectedHop>,
}

/// Equal-cost shortest paths between every pair of hosts, held as one
/// shortest-path DAG per transit node (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct RouteTable {
    ends: Vec<End>,
    /// Number of transit nodes.
    transit: usize,
    /// `recs[root * transit + node]`.
    recs: Vec<Rec>,
    /// Predecessor lists of the nodes with more than one.
    fans: Vec<Pred>,
    /// Per transit node: its attach index, `NONE` when no host attaches
    /// there.
    attach: Vec<u32>,
    /// Per attach index: the node, in transit order.
    attach_nodes: Vec<NodeId>,
    max_paths: usize,
}

/// Default ECMP fan-out: equal-cost paths a flow's hash chooses among, per
/// host pair.
pub const DEFAULT_MAX_ECMP_PATHS: usize = 16;

impl RouteTable {
    /// Equal-cost shortest paths among `topo`'s hosts, the first
    /// [`DEFAULT_MAX_ECMP_PATHS`] per pair.
    pub fn new(topo: &Topology) -> Self {
        Self::with_max_paths(topo, DEFAULT_MAX_ECMP_PATHS)
    }

    /// As [`RouteTable::new`] with an explicit ECMP fan-out: a pair with
    /// more equal-cost paths than `max_paths` routes over the first
    /// `max_paths` of them. Which path a flow hash picks depends on it, so
    /// a trajectory is reproducible only under the same value.
    ///
    /// Panics if some shortest path has more than [`MAX_PATH_HOPS`] hops.
    pub fn with_max_paths(topo: &Topology, max_paths: usize) -> Self {
        assert!(max_paths >= 1, "must keep at least one path per pair");
        // Counts are compared against `k < max_paths` only, so saturating
        // them at `u32::MAX` for a larger cap loses nothing a `u32` rank
        // could reach.
        let cap = u32::try_from(max_paths).unwrap_or(u32::MAX);
        let is_leaf = |n: NodeId| topo.node(n).kind.is_host() && topo.neighbors(n).len() == 1;

        let blank = End { host: NONE, transit: NONE, up: DirectedHop(0), leaf: false };
        let mut ends = vec![blank; topo.node_count()];
        for (i, h) in topo.hosts().iter().enumerate() {
            ends[h.0 as usize].host = i as u32;
        }
        let transit_nodes: Vec<NodeId> =
            topo.nodes().iter().map(|n| n.id).filter(|&n| !is_leaf(n)).collect();
        for (i, n) in transit_nodes.iter().enumerate() {
            ends[n.0 as usize].transit = i as u32;
        }
        let t = transit_nodes.len();
        // Transit nodes with a leaf attached: their paths run one hop longer.
        let mut leafy = vec![false; t];
        for &h in topo.hosts().iter().filter(|&&h| is_leaf(h)) {
            let (neighbour, link) = topo.neighbors(h)[0];
            let attach = if is_leaf(neighbour) { NONE } else { ends[neighbour.0 as usize].transit };
            if attach != NONE {
                leafy[attach as usize] = true;
            }
            ends[h.0 as usize] = End {
                transit: attach,
                up: DirectedHop::new(link, topo.link(link).dir_from(h)),
                leaf: true,
                ..ends[h.0 as usize]
            };
        }

        let unreached = Rec { pred: NONE, hop: DirectedHop(0), count: 0, fan: 0, dist: 0 };
        let mut recs = vec![unreached; t * t];
        let mut fans: Vec<Pred> = Vec::new();
        let mut dist = vec![u32::MAX; t];
        let mut preds: Vec<Vec<(u32, DirectedHop)>> = vec![Vec::new(); t];
        // Discovery order; doubles as the BFS queue.
        let mut order: Vec<u32> = Vec::with_capacity(t);
        for root in 0..t {
            let row = &mut recs[root * t..][..t];
            dist.fill(u32::MAX);
            dist[root] = 0;
            order.clear();
            order.push(root as u32);
            let mut head = 0;
            while let Some(&u) = order.get(head) {
                head += 1;
                let du = dist[u as usize];
                let from = transit_nodes[u as usize];
                for &(to, link) in topo.neighbors(from) {
                    let end = ends[to.0 as usize];
                    if end.leaf {
                        continue;
                    }
                    let v = end.transit as usize;
                    if dist[v] == u32::MAX {
                        dist[v] = du + 1;
                        order.push(v as u32);
                    } else if dist[v] != du + 1 {
                        continue;
                    }
                    preds[v].push((u, DirectedHop::new(link, topo.link(link).dir_from(from))));
                }
            }
            row[root] = Rec { count: 1, ..unreached };
            // Discovery order is by distance, so every predecessor's count
            // is final before the node's is summed.
            for &v in &order[1..] {
                let v = v as usize;
                let hops = leafy[root] as u32 + dist[v] + leafy[v] as u32;
                assert!(
                    hops as usize <= MAX_PATH_HOPS,
                    "a shortest path between hosts at {:?} and {:?} has {hops} hops, \
                     over MAX_PATH_HOPS ({MAX_PATH_HOPS})",
                    transit_nodes[root],
                    transit_nodes[v],
                );
                let count = preds[v]
                    .iter()
                    .fold(0u32, |sum, &(p, _)| sum.saturating_add(row[p as usize].count))
                    .min(cap);
                let fan = u16::try_from(preds[v].len()).expect("over 65535 predecessors");
                let (pred, hop) = match preds[v][..] {
                    [(p, hop)] => (p, hop),
                    _ => {
                        let start = u32::try_from(fans.len())
                            .expect("predecessor lists outgrew a u32 index");
                        fans.extend(preds[v].iter().map(|&(p, hop)| Pred {
                            node: p,
                            hop,
                            count: row[p as usize].count,
                        }));
                        (start, DirectedHop(0))
                    }
                };
                row[v] = Rec { pred, hop, count, fan, dist: dist[v] as u8 };
                preds[v].clear();
            }
        }
        fans.shrink_to_fit();
        let mut attach = vec![NONE; t];
        for h in topo.hosts() {
            if let Some(a) = attach.get_mut(ends[h.0 as usize].transit as usize) {
                *a = 0;
            }
        }
        let mut attach_nodes = Vec::new();
        for (a, &node) in attach.iter_mut().zip(&transit_nodes) {
            if *a != NONE {
                *a = attach_nodes.len() as u32;
                attach_nodes.push(node);
            }
        }
        RouteTable { ends, transit: t, recs, fans, attach, attach_nodes, max_paths }
    }

    #[inline]
    fn end(&self, host: NodeId) -> End {
        let end = self.ends[host.0 as usize];
        assert!(end.host != NONE, "{host:?} is not a host");
        end
    }

    /// Position of `host` in [`Topology::hosts`] (O(1)); panics for a
    /// node that is not a host.
    #[inline]
    pub fn host_index(&self, host: NodeId) -> usize {
        self.end(host).host as usize
    }

    /// Resolve a host pair to its walk; `None` if no path joins it.
    #[inline]
    fn span(&self, src: NodeId, dst: NodeId) -> Option<Span> {
        let (s, d) = (self.end(src), self.end(dst));
        let walkless = |lead| Span { lead, tail: None, row: 0, target: 0, dist: 0, count: 1 };
        if src == dst {
            return Some(walkless(None));
        }
        if s.transit == NONE || d.transit == NONE {
            // A leaf whose one neighbour is a leaf reaches that neighbour
            // and nothing else.
            let wired = s.leaf && d.leaf && s.up.link() == d.up.link();
            return wired.then(|| walkless(Some(s.up)));
        }
        let row = s.transit as usize * self.transit;
        let rec = &self.recs[row + d.transit as usize];
        (rec.count > 0).then(|| Span {
            lead: s.leaf.then_some(s.up),
            tail: d.leaf.then(|| d.up.flip()),
            row,
            target: d.transit,
            dist: rec.dist,
            count: rec.count,
        })
    }

    /// Materialise path `k` of `span`, `k < span.count`.
    #[inline]
    fn unrank(&self, src: NodeId, dst: NodeId, span: &Span, mut k: u32) -> Path {
        let first = span.lead.is_some() as usize;
        let walked = first + span.dist as usize;
        let len = span.hops() as u8;
        let mut path = Path { src, dst, len, hops: [DirectedHop(0); MAX_PATH_HOPS] };
        if let Some(hop) = span.lead {
            path.hops[0] = hop;
        }
        if let Some(hop) = span.tail {
            path.hops[walked] = hop;
        }
        let row = &self.recs[span.row..][..self.transit];
        let mut v = span.target;
        for at in (first..walked).rev() {
            let rec = &row[v as usize];
            let (pred, hop) = if rec.fan == 1 {
                (rec.pred, rec.hop)
            } else {
                let list = &self.fans[rec.pred as usize..][..rec.fan as usize];
                let mut pick = None;
                for e in list {
                    if e.count > k {
                        pick = Some((e.node, e.hop));
                        break;
                    }
                    k -= e.count;
                }
                pick.expect("rank below the node's path count")
            };
            path.hops[at] = hop;
            v = pred;
        }
        path
    }

    /// Number of equal-cost shortest paths from `src` to `dst` (both
    /// hosts) that flows are spread over: at most [`RouteTable::max_paths`],
    /// 1 if `src == dst` (the empty path), 0 if no path joins them.
    pub fn path_count(&self, src: NodeId, dst: NodeId) -> usize {
        self.span(src, dst).map_or(0, |s| s.count as usize)
    }

    /// The `k`-th equal-cost shortest path from `src` to `dst` (both
    /// hosts), `k < path_count(src, dst)`, in a fixed order; path 0 is the
    /// one probes and unloaded-RTT estimates use.
    ///
    /// Panics with `no path from …` for an unroutable pair.
    pub fn path(&self, src: NodeId, dst: NodeId, k: usize) -> Path {
        let span = self.span(src, dst).unwrap_or_else(|| no_path(src, dst));
        assert!(k < span.count as usize, "path {k} of {} from {src:?} to {dst:?}", span.count);
        self.unrank(src, dst, &span, k as u32)
    }

    /// The path a flow with hash `flow_hash` uses (ECMP selection).
    ///
    /// Deterministic: the same hash always picks the same path. Panics
    /// with `no path from …` for an unroutable pair.
    #[inline]
    pub fn path_for_flow(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Path {
        let span = self.span(src, dst).unwrap_or_else(|| no_path(src, dst));
        // Mix the hash so consecutive flow ids spread across paths.
        let mixed = splitmix64(flow_hash);
        self.unrank(src, dst, &span, (mixed % span.count as u64) as u32)
    }

    /// Path 0 of `src → dst` (both hosts) in three parts — lead hop, walk,
    /// tail hop — that concatenate to [`RouteTable::path`]`(src, dst, 0)`;
    /// pairs under the same two attach nodes share the walk (see the
    /// [module docs](self)). `O(1)`: no hop is unranked.
    ///
    /// Panics with `no path from …` for an unroutable pair.
    #[inline]
    pub fn path0_parts(&self, src: NodeId, dst: NodeId) -> PathParts {
        let span = self.span(src, dst).unwrap_or_else(|| no_path(src, dst));
        let walk = (span.dist > 0).then(|| {
            let attach = |host: NodeId| self.attach[self.ends[host.0 as usize].transit as usize];
            WalkId(attach(src) * self.attach_nodes.len() as u32 + attach(dst))
        });
        PathParts { lead: span.lead, walk, tail: span.tail }
    }

    /// The hops of `walk`: path 0 from its source attach node to its
    /// destination attach node, which are the returned path's `src` and
    /// `dst`.
    ///
    /// Panics with `no path from …` when no path joins the two.
    pub fn walk(&self, walk: WalkId) -> Path {
        let n = self.attach_nodes.len() as u32;
        let (src, dst) =
            (self.attach_nodes[(walk.0 / n) as usize], self.attach_nodes[(walk.0 % n) as usize]);
        let (root, target) = (self.ends[src.0 as usize].transit, self.ends[dst.0 as usize].transit);
        let row = root as usize * self.transit;
        let rec = &self.recs[row + target as usize];
        if rec.count == 0 {
            no_path(src, dst);
        }
        let span = Span { lead: None, tail: None, row, target, dist: rec.dist, count: rec.count };
        self.unrank(src, dst, &span, 0)
    }

    /// Number of walk ids: the square of the number of attach nodes.
    pub fn walk_count(&self) -> usize {
        self.attach_nodes.len() * self.attach_nodes.len()
    }

    /// Number of links on the shortest path between two hosts (0 iff same
    /// host, `usize::MAX` if no path joins them).
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> usize {
        self.span(src, dst).map_or(usize::MAX, |s| s.hops())
    }

    /// The ECMP fan-out this table was built with.
    pub fn max_paths(&self) -> usize {
        self.max_paths
    }

    /// Bytes of heap the table holds (the capacities of its vectors).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ends.capacity() * size_of::<End>()
            + self.recs.capacity() * size_of::<Rec>()
            + self.fans.capacity() * size_of::<Pred>()
            + self.attach.capacity() * size_of::<u32>()
            + self.attach_nodes.capacity() * size_of::<NodeId>()
    }
}

#[cold]
fn no_path(src: NodeId, dst: NodeId) -> ! {
    panic!("no path from {src:?} to {dst:?}")
}

/// SplitMix64: cheap, well-distributed 64-bit mixer for ECMP hashing.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The all-pairs enumeration [`RouteTable`] is checked against: a BFS from
/// each source host over every node, then a depth-first unwinding of the
/// predecessor lists that stops at the cap.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use super::DirectedHop;
    use crate::graph::{LinkId, NodeId, Topology};

    /// Equal-cost shortest paths from `src` to every host, in
    /// [`Topology::hosts`] order, at most `max_paths` each.
    pub fn bfs_all(topo: &Topology, src: NodeId, max_paths: usize) -> Vec<Vec<Vec<DirectedHop>>> {
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
                    return vec![Vec::new()];
                }
                if dist[dst.0 as usize] == u32::MAX {
                    return Vec::new(); // disconnected
                }
                let mut acc = Vec::new();
                let mut stack = Vec::new();
                unwind(topo, &preds, src, dst, &mut stack, &mut acc, max_paths);
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
        acc: &mut Vec<Vec<DirectedHop>>,
        max_paths: usize,
    ) {
        if acc.len() >= max_paths {
            return;
        }
        if cur == src {
            let mut hops = stack.clone();
            hops.reverse();
            acc.push(hops);
            return;
        }
        for &(p, l) in &preds[cur.0 as usize] {
            stack.push(DirectedHop::new(l, topo.link(l).dir_from(p)));
            unwind(topo, preds, src, p, stack, acc, max_paths);
            stack.pop();
            if acc.len() >= max_paths {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::graph::{LinkSpec, NodeKind, Topology};
    use crate::tree::{dumbbell, two_rack, MultiRootedTreeSpec};
    use crate::units::{GBIT, MICROS};

    const SPEC: LinkSpec = LinkSpec { rate_bps: GBIT, delay: MICROS };

    /// Build a graph from node kinds (`true` = host) and an edge list.
    fn graph(hosts: &[bool], edges: &[(usize, usize)]) -> Topology {
        let mut b = Topology::builder();
        let ids: Vec<NodeId> = hosts
            .iter()
            .enumerate()
            .map(|(i, &h)| b.node(if h { NodeKind::Host } else { NodeKind::Tor }, format!("n{i}")))
            .collect();
        for &(x, y) in edges {
            b.link(ids[x], ids[y], SPEC);
        }
        b.build()
    }

    /// Two hosts connected via two parallel 2-hop routes (ECMP diamond):
    /// both hosts are multi-homed, hence transit nodes.
    fn diamond() -> Topology {
        graph(&[true, true, false, false], &[(0, 2), (0, 3), (2, 1), (3, 1)])
    }

    /// Two islands: `h0 — s — h1` and `h2 — s' — h3`.
    fn two_islands() -> Topology {
        graph(&[true, true, false, true, true, false], &[(0, 2), (1, 2), (3, 5), (4, 5)])
    }

    const H: bool = true;
    const S: bool = false;

    /// General graphs off the tree shape, one routing corner each.
    fn corner_graphs() -> Vec<(&'static str, Topology)> {
        vec![
            ("diamond", diamond()),
            ("two islands", two_islands()),
            // h0 is homed on both switches and is the only way between
            // them: it carries h1 ↔ h2 as a transit node.
            (
                "multi-homed host in transit",
                graph(&[H, H, H, S, S], &[(0, 3), (0, 4), (1, 3), (2, 4)]),
            ),
            ("isolated host", graph(&[H, H, S, H], &[(0, 2), (1, 2)])),
            // h0 — h1 wired back to back beside a normal rack.
            ("two hosts wired directly", graph(&[H, H, H, H, S], &[(0, 1), (2, 4), (3, 4)])),
            // h0 hangs off h1, which is dual-homed (h0's link and the ToR's).
            ("a host hanging off a host", graph(&[H, H, H, S], &[(0, 1), (1, 3), (2, 3)])),
            // A 5-cycle of switches: odd-length, so some pairs have one
            // shortest path and none has two of different parity.
            (
                "odd-length path",
                graph(
                    &[S, S, S, S, S, H, H, H],
                    &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (6, 2), (7, 3)],
                ),
            ),
            // A 2 × 2 leaf-spine pod next to an unconnected rack; parallel
            // links between one leaf and one spine.
            (
                "a disconnected half",
                graph(
                    &[H, H, S, S, S, S, H, H, S],
                    &[(0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 5), (6, 8), (7, 8)],
                ),
            ),
        ]
    }

    /// Every host pair of `topo`: same path count, same paths hop for hop
    /// in the same order, same hop count, same ECMP pick as the reference.
    fn check_against_reference(name: &str, topo: &Topology, max_paths: usize) {
        let rt = RouteTable::with_max_paths(topo, max_paths);
        for &src in topo.hosts() {
            let from_src = reference::bfs_all(topo, src, max_paths);
            for (&dst, want) in topo.hosts().iter().zip(&from_src) {
                let ctx = format!("{name}, cap {max_paths}, {src:?} -> {dst:?}");
                assert_eq!(rt.path_count(src, dst), want.len(), "path count: {ctx}");
                for (k, hops) in want.iter().enumerate() {
                    let got = rt.path(src, dst, k);
                    assert_eq!(got.hops(), &hops[..], "path {k}: {ctx}");
                    assert_eq!((got.src, got.dst, got.len()), (src, dst, hops.len()), "{ctx}");
                    assert_eq!(got.nodes(topo).last(), Some(&dst), "path {k} end: {ctx}");
                }
                let want_hops = want.first().map_or(usize::MAX, Vec::len);
                assert_eq!(rt.hop_count(src, dst), want_hops, "hop count: {ctx}");
                if want.is_empty() {
                    continue;
                }
                for i in 0..32u64 {
                    let hash = splitmix64(i ^ ((src.0 as u64) << 32 | dst.0 as u64));
                    let pick = &want[(splitmix64(hash) % want.len() as u64) as usize];
                    assert_eq!(rt.path_for_flow(src, dst, hash).hops(), &pick[..], "pick: {ctx}");
                }
            }
        }
        check_path0_parts(name, topo, &rt);
    }

    /// For every routable host pair of `topo`: the lead hop, the walk's
    /// hops and the tail hop of [`RouteTable::path0_parts`] are path 0 hop
    /// for hop, and every pair that names a walk id finds the same middle
    /// hops under it — the ones [`RouteTable::walk`] unranks.
    fn check_path0_parts(name: &str, topo: &Topology, rt: &RouteTable) {
        let mut walks: Vec<Option<Path>> = vec![None; rt.walk_count()];
        for &src in topo.hosts() {
            for &dst in topo.hosts() {
                if rt.path_count(src, dst) == 0 {
                    continue;
                }
                let ctx = || format!("{name}, {src:?} -> {dst:?}");
                let path = rt.path(src, dst, 0);
                let parts = rt.path0_parts(src, dst);
                let hops = path.hops();
                let (lead, tail) = (parts.lead.is_some() as usize, parts.tail.is_some() as usize);
                assert!(lead + tail <= hops.len(), "{}: {parts:?} vs {path:?}", ctx());
                assert_eq!(parts.lead, lead.checked_sub(1).map(|_| hops[0]), "lead: {}", ctx());
                assert_eq!(
                    parts.tail,
                    tail.checked_sub(1).map(|_| hops[hops.len() - 1]),
                    "tail: {}",
                    ctx()
                );
                let middle = &hops[lead..hops.len() - tail];
                let Some(w) = parts.walk else {
                    assert!(middle.is_empty(), "no walk, but transit hops: {}", ctx());
                    continue;
                };
                let walk = walks[w.0 as usize].get_or_insert_with(|| rt.walk(w));
                assert_eq!(walk.hops(), middle, "{w:?}: {}", ctx());
            }
        }
    }

    /// The trees the perf ledger runs on, and the 2 048-host rung of the
    /// scenario suite, with the ECMP caps they run at.
    fn ledger_trees() -> Vec<(&'static str, MultiRootedTreeSpec, usize)> {
        let tree_128 = MultiRootedTreeSpec {
            cores: 2,
            pods: 8,
            aggs_per_pod: 2,
            tors_per_pod: 4,
            hosts_per_tor: 4,
            ..Default::default()
        };
        let scale_512 = MultiRootedTreeSpec {
            cores: 4,
            pods: 8,
            aggs_per_pod: 4,
            tors_per_pod: 8,
            hosts_per_tor: 8,
            ..Default::default()
        };
        let serve = MultiRootedTreeSpec { pods: 16, hosts_per_tor: 4, ..Default::default() };
        let rung_2048 = MultiRootedTreeSpec {
            cores: 8,
            pods: 16,
            aggs_per_pod: 4,
            tors_per_pod: 16,
            hosts_per_tor: 8,
            ..Default::default()
        };
        vec![
            ("steady-sim / failover-sim", tree_128, 16),
            ("scale-512", scale_512, 4),
            ("serve-loopback", serve, 16),
            ("2 048 hosts", rung_2048, 4),
        ]
    }

    #[test]
    fn route_path0_parts_splice_to_path_0_on_the_ledger_trees() {
        for (name, spec, cap) in ledger_trees() {
            let topo = spec.build();
            let rt = RouteTable::with_max_paths(&topo, cap);
            check_path0_parts(name, &topo, &rt);
            // One walk per ordered pair of ToRs, a ToR being where hosts
            // attach on a tree.
            let tors = spec.pods * spec.tors_per_pod;
            assert_eq!(rt.walk_count(), tors * tors, "{name}");
        }
    }

    const CAPS: [usize; 4] = [1, 3, 4, 16];

    #[test]
    fn route_table_matches_reference_on_canned_and_corner_graphs() {
        let mut topos = corner_graphs();
        topos.push(("dumbbell", dumbbell(3, SPEC, SPEC)));
        topos.push(("two_rack", two_rack(3, SPEC, SPEC)));
        for (name, topo) in &topos {
            for cap in CAPS {
                check_against_reference(name, topo, cap);
            }
        }
    }

    proptest! {
        #[test]
        fn route_table_matches_reference_on_random_trees(
            cores in 1usize..4,
            pods in 1usize..4,
            aggs in 1usize..4,
            tors in 1usize..3,
            hosts in 1usize..3,
            deep in any::<bool>(),
        ) {
            let spec = MultiRootedTreeSpec {
                cores,
                pods,
                aggs_per_pod: aggs,
                tors_per_pod: tors,
                hosts_per_tor: hosts,
                second_agg_tier: deep,
                ..Default::default()
            };
            let topo = spec.build();
            for cap in CAPS {
                check_against_reference("tree", &topo, cap);
            }
        }

        #[test]
        fn route_table_matches_reference_on_random_graphs(
            kinds in prop::collection::vec(any::<bool>(), 2..10),
            edges in prop::collection::vec((0usize..10, 0usize..10), 0..18),
        ) {
            let n = kinds.len();
            let edges: Vec<(usize, usize)> =
                edges.into_iter().map(|(x, y)| (x % n, y % n)).filter(|(x, y)| x != y).collect();
            let topo = graph(&kinds, &edges);
            for cap in CAPS {
                check_against_reference("random graph", &topo, cap);
            }
        }
    }

    #[test]
    fn diamond_has_two_equal_cost_paths() {
        let t = diamond();
        let rt = RouteTable::new(&t);
        assert_eq!(rt.path_count(NodeId(0), NodeId(1)), 2);
        let ps = [rt.path(NodeId(0), NodeId(1), 0), rt.path(NodeId(0), NodeId(1), 1)];
        for p in &ps {
            assert_eq!(p.len(), 2);
            let nodes = p.nodes(&t);
            assert_eq!(nodes.first(), Some(&NodeId(0)));
            assert_eq!(nodes.last(), Some(&NodeId(1)));
        }
        // The two paths traverse different middle switches.
        assert_ne!(ps[0].nodes(&t)[1], ps[1].nodes(&t)[1]);
    }

    #[test]
    fn ecmp_selection_is_deterministic_and_spreads() {
        let t = diamond();
        let rt = RouteTable::new(&t);
        let p1 = rt.path_for_flow(NodeId(0), NodeId(1), 7);
        let p2 = rt.path_for_flow(NodeId(0), NodeId(1), 7);
        assert_eq!(p1, p2);
        // Over many hashes, both paths get used.
        let mut seen = std::collections::HashSet::new();
        for h in 0..64u64 {
            seen.insert(rt.path_for_flow(NodeId(0), NodeId(1), h));
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
        for k in 0..rt.path_count(NodeId(0), NodeId(1)) {
            let p = rt.path(NodeId(0), NodeId(1), k);
            assert_eq!(p.nodes(&t).len(), p.len() + 1);
        }
    }

    #[test]
    fn max_paths_caps_enumeration() {
        let t = diamond();
        let rt = RouteTable::with_max_paths(&t, 1);
        assert_eq!(rt.path_count(NodeId(0), NodeId(1)), 1);
        assert_eq!(rt.max_paths(), 1);
    }

    #[test]
    fn self_path_is_empty() {
        let t = diamond();
        let rt = RouteTable::new(&t);
        assert_eq!(rt.path_count(NodeId(0), NodeId(0)), 1);
        assert!(rt.path(NodeId(0), NodeId(0), 0).is_empty());
        assert!(rt.path_for_flow(NodeId(0), NodeId(0), 99).is_empty());
    }

    #[test]
    fn two_leaves_wired_together_have_one_one_hop_path() {
        let t = graph(&[H, H, H, H, S], &[(0, 1), (2, 4), (3, 4)]);
        let rt = RouteTable::new(&t);
        for (a, b) in [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))] {
            assert_eq!(rt.path_count(a, b), 1);
            let p = rt.path(a, b, 0);
            assert_eq!(p.nodes(&t), vec![a, b]);
            assert_eq!(rt.hop_count(a, b), 1);
        }
        // Nothing else is reachable from the pair, nor the pair from it.
        assert_eq!(rt.path_count(NodeId(0), NodeId(2)), 0);
        assert_eq!(rt.path_count(NodeId(3), NodeId(1)), 0);
        assert_eq!(rt.hop_count(NodeId(0), NodeId(2)), usize::MAX);
    }

    #[test]
    fn disconnected_and_isolated_hosts_have_no_path() {
        let t = two_islands();
        let rt = RouteTable::new(&t);
        assert_eq!(rt.path_count(NodeId(0), NodeId(1)), 1);
        assert_eq!(rt.path_count(NodeId(0), NodeId(3)), 0);
        assert_eq!(rt.hop_count(NodeId(4), NodeId(1)), usize::MAX);
        let t = graph(&[H, H, S, H], &[(0, 2), (1, 2)]);
        let rt = RouteTable::new(&t);
        assert_eq!(rt.path_count(NodeId(3), NodeId(3)), 1);
        assert_eq!(rt.path_count(NodeId(3), NodeId(0)), 0);
        assert_eq!(rt.path_count(NodeId(1), NodeId(3)), 0);
    }

    #[test]
    fn multi_homed_hosts_carry_transit_traffic() {
        // h1 — s3 — h0 — s4 — h2: the only way across is through h0.
        let t = graph(&[H, H, H, S, S], &[(0, 3), (0, 4), (1, 3), (2, 4)]);
        let rt = RouteTable::new(&t);
        let p = rt.path(NodeId(1), NodeId(2), 0);
        assert_eq!(p.nodes(&t), vec![NodeId(1), NodeId(3), NodeId(0), NodeId(4), NodeId(2)]);
        // A leaf hanging off a host routes through it as well.
        let t = graph(&[H, H, H, S], &[(0, 1), (1, 3), (2, 3)]);
        let rt = RouteTable::new(&t);
        assert_eq!(rt.path(NodeId(0), NodeId(1), 0).nodes(&t), vec![NodeId(0), NodeId(1)]);
        assert_eq!(
            rt.path(NodeId(2), NodeId(0), 0).nodes(&t),
            vec![NodeId(2), NodeId(3), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    #[should_panic(expected = "no path from")]
    fn path_of_an_unroutable_pair_panics_by_name() {
        let rt = RouteTable::new(&two_islands());
        rt.path(NodeId(0), NodeId(3), 0);
    }

    #[test]
    #[should_panic(expected = "no path from")]
    fn flow_path_of_an_unroutable_pair_panics_by_name() {
        let rt = RouteTable::new(&two_islands());
        rt.path_for_flow(NodeId(0), NodeId(3), 7);
    }

    /// Two hosts `hops` links apart, at the ends of a chain of switches.
    fn chain(hops: usize) -> Topology {
        let mut kinds = vec![S; hops + 1];
        kinds[0] = H;
        kinds[hops] = H;
        let edges: Vec<(usize, usize)> = (0..hops).map(|i| (i, i + 1)).collect();
        graph(&kinds, &edges)
    }

    #[test]
    #[should_panic(expected = "over MAX_PATH_HOPS")]
    fn a_path_longer_than_the_inline_bound_is_refused_at_build() {
        RouteTable::new(&chain(MAX_PATH_HOPS + 1));
    }

    #[test]
    fn a_path_of_exactly_the_inline_bound_routes() {
        let t = chain(MAX_PATH_HOPS);
        let rt = RouteTable::new(&t);
        let (a, b) = (NodeId(0), NodeId(MAX_PATH_HOPS as u32));
        assert_eq!(rt.hop_count(a, b), MAX_PATH_HOPS);
        assert_eq!(rt.path(a, b, 0).nodes(&t).len(), MAX_PATH_HOPS + 1);
    }

    #[test]
    fn directed_hop_packs_link_and_direction() {
        let h = DirectedHop::new(LinkId(5), LinkDir::Reverse);
        assert_eq!((h.link(), h.dir(), h.index()), (LinkId(5), LinkDir::Reverse, 11));
        assert_eq!(h.flip(), DirectedHop::new(LinkId(5), LinkDir::Forward));
        assert_eq!(h.flip().index(), 10);
        assert_eq!(h.flip().flip(), h);
    }

    #[test]
    fn heap_bytes_does_not_grow_with_the_ecmp_cap() {
        let topo = MultiRootedTreeSpec::default().build();
        let narrow = RouteTable::with_max_paths(&topo, 1).heap_bytes();
        let wide = RouteTable::with_max_paths(&topo, 64).heap_bytes();
        assert_eq!(narrow, wide);
        assert!(narrow > 0);
    }

    #[test]
    fn splitmix_distributes() {
        // Not a statistical test; just confirm consecutive inputs diverge.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
    }
}
