//! Datacenter topology model for the Choreo reproduction.
//!
//! Choreo (IMC 2013, §3.3.1) assumes datacenter networks are multi-rooted
//! trees: virtual machines live on physical hosts, hosts hang off top-of-rack
//! (ToR) switches, ToRs connect to one or two aggregation tiers, and
//! aggregation switches connect to a set of core switches. All paths in such
//! a topology have an even number of hops (or one hop, for two VMs sharing a
//! physical host).
//!
//! This crate provides:
//!
//! * [`Topology`] — an explicit graph of nodes ([`NodeKind`]) and full-duplex
//!   [`Link`]s with per-direction capacity, built either by hand via
//!   [`TopologyBuilder`] or from canned generators in [`tree`]
//!   (multi-rooted trees, the ns-2 dumbbell of Fig. 3(a), the two-rack cloud
//!   of Fig. 3(b)).
//! * [`pods`] — pod partitioning ([`PodPartition`]): spine switches vs
//!   per-pod subtrees, the locality structure the per-pod capacity-loss
//!   gauges report over.
//! * [`route`] — equal-cost shortest paths and deterministic per-flow path
//!   selection (ECMP by flow hash), used by both the packet-level and the
//!   flow-level simulators: one shortest-path DAG per switch
//!   ([`RouteTable`]), from which a pair's `k`-th [`Path`] is materialised
//!   on demand and returned by value; a [`DirectedHop`] packs to the
//!   simulators' resource index.
//! * [`vmmap`] — the VM→host mapping layer ([`VmMap`]), VM-level hop counts
//!   (`1` for co-located VMs, link count otherwise) and the traceroute
//!   emulation with provider-specific visibility (Rackspace hides tiers;
//!   §4.2 of the paper observed only 1- and 4-hop paths there).
//! * [`timer`] — the one timer queue ([`TimerQueue`]: earliest first,
//!   scheduling order among events due at the same instant) and the
//!   exponential holding-time draw ([`exp_holding`]) that the packet and
//!   flow simulators and the seeded event streams share.
//!
//! Rates are bits/second (`f64`), time is nanoseconds (`u64`); see [`units`].

pub mod graph;
pub mod pods;
pub mod route;
pub mod timer;
pub mod tree;
pub mod units;
pub mod vmmap;

pub use graph::{
    Link, LinkDir, LinkId, LinkSpec, Node, NodeId, NodeKind, Topology, TopologyBuilder, LOOPBACK,
};
pub use pods::PodPartition;
pub use route::{DirectedHop, Path, PathParts, RouteTable, WalkId};
pub use timer::{exp_holding, TimerQueue};
pub use tree::{dumbbell, two_rack, MultiRootedTreeSpec};
pub use units::{Nanos, GBIT, KBIT, MBIT, MICROS, MILLIS, SECS};
pub use vmmap::{TracerouteStyle, VmId, VmMap};
