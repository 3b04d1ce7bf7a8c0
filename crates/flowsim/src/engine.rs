//! The flow-level simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use choreo_metrics::span;
use choreo_topology::route::splitmix64;
use choreo_topology::{LinkSpec, Nanos, NodeId, PodPartition, RouteTable, Topology, WalkId};

use crate::fairshare::{
    fold_rate, max_min_rates, FlowArena, FlowSlot, Fold, MaxMinSolver, ProbeRecord,
};

/// Handle to a flow in a [`FlowSim`].
///
/// The raw `u32` packs a **record index** (low `KEY_INDEX_BITS` bits)
/// and a **generation stamp** (high bits). Retiring a flow and releasing
/// its record ([`FlowSim::release_flow`]) bumps the record's generation,
/// so any key minted before the release no longer matches: using it is a
/// *checked* error (panic with a "stale FlowKey" message), never a silent
/// read of whichever flow reused the record. Treat the inner value as
/// opaque — only keys returned by the simulator are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey(pub u32);

/// Low bits of a [`FlowKey`] that address the flow record. 22 bits allow
/// ~4M concurrently allocated records; the remaining 10 bits carry the
/// generation stamp.
const KEY_INDEX_BITS: u32 = 22;
const KEY_INDEX_MASK: u32 = (1 << KEY_INDEX_BITS) - 1;
/// Generations wrap after 1024 releases of one record; a key must be both
/// stale *and* exactly 1024·k releases old to slip past the check, which
/// is far outside any key-holding window the engine's callers have.
const KEY_GEN_MASK: u32 = (1 << (32 - KEY_INDEX_BITS)) - 1;

impl FlowKey {
    #[inline]
    fn pack(index: u32, generation: u32) -> FlowKey {
        FlowKey((generation << KEY_INDEX_BITS) | index)
    }
    #[inline]
    fn index(self) -> u32 {
        self.0 & KEY_INDEX_MASK
    }
    #[inline]
    fn generation(self) -> u32 {
        self.0 >> KEY_INDEX_BITS
    }
}

/// Handle to a hose (per-VM egress cap) resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HoseId(pub u32);

/// Lifecycle state of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStatus {
    /// Scheduled but not yet started.
    Pending,
    /// Transferring.
    Active,
    /// Finished (bounded flows) or stopped; carries the end time.
    Done(Nanos),
}

/// Sentinel for "flow not in the arena".
const NO_SLOT: u32 = u32::MAX;

/// Engine resource id of a directed link hop: [`DirectedHop::index`].
///
/// [`FlowSim`] lays capacities out as the `2·L` directed links first
/// (forward then reverse, per link — the order a hop packs to), followed
/// by per-host loopbacks and hoses. This is *the* mapping for turning a
/// routed path into solver resources — benches and tests that drive
/// [`FlowArena`] directly must use it rather than re-encode the layout.
///
/// [`DirectedHop::index`]: choreo_topology::route::DirectedHop::index
#[inline]
pub fn hop_resource(hop: &choreo_topology::route::DirectedHop) -> u32 {
    hop.index() as u32
}

#[derive(Debug)]
struct Flow {
    resources: Vec<u32>,
    /// Arena slot while the flow is active; `NO_SLOT` otherwise.
    slot: u32,
    /// Remaining payload bytes; `None` = unbounded.
    remaining: Option<f64>,
    /// Delivered bytes as of eviction from the arena. While the flow is
    /// live the counter is `FlowSim::delivered[slot]`; this is 0 until it
    /// is settled here.
    delivered: f64,
    status: FlowStatus,
    started_at: Nanos,
    /// Caller-assigned grouping tag (e.g. application id).
    tag: u64,
    /// Generation stamp a [`FlowKey`] must match to address this record;
    /// bumped on every release so stale keys are rejected.
    generation: u32,
}

/// Tag of background ON–OFF flows; their records are reclaimed as soon as
/// the toggle-off stop fires (no caller ever harvests their stats).
const TAG_ONOFF: u64 = u64::MAX - 1;

/// Per-tag completion bookkeeping, maintained incrementally on flow
/// creation/retirement/release so [`FlowSim::tag_completion`] is an O(1)
/// lookup instead of a scan over all-time flow records.
#[derive(Debug, Default, Clone, Copy)]
struct TagStat {
    /// Flows with this tag still `Pending` or `Active`.
    unfinished: u32,
    /// Flows with this tag retired (`Done`) but not yet released.
    done: u32,
    /// Latest completion time observed among this tag's flows (monotone;
    /// survives releases of the flows that set it).
    latest: Nanos,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Start(FlowKey),
    Stop(FlowKey),
    Toggle(u32),
}

/// One scheduled event. Ordering is **explicit and total**: events fire in
/// `(at, seq)` order — earliest time first, FIFO among events scheduled
/// for the same instant (`seq` is a strictly increasing scheduling
/// counter, so no two entries ever compare equal and the payload never
/// participates in the ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventEntry {
    at: Nanos,
    seq: u64,
    ev: Ev,
}

impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[derive(Debug)]
struct OnOff {
    src: NodeId,
    dst: NodeId,
    hose: Option<HoseId>,
    mean_on: Nanos,
    mean_off: Nanos,
    on: bool,
    flow: Option<FlowKey>,
}

/// Flow-level simulator over a [`Topology`].
///
/// The active flow set lives in a persistent [`FlowArena`] that is
/// updated incrementally as flows start and stop; reallocation reuses a
/// [`MaxMinSolver`]'s scratch state, so the steady-state
/// `reallocate_if_dirty` path performs no heap allocation. A live
/// flow's rate and byte counter live in arena-slot-indexed columns, not
/// in its record, so advancing time is one streaming pass over the
/// slots plus `O(byte-bounded flows)` (see the crate docs).
pub struct FlowSim {
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    /// Capacities: `2·L` directed links, then `H` loopbacks, then hoses.
    capacities: Vec<f64>,
    loopback: LinkSpec,
    flows: Vec<Flow>,
    /// Released flow-record indices available for reuse; with retirement
    /// release in steady state, `flows` stops growing once it covers the
    /// peak number of concurrently allocated records.
    free_flows: Vec<u32>,
    /// All-time arrival counter seeding the deterministic ECMP path
    /// choice. Record indices are reused, so they cannot seed the hash:
    /// the counter keeps a churn trajectory's path choices identical
    /// whether or not the caller releases retired records.
    flow_seq: u64,
    /// `Pending`/`Active` flows with a byte bound — the only flows
    /// [`FlowSim::run_to_completion`] waits on.
    unfinished_bounded: usize,
    /// Per-tag completion bookkeeping (see [`TagStat`]).
    tags: HashMap<u64, TagStat>,
    /// High-water mark of concurrently active flows.
    peak_active: usize,
    /// Active flows, indexed by arena slot.
    arena: FlowArena,
    /// Arena slot → flow record index (`NO_SLOT` for a vacant slot): how
    /// the bounded-flow passes reach a live flow's `remaining`.
    slot_owner: Vec<u32>,
    solver: MaxMinSolver,
    /// Allocated rate of the flow in each arena slot, bits/s — the
    /// solver's output buffer, and the only place a live flow's rate is
    /// stored. It is also solver *state*: a warm solve leaves the rates
    /// of the rounds it carries over where the previous solve wrote
    /// them, so nothing but `solver` may write a live slot (see
    /// [`FlowSim::reallocate_if_dirty`]). Vacant slots hold 0: eviction
    /// zeroes its slot at once, growth zero-fills.
    rates: Vec<f64>,
    /// Bytes delivered so far by the flow in each arena slot (vacant
    /// slots hold 0); settled into the record at eviction.
    delivered: Vec<f64>,
    /// Slots of the live flows with a byte bound, in no particular
    /// order — the only flows that can complete on their own.
    bounded: Vec<u32>,
    /// Scratch: slots found finished by one `finish_completed` call.
    finished: Vec<u32>,
    /// Per [`WalkId`] of the route table: the [`Fold`] of the walk's
    /// records, valid while its epoch is the solver's
    /// ([`MaxMinSolver::probe_epoch`]) — every pair under the same two
    /// attach nodes reads it, so a walk's hops are unranked and folded
    /// once per solve. One 32-byte record per ordered pair of attach
    /// nodes (ToRs on a tree): `32 · A²` bytes for `A` of them, 32 KB on
    /// the 128-host trees, 128 KB on the 512-host tree, 2 MiB at 2 048
    /// hosts. Sized by the first probe.
    walk_folds: Vec<ProbeRecord>,
    /// Walk folds the last probe call computed (span observability).
    last_walks_built: u64,
    sources: Vec<OnOff>,
    events: BinaryHeap<Reverse<EventEntry>>,
    seq: u64,
    now: Nanos,
    dirty: bool,
    rng: StdRng,
    /// Cumulative solver-phase tallies ([`FlowSim::solve_stats`]).
    stats: SolveStats,
}

/// Cumulative solver-phase tallies of one [`FlowSim`]
/// ([`FlowSim::solve_stats`]): how many solves ran on each path, the
/// replayed-vs-live round mix, dirty-window sizes and probe volume.
/// Strictly observational — nothing in the engine reads these back — and
/// maintained unconditionally (plain integer adds on already-computed
/// values), so the counts are exact whether or not a
/// [`span`] recorder is installed. Benches use the
/// snapshot to attribute µs/event to solver phases.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolveStats {
    /// Reallocations that ran a full cold solve (no log to replay).
    pub cold_solves: u64,
    /// Reallocations that warm-started off the previous solve's log.
    pub warm_solves: u64,
    /// Freeze rounds run with the full cold-solve arithmetic, summed
    /// over all reallocations (every round of a cold solve; only the
    /// perturbed rounds of a warm one).
    pub live_rounds: u64,
    /// Freeze rounds carried over from the previous log untouched.
    pub replayed_rounds: u64,
    /// Of `replayed_rounds`, those that applied a chain of deltas to
    /// perturbed resources; the rest were carried clean.
    pub chained_rounds: u64,
    /// Dirty-window sizes (resources perturbed since the previous
    /// solve), summed over all reallocations.
    pub dirty_resources: u64,
    /// [`FlowSim::probe_rates`] batches evaluated.
    pub probe_batches: u64,
    /// What-if candidates rated (batched and single-probe).
    pub probes: u64,
    /// Logged rounds walked on behalf of probes: each per-resource
    /// record read off the solve log walks it once, a candidate whose
    /// resources all have a record walks nothing — so this follows the
    /// distinct resources probed per solve, not the candidates.
    pub probe_replay_rounds: u64,
}

/// Numerical slop (bytes) below which a flow counts as finished.
const DONE_EPS: f64 = 0.5;

/// Residual rate of a failed link (bits/s): effectively zero for any
/// workload, but positive so the max-min solver's "capacities are > 0"
/// contract holds and flows pinned to a failed link converge to a
/// measurably dead rate instead of a divide-by-zero.
pub const FAILED_LINK_BPS: f64 = 1.0;

impl FlowSim {
    /// Build a simulator. `loopback` is the capacity/delay model for
    /// co-located traffic (the paper's ≈4 Gbit/s same-host paths).
    pub fn new(
        topo: Arc<Topology>,
        routes: Arc<RouteTable>,
        loopback: LinkSpec,
        seed: u64,
    ) -> Self {
        let mut capacities = Vec::with_capacity(topo.link_count() * 2 + topo.hosts().len());
        for l in topo.links() {
            capacities.push(l.spec.rate_bps);
            capacities.push(l.spec.rate_bps);
        }
        for _ in topo.hosts() {
            capacities.push(loopback.rate_bps);
        }
        let arena = FlowArena::new(capacities.len());
        FlowSim {
            topo,
            routes,
            capacities,
            loopback,
            flows: Vec::new(),
            free_flows: Vec::new(),
            flow_seq: 0,
            unfinished_bounded: 0,
            tags: HashMap::new(),
            peak_active: 0,
            arena,
            slot_owner: Vec::new(),
            solver: MaxMinSolver::new(),
            rates: Vec::new(),
            delivered: Vec::new(),
            bounded: Vec::new(),
            finished: Vec::new(),
            walk_folds: Vec::new(),
            last_walks_built: 0,
            sources: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            now: 0,
            dirty: false,
            rng: StdRng::seed_from_u64(seed),
            stats: SolveStats::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Register a hose (egress) cap of `rate_bps` and return its handle.
    pub fn add_hose(&mut self, rate_bps: f64) -> HoseId {
        assert!(rate_bps > 0.0);
        let id = HoseId((self.capacities.len()) as u32);
        self.capacities.push(rate_bps);
        self.arena.grow_resources(self.capacities.len());
        HoseId(id.0)
    }

    // -------------------------------------------------- runtime capacity

    /// Capacity currently configured for solver resource `resource`
    /// (bits/s) — the runtime value, which [`FlowSim::set_capacity`] may
    /// have moved off the topology's construction-time spec.
    pub fn capacity(&self, resource: u32) -> f64 {
        self.capacities[resource as usize]
    }

    /// Change one solver resource's capacity at runtime (bits/s, > 0).
    ///
    /// The resource is marked in the arena's dirty window
    /// ([`FlowArena::touch_resource`]), so the next reallocation
    /// re-solves **bit-identical** to a cold solve at the new
    /// capacity: link failure is a cut to [`FAILED_LINK_BPS`],
    /// recovery a restore, degradation a fractional cut. A no-op when
    /// the capacity is already exactly `bits_per_sec`.
    pub fn set_capacity(&mut self, resource: u32, bits_per_sec: f64) {
        assert!(bits_per_sec > 0.0, "capacity must stay positive (failures use FAILED_LINK_BPS)");
        let ri = resource as usize;
        assert!(ri < self.capacities.len(), "set_capacity: bad resource {resource}");
        if self.capacities[ri] == bits_per_sec {
            return;
        }
        self.capacities[ri] = bits_per_sec;
        self.arena.touch_resource(resource);
        self.dirty = true;
    }

    /// Nominal (construction-time) rate of link `link`, bits/s.
    pub fn link_nominal_bps(&self, link: u32) -> f64 {
        self.topo.links()[link as usize].spec.rate_bps
    }

    /// Degrade both directions of link `link` to `fraction` of its
    /// nominal rate (`0 < fraction ≤ 1`; `1` restores it).
    pub fn degrade_link(&mut self, link: u32, fraction: f64) {
        assert!(fraction > 0.0 && fraction <= 1.0, "degrade fraction out of (0, 1]");
        let bps = self.link_nominal_bps(link) * fraction;
        self.set_capacity(2 * link, bps);
        self.set_capacity(2 * link + 1, bps);
    }

    /// Fail link `link`: both directions drop to [`FAILED_LINK_BPS`]
    /// (effectively zero; the solver needs capacities to stay positive).
    pub fn fail_link(&mut self, link: u32) {
        self.set_capacity(2 * link, FAILED_LINK_BPS);
        self.set_capacity(2 * link + 1, FAILED_LINK_BPS);
    }

    /// Restore link `link` to its nominal rate.
    pub fn recover_link(&mut self, link: u32) {
        let bps = self.link_nominal_bps(link);
        self.set_capacity(2 * link, bps);
        self.set_capacity(2 * link + 1, bps);
    }

    /// Fraction of the topology's nominal directed-link capacity
    /// currently lost to failures/degradations (0 when healthy) — the
    /// service's capacity-lost gauge.
    pub fn capacity_lost_fraction(&self) -> f64 {
        let mut nominal = 0.0;
        let mut current = 0.0;
        for (l, link) in self.topo.links().iter().enumerate() {
            nominal += 2.0 * link.spec.rate_bps;
            current += self.capacities[2 * l] + self.capacities[2 * l + 1];
        }
        if nominal <= 0.0 {
            return 0.0;
        }
        ((nominal - current) / nominal).max(0.0)
    }

    /// Per-pod breakdown of [`FlowSim::capacity_lost_fraction`]: fills
    /// `out` with `pods.n_pods() + 1` entries — one lost-capacity
    /// fraction per pod (links fully inside that pod's subtree), plus a
    /// trailing entry for the shared spine (core links and pod uplinks,
    /// the links [`PodPartition::pod_of_link`] maps to `None`). Each
    /// entry is lost/nominal *within that bucket*, 0 for a bucket with
    /// no links. Observational only — nothing in the trajectory reads
    /// it. This is the from-scratch form: the online service refreshes
    /// its per-pod gauges on every network event from precomputed link
    /// buckets, and is tested to produce these exact bits.
    pub fn pod_capacity_lost_fractions(&self, pods: &PodPartition, out: &mut Vec<f64>) {
        let n = pods.n_pods() + 1;
        let mut nominal = vec![0.0; n];
        let mut current = vec![0.0; n];
        for (l, link) in self.topo.links().iter().enumerate() {
            let bucket = pods.pod_of_link(link).map_or(n - 1, |p| p as usize);
            nominal[bucket] += 2.0 * link.spec.rate_bps;
            current[bucket] += self.capacities[2 * l] + self.capacities[2 * l + 1];
        }
        out.clear();
        out.extend((0..n).map(|b| {
            if nominal[b] <= 0.0 {
                0.0
            } else {
                ((nominal[b] - current[b]) / nominal[b]).max(0.0)
            }
        }));
    }

    fn push_event(&mut self, at: Nanos, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse(EventEntry { at, seq: self.seq, ev }));
    }

    fn host_loopback_res(&self, host: NodeId) -> u32 {
        (self.topo.link_count() * 2 + self.routes.host_index(host)) as u32
    }

    /// Fill `buf` with the resource list of a flow from `src` to `dst`.
    /// `seq` is the all-time arrival counter (record indices are recycled
    /// and must not seed the ECMP hash).
    fn fill_resources(
        &mut self,
        buf: &mut Vec<u32>,
        src: NodeId,
        dst: NodeId,
        hose: Option<HoseId>,
        seq: u64,
    ) {
        buf.clear();
        if src == dst {
            // Co-located: loopback only; hose bypassed (hypervisor-local).
            buf.push(self.host_loopback_res(src));
            return;
        }
        let hash = splitmix64((seq << 32) | self.rng.gen::<u32>() as u64);
        let path = self.routes.path_for_flow(src, dst, hash);
        buf.extend(path.hops().iter().map(hop_resource));
        if let Some(h) = hose {
            buf.push(h.0);
        }
    }

    /// Resolve a key to its record index, panicking on a generation
    /// mismatch (use-after-release, double release, or a forged key).
    #[inline]
    fn idx(&self, key: FlowKey) -> usize {
        let i = key.index() as usize;
        assert!(
            i < self.flows.len() && self.flows[i].generation == key.generation(),
            "stale FlowKey: the flow record was released (or the key is forged)"
        );
        i
    }

    /// Like [`FlowSim::idx`] but `None` for stale keys — the event heap
    /// may legitimately hold keys whose flows were released after they
    /// retired, and those events must become no-ops.
    #[inline]
    fn live_idx(&self, key: FlowKey) -> Option<usize> {
        let i = key.index() as usize;
        (i < self.flows.len() && self.flows[i].generation == key.generation()).then_some(i)
    }

    /// Put an activating flow into the arena. Its slot's columns already
    /// read 0 (vacant slots always do): no rate until the next solve,
    /// nothing delivered yet.
    fn arena_insert(&mut self, index: usize) {
        let f = &mut self.flows[index];
        let slot = self.arena.add(&f.resources);
        f.slot = slot.0;
        let s = slot.0 as usize;
        if self.slot_owner.len() <= s {
            self.slot_owner.resize(s + 1, NO_SLOT);
            self.rates.resize(s + 1, 0.0);
            self.delivered.resize(s + 1, 0.0);
        }
        self.slot_owner[s] = index as u32;
        if f.remaining.is_some() {
            self.bounded.push(slot.0);
        }
        self.peak_active = self.peak_active.max(self.arena.n_flows());
    }

    /// Drop a deactivating flow from the arena, settling its byte counter
    /// into the record and returning its slot's columns to 0.
    fn arena_evict(&mut self, index: usize) {
        let f = &mut self.flows[index];
        if f.slot != NO_SLOT {
            let s = f.slot as usize;
            self.arena.remove(FlowSlot(f.slot));
            self.slot_owner[s] = NO_SLOT;
            f.delivered = std::mem::take(&mut self.delivered[s]);
            self.rates[s] = 0.0;
            if f.remaining.is_some() {
                // A linear search, but over the bounded flows only — the
                // online path has none, and the scans this list replaced
                // walked every slot on every event.
                let at = self.bounded.iter().position(|&b| b == f.slot);
                self.bounded.swap_remove(at.expect("live bounded flows are listed"));
            }
            f.slot = NO_SLOT;
        }
    }

    /// Construct a `Pending` flow record — reusing a released record when
    /// one is free — and return its generation-stamped key. The caller
    /// decides how the flow enters the simulation (scheduled via the
    /// event heap, or activated on the spot).
    fn push_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        hose: Option<HoseId>,
        at: Nanos,
        tag: u64,
    ) -> FlowKey {
        self.flow_seq += 1;
        let seq = self.flow_seq;
        let index = match self.free_flows.pop() {
            Some(i) => i as usize,
            None => {
                assert!(
                    self.flows.len() < KEY_INDEX_MASK as usize,
                    "flow record index space exhausted (release retired flows)"
                );
                self.flows.push(Flow {
                    resources: Vec::new(),
                    slot: NO_SLOT,
                    remaining: None,
                    delivered: 0.0,
                    status: FlowStatus::Pending,
                    started_at: 0,
                    tag: 0,
                    generation: 0,
                });
                self.flows.len() - 1
            }
        };
        // Reuse the record's resource buffer in place (no per-flow Vec).
        let mut resources = std::mem::take(&mut self.flows[index].resources);
        self.fill_resources(&mut resources, src, dst, hose, seq);
        let f = &mut self.flows[index];
        let generation = f.generation;
        *f = Flow {
            resources,
            slot: NO_SLOT,
            remaining: bytes.map(|b| b as f64),
            delivered: 0.0,
            status: FlowStatus::Pending,
            started_at: at,
            tag,
            generation,
        };
        if bytes.is_some() {
            self.unfinished_bounded += 1;
        }
        self.tags.entry(tag).or_default().unfinished += 1;
        FlowKey::pack(index as u32, generation)
    }

    /// Transition a pending/active flow to `Done` at the current time:
    /// arena slot evicted (rate zeroed, byte counter settled),
    /// tag/completion bookkeeping updated. No-op if the flow already
    /// retired.
    fn retire(&mut self, index: usize) {
        let f = &mut self.flows[index];
        if !matches!(f.status, FlowStatus::Pending | FlowStatus::Active) {
            return;
        }
        f.status = FlowStatus::Done(self.now);
        if f.remaining.is_some() {
            self.unfinished_bounded -= 1;
        }
        let tag = f.tag;
        self.dirty = true;
        self.arena_evict(index);
        let s = self.tags.get_mut(&tag).expect("tag stat tracks every unreleased flow");
        s.unfinished -= 1;
        s.done += 1;
        s.latest = s.latest.max(self.now);
    }

    fn release_index(&mut self, index: usize) {
        let f = &mut self.flows[index];
        assert!(
            matches!(f.status, FlowStatus::Done(_)),
            "only a retired (Done) flow's record can be released"
        );
        f.generation = (f.generation + 1) & KEY_GEN_MASK;
        let tag = f.tag;
        let s = self.tags.get_mut(&tag).expect("tag stat tracks every unreleased flow");
        s.done -= 1;
        if s.done == 0 && s.unfinished == 0 {
            self.tags.remove(&tag);
        }
        self.free_flows.push(index as u32);
    }

    /// Release a retired flow's record for reuse.
    ///
    /// Harvest whatever stats you need first
    /// ([`FlowSim::delivered_bytes`], [`FlowSim::completion_time`], …):
    /// after the release the key — and every copy of it — is **stale**,
    /// and any use panics. Releasing a flow that is still pending or
    /// active (stop it first) or releasing twice is also a panic. Callers
    /// that never release simply keep the pre-recycling behavior of an
    /// append-only record table, with an identical trajectory.
    pub fn release_flow(&mut self, key: FlowKey) {
        let i = self.idx(key);
        self.release_index(i);
    }

    /// Release a batch of retired flows ([`FlowSim::release_flow`]).
    pub fn release_flows(&mut self, keys: &[FlowKey]) {
        for &k in keys {
            self.release_flow(k);
        }
    }

    /// Schedule a flow of `bytes` (`None` = unbounded) from `src` to `dst`
    /// starting at `at`, optionally constrained by a hose cap, grouped
    /// under `tag`.
    pub fn start_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        hose: Option<HoseId>,
        at: Nanos,
        tag: u64,
    ) -> FlowKey {
        let key = self.push_flow(src, dst, bytes, hose, at, tag);
        self.push_event(at.max(self.now), Ev::Start(key));
        key
    }

    /// Stop (kill) a flow at time `at`.
    pub fn stop_flow_at(&mut self, key: FlowKey, at: Nanos) {
        self.push_event(at.max(self.now), Ev::Stop(key));
    }

    /// Start a flow **immediately**: the flow goes straight into the
    /// arena as `Active` at the current time, skipping the event heap.
    ///
    /// This is the online placement service's admission hook — a placed
    /// tenant's transfers become visible to the very next probe without
    /// an event-heap round trip, and a tenant's whole flow set lands in
    /// one arena dirty window, so the next reallocation is a single warm
    /// delta solve covering all of them.
    pub fn start_flow_now(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        hose: Option<HoseId>,
        tag: u64,
    ) -> FlowKey {
        let key = self.push_flow(src, dst, bytes, hose, self.now, tag);
        // Same transition the `Ev::Start` dispatch performs, minus the
        // heap round trip.
        let i = key.index() as usize;
        self.flows[i].status = FlowStatus::Active;
        self.dirty = true;
        self.arena_insert(i);
        key
    }

    /// Stop a set of flows **immediately** (tenant teardown): every
    /// pending or active flow in `keys` is marked done at the current
    /// time and evicted from the arena, accumulating one combined dirty
    /// window — the next reallocation is a single warm delta solve over
    /// the whole departure instead of one per flow.
    pub fn stop_flows_now(&mut self, keys: &[FlowKey]) {
        for &key in keys {
            let i = self.idx(key);
            self.retire(i);
        }
    }

    /// Register an ON–OFF background source (starts OFF; exponential
    /// holding times, as in the paper's Fig. 4 validation).
    pub fn add_onoff(
        &mut self,
        src: NodeId,
        dst: NodeId,
        hose: Option<HoseId>,
        mean_on: Nanos,
        mean_off: Nanos,
        at: Nanos,
    ) -> u32 {
        let id = self.sources.len() as u32;
        self.sources.push(OnOff { src, dst, hose, mean_on, mean_off, on: false, flow: None });
        let first = at.max(self.now) + self.sample_exp(mean_off);
        self.push_event(first, Ev::Toggle(id));
        id
    }

    fn sample_exp(&mut self, mean: Nanos) -> Nanos {
        let u: f64 = self.rng.gen_range(f64::EPSILON..=1.0);
        (-(mean as f64) * u.ln()).min(1e18) as Nanos
    }

    // ------------------------------------------------------------- queries

    /// Status of a flow.
    pub fn status(&self, key: FlowKey) -> FlowStatus {
        self.flows[self.idx(key)].status
    }

    /// Cumulative bytes delivered by a flow.
    pub fn delivered_bytes(&self, key: FlowKey) -> u64 {
        self.delivered_of(self.idx(key)) as u64
    }

    /// The byte counter of record `index`: the slot column while the flow
    /// is live, the settled record value otherwise.
    fn delivered_of(&self, index: usize) -> f64 {
        let f = &self.flows[index];
        match f.slot {
            NO_SLOT => f.delivered,
            slot => self.delivered[slot as usize],
        }
    }

    /// Current allocated rate of a flow (bits/s); 0 unless active.
    pub fn rate_bps(&mut self, key: FlowKey) -> f64 {
        self.reallocate_if_dirty();
        match self.flows[self.idx(key)].slot {
            NO_SLOT => 0.0,
            slot => self.rates[slot as usize],
        }
    }

    /// Completion time of a finished flow.
    pub fn completion_time(&self, key: FlowKey) -> Option<Nanos> {
        match self.flows[self.idx(key)].status {
            FlowStatus::Done(t) => Some(t),
            _ => None,
        }
    }

    /// Latest completion time among flows tagged `tag`; `None` if any is
    /// still pending/active or no flow carries the tag.
    ///
    /// An O(1) lookup against incrementally maintained per-tag counters —
    /// the pre-recycling implementation scanned every all-time flow
    /// record, which made repeated queries quadratic over a simulation's
    /// lifetime. Released flows no longer count toward the tag: once a
    /// tag's every flow is released the tag reads as unknown (`None`),
    /// but completion times observed before the release stay reflected
    /// while any unreleased flow keeps the tag alive.
    pub fn tag_completion(&self, tag: u64) -> Option<Nanos> {
        let s = self.tags.get(&tag)?;
        if s.unfinished > 0 {
            return None;
        }
        Some(s.latest)
    }

    /// Make sure the solver's freeze-round log describes the current
    /// arena: apply pending reallocation, and re-stamp the log if the
    /// arena drifted without a solve (e.g. a hose was added while the
    /// rates were clean).
    fn ensure_probe_log(&mut self) {
        self.reallocate_if_dirty();
        if !self.solver.log_matches(&self.arena) {
            // The flow set is unchanged since the last committed
            // allocation (otherwise `dirty` would have forced a solve), so
            // a warm solve finds nothing perturbed: it carries every round
            // (one key compare each), leaves the committed rates alone and
            // re-stamps the log.
            self.solver.solve_warm(&self.capacities, &mut self.arena, &mut self.rates);
        }
    }

    /// Open a probe call on a current log: the solver's tallies reset, the
    /// walk memo sized to the route table.
    fn begin_probes(&mut self, what: &str) {
        self.solver.begin_probes(&self.capacities, &self.arena, what);
        let walks = self.routes.walk_count();
        if self.walk_folds.len() < walks {
            self.walk_folds.resize(walks, ProbeRecord::default());
        }
        self.last_walks_built = 0;
    }

    /// The [`Fold`] of a probe flow from `src` to `dst`: the records of
    /// its path 0 (deterministic first equal-cost path), spliced from the
    /// parts the route table splits it into — the lead hop, the tail hop
    /// and the hose, each a record, and the walk between, one memoised
    /// fold. `min` is associative, so the splice folds to what the whole
    /// path does. A co-located probe folds the source's loopback alone.
    fn probe_fold(&mut self, src: NodeId, dst: NodeId, hose: Option<HoseId>) -> Fold {
        if src == dst {
            // Co-located: loopback only; hose bypassed (hypervisor-local).
            let lo = self.host_loopback_res(src);
            return self.solver.fold(&self.capacities, &self.arena, [lo]);
        }
        let parts = self.routes.path0_parts(src, dst);
        let ends = parts.lead.iter().chain(&parts.tail).map(hop_resource);
        let fold = self.solver.fold(&self.capacities, &self.arena, ends.chain(hose.map(|h| h.0)));
        match parts.walk {
            Some(walk) => fold.min(self.walk_fold(walk)),
            None => fold,
        }
    }

    /// The [`Fold`] of `walk`'s hops, unranked and folded once per solve
    /// epoch.
    fn walk_fold(&mut self, walk: WalkId) -> Fold {
        let epoch = self.solver.probe_epoch();
        let memo = &mut self.walk_folds[walk.0 as usize];
        if memo.epoch != epoch {
            let hops = self.routes.walk(walk);
            let res = hops.hops().iter().map(hop_resource);
            let (hit, key) = self.solver.fold(&self.capacities, &self.arena, res);
            *memo = ProbeRecord { key, epoch, hit };
            self.last_walks_built += 1;
        }
        (memo.hit, memo.key)
    }

    /// Rate a *hypothetical* new flow from `src` to `dst` (optionally
    /// hose-capped) would receive right now, without perturbing the
    /// simulation. This is the flow-level analogue of starting a probe
    /// connection.
    ///
    /// Implemented as a what-if read of the solver's freeze-round log of
    /// the committed allocation: for each resource of path 0, the first
    /// logged round that resource would saturate by with one more user,
    /// and the candidate freezes at the earliest of them — bit-identical
    /// to adding the flow and re-solving. A resource's answer does not
    /// depend on who asks, so the solver keeps it until the next solve,
    /// and the engine keeps each walk's fold of them likewise: `O(events ·
    /// log rounds)` **per distinct resource per solve**, `O(1)` per probe
    /// after that — a lead hop, a tail hop, a hose and a memoised walk.
    /// **Observably side-effect-free**: the arena is never touched, so the
    /// simulation state is exactly as it was (only the probe memos are
    /// written).
    pub fn probe_rate(&mut self, src: NodeId, dst: NodeId, hose: Option<HoseId>) -> f64 {
        self.ensure_probe_log();
        self.begin_probes("probe");
        let rate = fold_rate(self.probe_fold(src, dst, hose));
        self.stats.probes += 1;
        self.stats.probe_replay_rounds += self.solver.last_probe_replay_rounds();
        rate
    }

    /// Batched [`FlowSim::probe_rate`]: rate every hypothetical
    /// `(src, dst, hose)` flow in `probes`, writing `out[i]` for
    /// `probes[i]`. All candidates are evaluated **independently** against
    /// the same committed network state (they do not see one another),
    /// sharing a single solve instead of paying one each — the entry
    /// point for candidate scoring in placement. The batch costs what its
    /// *distinct* resources and walks cost: the scheduler's `k(k − 1)`
    /// ordered pairs over `k` hosts name `2k` access directions and the
    /// walks between their ToRs, each read off the log once per solve;
    /// every candidate — in this batch or any later one before the next
    /// solve — is then a fold of four memoised answers. The `probe_batch`
    /// span covers all of it, route resolution included.
    pub fn probe_rates(&mut self, probes: &[(NodeId, NodeId, Option<HoseId>)], out: &mut Vec<f64>) {
        self.ensure_probe_log();
        let timer = span::start("probe_batch");
        self.begin_probes("probe_batch");
        out.clear();
        out.reserve(probes.len());
        for &(src, dst, hose) in probes {
            let fold = self.probe_fold(src, dst, hose);
            out.push(fold_rate(fold));
        }
        drop(timer);
        self.stats.probe_batches += 1;
        self.stats.probes += probes.len() as u64;
        self.stats.probe_replay_rounds += self.solver.last_probe_replay_rounds();
        if span::enabled() {
            span::value("probe_batch_size", probes.len() as f64);
            // Resources and walks the batch had to read the log for;
            // against the batch size, the reuse the memos bought.
            span::value("probe_records_built", self.solver.last_probe_records_built() as f64);
            span::value("probe_walks_built", self.last_walks_built as f64);
            if !probes.is_empty() {
                // Amortised: rounds walked for those records, spread over
                // every candidate they served.
                let depth = self.solver.last_probe_replay_rounds() as f64 / probes.len() as f64;
                span::value("probe_replay_depth", depth);
            }
        }
    }

    /// Emulate a bulk TCP throughput measurement: run a real flow for
    /// `duration` (the simulation advances, so background traffic evolves)
    /// and return its mean throughput in bits/s.
    pub fn measure_tcp_throughput(
        &mut self,
        src: NodeId,
        dst: NodeId,
        hose: Option<HoseId>,
        duration: Nanos,
    ) -> f64 {
        let start = self.now;
        let key = self.start_flow(src, dst, None, hose, start, u64::MAX);
        self.stop_flow_at(key, start + duration);
        self.run_until(start + duration);
        let delivered = self.delivered_of(self.idx(key));
        // The stop event above fired during `run_until`, so the flow is
        // retired and its one stat is harvested: reclaim the record.
        self.release_flow(key);
        delivered * 8.0 / (duration as f64 / 1e9)
    }

    /// The loopback model in use.
    pub fn loopback(&self) -> LinkSpec {
        self.loopback
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.arena.n_flows()
    }

    /// High-water mark of concurrently active flows.
    pub fn peak_active_flows(&self) -> usize {
        self.peak_active
    }

    /// Number of flow records currently allocated (live + retired-but-
    /// unreleased + free-listed). With retirement release this plateaus
    /// at O(peak concurrent flows); without releases it equals all-time
    /// arrivals — the pre-recycling behavior.
    pub fn flow_records(&self) -> usize {
        self.flows.len()
    }

    /// Bytes of heap the per-walk probe memo holds: `32 · A²` for the
    /// route table's `A` attach nodes once a probe has sized it, 0 before.
    pub fn walk_memo_bytes(&self) -> usize {
        self.walk_folds.capacity() * std::mem::size_of::<ProbeRecord>()
    }

    /// Cumulative solver-phase tallies since construction: solve counts
    /// per path (cold / warm), the replayed-vs-live round mix,
    /// dirty-window sizes and probe volume. Purely observational — see
    /// [`SolveStats`].
    pub fn solve_stats(&self) -> SolveStats {
        self.stats
    }

    /// Check that the slot columns, the bounded list and the record table
    /// agree with the arena (test hook; panics on violation):
    ///
    /// * `slot_owner`, `rates` and `delivered` span exactly the arena's
    ///   slots, and `slot_owner` marks live precisely the arena's live
    ///   slots, each owned by the one `Active` record that names it;
    /// * a vacant slot reads rate 0 and delivered 0, and a live flow's
    ///   record holds no settled bytes yet;
    /// * `bounded` lists exactly the live slots whose flow has a byte
    ///   bound, each once.
    pub fn check_invariants(&self) {
        self.arena.check_invariants();
        let n = self.arena.slot_bound();
        assert_eq!(self.slot_owner.len(), n, "slot_owner spans the arena's slots");
        assert_eq!(self.rates.len(), n, "rate column spans the arena's slots");
        assert_eq!(self.delivered.len(), n, "delivered column spans the arena's slots");
        let mut bounded = Vec::new();
        for (slot, &owner) in self.slot_owner.iter().enumerate() {
            let live = self.arena.is_live(FlowSlot(slot as u32));
            assert_eq!(owner != NO_SLOT, live, "slot {slot}: slot_owner mirrors the arena");
            if !live {
                assert_eq!(self.rates[slot], 0.0, "vacant slot {slot} holds a rate");
                assert_eq!(self.delivered[slot], 0.0, "vacant slot {slot} holds bytes");
                continue;
            }
            let f = &self.flows[owner as usize];
            assert_eq!(f.slot as usize, slot, "slot {slot}: owner record names another slot");
            assert_eq!(f.status, FlowStatus::Active, "slot {slot}: owner is not active");
            assert_eq!(f.delivered, 0.0, "slot {slot}: live flow's bytes settled early");
            if f.remaining.is_some() {
                bounded.push(slot as u32);
            }
        }
        let in_arena = self.flows.iter().filter(|f| f.slot != NO_SLOT).count();
        assert_eq!(in_arena, self.arena.n_flows(), "records in the arena vs live slots");
        let mut listed = self.bounded.clone();
        listed.sort_unstable();
        assert_eq!(listed, bounded, "bounded lists the live byte-bounded slots");
    }

    /// Check every live flow's allocated rate, bit for bit, against the
    /// reference oracle — a from-scratch [`max_min_rates`] solve of the
    /// live flow set at the current capacities (test hook; applies any
    /// pending reallocation first, panics on a mismatch).
    #[doc(hidden)]
    pub fn check_rates_against_cold(&mut self) {
        self.reallocate_if_dirty();
        let flows: Vec<Vec<u32>> = self.arena.iter().map(|(_, res)| res.to_vec()).collect();
        let cold = max_min_rates(&self.capacities, &flows);
        for ((slot, res), want) in self.arena.iter().zip(&cold) {
            let got = self.rates[slot.0 as usize];
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "slot {}: flow over {res:?} holds {got}, a cold solve gives {want}",
                slot.0
            );
        }
    }

    // ------------------------------------------------------------ dynamics

    /// Recompute the max-min allocation if the active flow set or a
    /// capacity changed since the last solve.
    ///
    /// Mutations only mark the state dirty; the solve runs here, called
    /// by the readers of `rates` alone — [`FlowSim::rate_bps`], the probe
    /// log, the cold-solve check, the completion search of
    /// [`FlowSim::run_to_completion`] and the two rate reads of
    /// [`FlowSim::run_until`] — so however many
    /// mutations land between two reads, they cost one solve.
    ///
    /// The arena already reflects every start/stop, so this is a single
    /// solver run straight into the slot-indexed rate column — no
    /// per-call `Vec` construction, and no pass over the flow records
    /// afterwards. The solve is **warm-started**:
    /// flow starts, stops and ON–OFF toggles leave the previous solve's
    /// freeze-round log hot, and the solver edits it in place — carrying
    /// the rounds the churn left alone, running live only the ones it
    /// perturbed — instead of cold-solving; bit-identical either way, so
    /// the simulation's trajectory is unchanged.
    ///
    /// Contract with the solver ([`MaxMinSolver::solve_warm`]):
    /// `self.rates` is the buffer the previous solve filled, and between
    /// solves the engine only ever zeroes vacant slots in it
    /// ([`FlowSim::arena_evict`]) and zero-extends it
    /// ([`FlowSim::arena_insert`]) — a carried round's flows still read
    /// the rate that solve gave them.
    fn reallocate_if_dirty(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        // Everything around the solve is observational: the span timer
        // and values and the `SolveStats` adds read already-computed
        // state and feed nothing back, so instrumented and bare runs
        // follow bit-identical trajectories.
        let dirty_window = self.arena.dirty_len() as u64;
        let cold = self.solver.will_solve_cold(&self.arena);
        let timer = span::start(if cold { "solve_cold" } else { "solve_warm" });
        self.solver.solve_warm(&self.capacities, &mut self.arena, &mut self.rates);
        drop(timer);
        if cold {
            self.stats.cold_solves += 1;
        } else {
            self.stats.warm_solves += 1;
        }
        self.stats.dirty_resources += dirty_window;
        self.stats.live_rounds += self.solver.last_live_rounds();
        self.stats.replayed_rounds += self.solver.last_replayed_rounds();
        self.stats.chained_rounds += self.solver.last_chained_rounds();
        if span::enabled() {
            span::value("solve_dirty_window", dirty_window as f64);
            span::value("solve_live_rounds", self.solver.last_live_rounds() as f64);
            span::value("solve_replayed_rounds", self.solver.last_replayed_rounds() as f64);
        }
    }

    /// Advance all active flows by `dt` nanoseconds at current rates: one
    /// streaming add over the slot columns (a vacant or rate-less slot
    /// adds `0.0`, which leaves its counter as it was), then the byte
    /// budgets of the bounded flows.
    fn integrate(&mut self, dt: Nanos) {
        if dt == 0 {
            return;
        }
        let secs = dt as f64 / 1e9;
        for (delivered, &rate) in self.delivered.iter_mut().zip(&self.rates) {
            *delivered += rate * secs / 8.0;
        }
        for &slot in &self.bounded {
            let f = &mut self.flows[self.slot_owner[slot as usize] as usize];
            let rem = f.remaining.as_mut().expect("listed flows are bounded");
            *rem -= self.rates[slot as usize] * secs / 8.0;
        }
    }

    /// Remaining byte budget of the bounded flow in `slot`.
    fn remaining_in(&self, slot: u32) -> f64 {
        let f = &self.flows[self.slot_owner[slot as usize] as usize];
        f.remaining.expect("listed flows are bounded")
    }

    /// Earliest completion among active bounded flows.
    fn next_completion(&self) -> Option<Nanos> {
        let mut best: Option<f64> = None;
        for &slot in &self.bounded {
            let rem = self.remaining_in(slot);
            let rate = self.rates[slot as usize];
            if rate > 0.0 {
                let dt = (rem.max(0.0)) * 8.0 / rate * 1e9;
                best = Some(best.map_or(dt, |b: f64| b.min(dt)));
            } else if rem <= DONE_EPS {
                best = Some(0.0);
            }
        }
        best.map(|dt| self.now + dt.ceil() as Nanos)
    }

    /// Retire every bounded flow whose budget is spent — in ascending
    /// slot order, whatever order `bounded` lists them in: retire order
    /// is the order the arena's free list hands the slots out again, so
    /// it decides which slot every later flow lands in.
    fn finish_completed(&mut self) {
        let mut finished = std::mem::take(&mut self.finished);
        finished.clear();
        finished.extend(self.bounded.iter().filter(|&&slot| self.remaining_in(slot) <= DONE_EPS));
        finished.sort_unstable();
        for &slot in &finished {
            self.retire(self.slot_owner[slot as usize] as usize);
        }
        self.finished = finished;
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Start(key) => {
                // Stale keys (flow released while the event was queued)
                // dispatch as no-ops: a release requires the flow to be
                // retired, and a retired flow ignored these events before
                // recycling existed too.
                if let Some(i) = self.live_idx(key) {
                    let f = &mut self.flows[i];
                    if f.status == FlowStatus::Pending {
                        f.status = FlowStatus::Active;
                        f.started_at = self.now;
                        self.dirty = true;
                        self.arena_insert(i);
                    }
                }
            }
            Ev::Stop(key) => {
                if let Some(i) = self.live_idx(key) {
                    self.retire(i);
                    // Background ON–OFF flows are never harvested by any
                    // caller; reclaim the record as soon as the toggle-off
                    // stop lands.
                    if self.flows[i].tag == TAG_ONOFF {
                        self.release_index(i);
                    }
                }
            }
            Ev::Toggle(id) => {
                let (src, dst, hose, mean_next, turning_on, old_flow) = {
                    let s = &mut self.sources[id as usize];
                    s.on = !s.on;
                    let turning_on = s.on;
                    let old = if turning_on { None } else { s.flow.take() };
                    (s.src, s.dst, s.hose, s.current_mean(), turning_on, old)
                };
                if turning_on {
                    let key = self.start_flow(src, dst, None, hose, self.now, TAG_ONOFF);
                    self.sources[id as usize].flow = Some(key);
                } else if let Some(f) = old_flow {
                    self.stop_flow_at(f, self.now);
                }
                let dt = self.sample_exp(mean_next);
                self.push_event(self.now + dt, Ev::Toggle(id));
            }
        }
    }

    /// Run the simulation until time `t`, which must not be before
    /// [`FlowSim::now`]: running the clock backwards is a panic.
    ///
    /// The loop reads rates in two places only, and solves a pending
    /// reallocation just before each: the completion search, while a
    /// byte-bounded flow is live, and the integration of an interval of
    /// positive length. Everything else it does — retiring spent flows,
    /// firing heap events — reads no rate. So an advance that does not
    /// move the clock over unbounded flows solves nothing, and leaves the
    /// dirty window to whichever reader comes next: a burst of capacity
    /// changes at one instant then shares one warm solve, bit-identical
    /// to a cold solve like every solve.
    pub fn run_until(&mut self, t: Nanos) {
        assert!(t >= self.now, "run_until({t}) would run the clock backwards from {}", self.now);
        loop {
            if !self.bounded.is_empty() {
                self.reallocate_if_dirty();
            }
            let next_ev = self.events.peek().map(|Reverse(e)| e.at);
            let next_done = self.next_completion();
            // Heap events and completions never lie before `now`, so
            // `now ≤ target ≤ t`.
            let target = [Some(t), next_ev, next_done].into_iter().flatten().min().expect("t");
            if target > self.now {
                self.reallocate_if_dirty();
                self.integrate(target - self.now);
            }
            self.now = target;
            self.finish_completed();
            // Fire all events scheduled at exactly `target`.
            while let Some(Reverse(e)) = self.events.peek() {
                if e.at > self.now {
                    break;
                }
                let Reverse(e) = self.events.pop().expect("peeked");
                self.dispatch(e.ev);
            }
            if self.now == t && next_ev.is_none_or(|e| e > t) && next_done.is_none_or(|d| d > t) {
                break;
            }
        }
    }

    /// Run until every bounded, tagged flow has completed (ignores
    /// unbounded background flows). Returns the final time.
    ///
    /// Panics if no progress is possible (e.g. an active flow with rate 0
    /// and no pending events), which indicates a modelling bug.
    pub fn run_to_completion(&mut self) -> Nanos {
        // Maintained at creation/retirement, so the check is O(1) instead
        // of a scan over all-time flow records per step.
        while self.unfinished_bounded > 0 {
            // The completion search reads rates, so it needs the solve.
            self.reallocate_if_dirty();
            let next_ev = self.events.peek().map(|Reverse(e)| e.at);
            let target = [next_ev, self.next_completion()]
                .into_iter()
                .flatten()
                .min()
                .expect("no events and no completions but flows unfinished");
            self.run_until(target);
        }
        self.now
    }
}

impl OnOff {
    fn current_mean(&self) -> Nanos {
        if self.on {
            self.mean_on
        } else {
            self.mean_off
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::fairshare::reference;
    use choreo_topology::{
        dumbbell, LinkSpec, MultiRootedTreeSpec, GBIT, MBIT, MICROS, MILLIS, SECS,
    };

    fn sim(n_pairs: usize, shared: f64) -> FlowSim {
        let t = Arc::new(dumbbell(
            n_pairs,
            LinkSpec::new(GBIT, 5 * MICROS),
            LinkSpec::new(shared, 20 * MICROS),
        ));
        let r = Arc::new(RouteTable::new(&t));
        FlowSim::new(t, r, LinkSpec::new(4.2 * GBIT, 20 * MICROS), 7)
    }

    #[test]
    fn single_bounded_flow_completes_on_schedule() {
        let mut s = sim(1, GBIT);
        let (a, b) = (s.topology().hosts()[0], s.topology().hosts()[1]);
        // 125 MB at 1 Gbit/s = 1 s.
        let f = s.start_flow(a, b, Some(125_000_000), None, 0, 1);
        let end = s.run_to_completion();
        assert_eq!(s.status(f), FlowStatus::Done(end));
        assert!((end as f64 - 1e9).abs() < 1e6, "end = {end}");
        assert_eq!(s.tag_completion(1), Some(end));
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        // Both flows cross the shared link; equal share 500 Mbit/s.
        // f1: 62.5 MB (1 s at half rate); f2: 125 MB.
        let f1 = s.start_flow(h[0], h[2], Some(62_500_000), None, 0, 1);
        let f2 = s.start_flow(h[1], h[3], Some(125_000_000), None, 0, 2);
        let end = s.run_to_completion();
        let t1 = s.completion_time(f1).unwrap() as f64;
        let t2 = s.completion_time(f2).unwrap() as f64;
        // f1 finishes at 1 s; f2 then accelerates: 62.5 MB left at full
        // rate = 0.5 s more -> 1.5 s total.
        assert!((t1 - 1e9).abs() < 1e6, "t1 = {t1}");
        assert!((t2 - 1.5e9).abs() < 2e6, "t2 = {t2}");
        assert_eq!(end, s.completion_time(f2).unwrap());
    }

    #[test]
    fn hose_cap_constrains_aggregate_egress() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        let hose = s.add_hose(300.0 * MBIT);
        // Two flows from the same VM (same hose): together ≤ 300 Mbit/s.
        let f1 = s.start_flow(h[0], h[2], None, Some(hose), 0, 1);
        let f2 = s.start_flow(h[0], h[3], None, Some(hose), 0, 1);
        s.run_until(SECS);
        let r1 = s.rate_bps(f1);
        let r2 = s.rate_bps(f2);
        assert!((r1 + r2 - 300e6).abs() < 1.0, "sum = {}", r1 + r2);
        assert!((r1 - r2).abs() < 1.0, "even split");
    }

    #[test]
    fn colocated_flow_uses_loopback_capacity() {
        let mut s = sim(1, GBIT);
        let a = s.topology().hosts()[0];
        let hose = s.add_hose(300.0 * MBIT);
        let f = s.start_flow(a, a, None, Some(hose), 0, 1);
        s.run_until(MILLIS);
        assert!((s.rate_bps(f) - 4.2e9).abs() < 1.0, "loopback bypasses hose");
    }

    #[test]
    fn solve_stats_attribute_the_solver_phases() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        assert_eq!(s.solve_stats(), SolveStats::default());
        let f1 = s.start_flow(h[0], h[2], Some(62_500_000), None, 0, 1);
        s.run_until(MILLIS);
        let st = s.solve_stats();
        // The very first reallocation has no log to replay.
        assert_eq!(st.cold_solves, 1, "{st:?}");
        assert_eq!(st.warm_solves, 0, "{st:?}");
        assert!(st.live_rounds >= 1, "{st:?}");
        assert_eq!(st.replayed_rounds, 0, "cold solves replay nothing: {st:?}");
        assert!(st.dirty_resources >= 1, "the start dirtied its path: {st:?}");
        // Churn after the first solve warm-starts and replays some rounds.
        let _f2 = s.start_flow(h[1], h[3], Some(125_000_000), None, 0, 2);
        s.run_until(2 * MILLIS);
        let st = s.solve_stats();
        assert_eq!(st.cold_solves, 1, "{st:?}");
        assert!(st.warm_solves >= 1, "{st:?}");
        // Probes ride the logged solve and report their replay volume.
        let mut out = Vec::new();
        s.probe_rates(&[(h[0], h[2], None), (h[1], h[3], None)], &mut out);
        let st = s.solve_stats();
        assert_eq!(st.probe_batches, 1, "{st:?}");
        assert_eq!(st.probes, 2, "{st:?}");
        assert!(st.probe_replay_rounds >= 1, "{st:?}");
        let _ = f1;
    }

    #[test]
    fn a_same_instant_advance_leaves_the_solve_to_the_next_reader() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        let f = s.start_flow_now(h[0], h[2], None, None, 1);
        s.run_until(MILLIS);
        let solves = s.solve_stats().warm_solves + s.solve_stats().cold_solves;
        // Two capacity changes and two same-instant advances: nothing is
        // read, so nothing is solved.
        s.degrade_link(0, 0.5);
        s.run_until(MILLIS);
        s.degrade_link(1, 0.5);
        s.run_until(MILLIS);
        let st = s.solve_stats();
        assert_eq!(st.warm_solves + st.cold_solves, solves, "{st:?}");
        // The next reader pays for both in one solve.
        let _ = s.rate_bps(f);
        let st = s.solve_stats();
        assert_eq!(st.warm_solves + st.cold_solves, solves + 1, "{st:?}");
        s.check_rates_against_cold();
    }

    #[test]
    #[should_panic(expected = "would run the clock backwards")]
    fn run_until_refuses_to_run_the_clock_backwards() {
        let mut s = sim(1, GBIT);
        let h = s.topology().hosts().to_vec();
        s.start_flow(h[0], h[1], None, None, 0, 1);
        s.run_until(2 * SECS);
        s.run_until(SECS);
    }

    #[test]
    fn probe_rate_sees_background_load() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        assert!((s.probe_rate(h[0], h[2], None) - 1e9).abs() < 1.0);
        let _bg = s.start_flow(h[1], h[3], None, None, 0, 9);
        s.run_until(MILLIS);
        // Probe shares the bottleneck with one background flow.
        let r = s.probe_rate(h[0], h[2], None);
        assert!((r - 0.5e9).abs() < 1.0, "r = {r}");
    }

    #[test]
    fn probe_rate_does_not_perturb() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        let f = s.start_flow(h[0], h[2], Some(125_000_000), None, 0, 1);
        s.run_until(100 * MILLIS);
        let before = s.delivered_bytes(f);
        let rate_before = s.rate_bps(f);
        let gen_before = {
            // Probing must never touch the arena: no add/remove round
            // trip, not even a restoring one.
            let _ = s.probe_rate(h[0], h[2], None);
            s.active_flows()
        };
        assert_eq!(gen_before, 1);
        assert_eq!(s.delivered_bytes(f), before);
        assert_eq!(s.rate_bps(f), rate_before, "committed rates survive the what-if");
        // Batched probes are equally side-effect-free, and each candidate
        // is rated independently: both directions of the same bottleneck
        // see the same world as a lone probe does.
        let solo_02 = s.probe_rate(h[0], h[2], None);
        let solo_13 = s.probe_rate(h[1], h[3], None);
        let mut batched = Vec::new();
        s.probe_rates(&[(h[0], h[2], None), (h[1], h[3], None), (h[0], h[2], None)], &mut batched);
        assert_eq!(batched[0].to_bits(), solo_02.to_bits(), "batched == solo probe");
        assert_eq!(batched[1].to_bits(), solo_13.to_bits(), "batched == solo probe");
        assert_eq!(batched[2].to_bits(), batched[0].to_bits(), "candidates are independent");
        assert_eq!(s.delivered_bytes(f), before);
        assert_eq!(s.rate_bps(f), rate_before, "committed rates survive the batch");
        let end = s.run_to_completion();
        assert!((end as f64 - 1e9).abs() < 1e6);
    }

    #[test]
    fn measure_tcp_throughput_matches_fair_share() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        let _bg = s.start_flow(h[1], h[3], None, None, 0, 9);
        let rate = s.measure_tcp_throughput(h[0], h[2], None, SECS);
        assert!((rate - 0.5e9).abs() / 0.5e9 < 0.01, "rate = {rate}");
    }

    #[test]
    fn stop_flow_freezes_delivery() {
        let mut s = sim(1, GBIT);
        let h = s.topology().hosts().to_vec();
        let f = s.start_flow(h[0], h[1], None, None, 0, 1);
        s.stop_flow_at(f, 500 * MILLIS);
        s.run_until(SECS);
        let d = s.delivered_bytes(f);
        // 0.5 s at 1 Gbit/s = 62.5 MB.
        assert!((d as f64 - 62.5e6).abs() < 1e5, "d = {d}");
        assert!(matches!(s.status(f), FlowStatus::Done(_)));
    }

    #[test]
    fn onoff_background_changes_probe_rate_over_time() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        s.add_onoff(h[1], h[3], None, 200 * MILLIS, 200 * MILLIS, 0);
        let mut rates = Vec::new();
        for i in 1..=40 {
            s.run_until(i * 100 * MILLIS);
            rates.push(s.probe_rate(h[0], h[2], None));
        }
        let full = rates.iter().filter(|r| (**r - 1e9).abs() < 1.0).count();
        let half = rates.iter().filter(|r| (**r - 0.5e9).abs() < 1.0).count();
        assert!(full > 0, "sometimes idle");
        assert!(half > 0, "sometimes loaded");
        assert_eq!(full + half, rates.len());
    }

    #[test]
    fn tag_completion_requires_all_flows_done() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        s.start_flow(h[0], h[2], Some(1_000_000), None, 0, 5);
        s.start_flow(h[1], h[3], Some(100_000_000), None, 0, 5);
        s.run_until(100 * MILLIS);
        assert_eq!(s.tag_completion(5), None, "second flow still active");
        s.run_to_completion();
        assert!(s.tag_completion(5).is_some());
        assert_eq!(s.tag_completion(999), None, "unknown tag");
    }

    #[test]
    fn pending_flows_start_at_their_time() {
        let mut s = sim(1, GBIT);
        let h = s.topology().hosts().to_vec();
        let f = s.start_flow(h[0], h[1], Some(125_000_000), None, 2 * SECS, 1);
        s.run_until(SECS);
        assert_eq!(s.status(f), FlowStatus::Pending);
        assert_eq!(s.delivered_bytes(f), 0);
        let end = s.run_to_completion();
        assert!((end as f64 - 3e9).abs() < 1e6, "starts at 2 s, runs 1 s");
    }

    #[test]
    fn event_entries_order_by_time_then_fifo() {
        let a = EventEntry { at: 5, seq: 2, ev: Ev::Toggle(0) };
        let b = EventEntry { at: 5, seq: 3, ev: Ev::Toggle(1) };
        let c = EventEntry { at: 4, seq: 9, ev: Ev::Toggle(2) };
        assert!(c < a, "earlier time wins regardless of seq");
        assert!(a < b, "same instant: FIFO by scheduling order");
        assert_ne!(a, b, "distinct events are not equal");
        let mut heap = BinaryHeap::new();
        for e in [a, b, c] {
            heap.push(Reverse(e));
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e.seq)).collect();
        assert_eq!(order, vec![9, 2, 3]);
    }

    #[test]
    fn immediate_start_and_teardown_hooks() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        // An immediate flow is active (and visible to probes) with no
        // event-heap round trip.
        let f1 = s.start_flow_now(h[0], h[2], None, None, 77);
        let f2 = s.start_flow_now(h[1], h[3], None, None, 77);
        assert_eq!(s.status(f1), FlowStatus::Active);
        assert_eq!(s.active_flows(), 2);
        let r = s.probe_rate(h[0], h[2], None);
        // Both immediate flows cross the dumbbell's shared link, so a
        // probe is a third sharer there.
        assert!((r - 1e9 / 3.0).abs() < 1.0, "probe shares with the immediate flows: {r}");
        s.run_until(SECS);
        assert!(s.delivered_bytes(f1) > 0, "immediate flows deliver bytes");
        // Teardown of the whole tag in one call: both evicted, one
        // combined dirty window, next probe sees an idle network.
        s.stop_flows_now(&[f1, f2]);
        assert_eq!(s.active_flows(), 0);
        assert!(matches!(s.status(f1), FlowStatus::Done(_)));
        assert!(matches!(s.status(f2), FlowStatus::Done(_)));
        let r = s.probe_rate(h[0], h[2], None);
        assert!((r - 1e9).abs() < 1.0, "idle after teardown: {r}");
        // Stopping again is a no-op.
        s.stop_flows_now(&[f1, f2]);
        assert_eq!(s.active_flows(), 0);
    }

    #[test]
    fn released_records_are_recycled() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        let f1 = s.start_flow_now(h[0], h[2], None, None, 1);
        s.run_until(MILLIS);
        s.stop_flows_now(&[f1]);
        assert!(s.delivered_bytes(f1) > 0, "stats are harvestable before release");
        assert!(s.tag_completion(1).is_some());
        let records = s.flow_records();
        s.release_flow(f1);
        assert_eq!(s.tag_completion(1), None, "released flows leave their tag");
        // The next flow reuses the released record: the table does not
        // grow, and the stale key can never alias the new occupant.
        let f2 = s.start_flow_now(h[1], h[3], None, None, 2);
        assert_eq!(s.flow_records(), records);
        assert_ne!(f1, f2);
        assert_eq!(s.status(f2), FlowStatus::Active);
    }

    #[test]
    fn steady_churn_keeps_record_table_bounded() {
        let mut s = sim(4, GBIT);
        let h = s.topology().hosts().to_vec();
        for i in 0..1000u64 {
            let f =
                s.start_flow_now(h[(i % 4) as usize], h[4 + ((i + 1) % 4) as usize], None, None, i);
            s.run_until((i + 1) * MILLIS);
            s.stop_flows_now(&[f]);
            s.release_flow(f);
        }
        assert!(s.flow_records() <= 2, "record table leaked: {}", s.flow_records());
        assert!(s.peak_active_flows() <= 2, "peak = {}", s.peak_active_flows());
    }

    #[test]
    fn onoff_records_are_reclaimed() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        s.add_onoff(h[1], h[3], None, 200 * MILLIS, 200 * MILLIS, 0);
        s.run_until(20 * SECS);
        // ~50 on-periods have come and gone; reclamation at the toggle-off
        // stop keeps the record table at the concurrency bound.
        assert!(s.flow_records() <= 2, "onoff records leaked: {}", s.flow_records());
    }

    #[test]
    fn queued_events_for_released_flows_are_noops() {
        let mut s = sim(1, GBIT);
        let h = s.topology().hosts().to_vec();
        let f = s.start_flow(h[0], h[1], None, None, 0, 1);
        s.stop_flow_at(f, SECS);
        s.run_until(100 * MILLIS);
        s.stop_flows_now(&[f]);
        s.release_flow(f);
        // The queued stop now holds a stale key; the record's next
        // occupant must be untouchable through it.
        let g = s.start_flow_now(h[0], h[1], None, None, 2);
        s.run_until(2 * SECS);
        assert_eq!(s.status(g), FlowStatus::Active, "stale stop must not kill the new flow");
        assert!(s.delivered_bytes(g) > 0);
    }

    #[test]
    #[should_panic(expected = "stale FlowKey")]
    fn use_after_release_panics() {
        let mut s = sim(1, GBIT);
        let h = s.topology().hosts().to_vec();
        let f = s.start_flow_now(h[0], h[1], None, None, 1);
        s.stop_flows_now(&[f]);
        s.release_flow(f);
        let _ = s.status(f);
    }

    #[test]
    #[should_panic(expected = "stale FlowKey")]
    fn double_release_panics() {
        let mut s = sim(1, GBIT);
        let h = s.topology().hosts().to_vec();
        let f = s.start_flow_now(h[0], h[1], None, None, 1);
        s.stop_flows_now(&[f]);
        s.release_flow(f);
        s.release_flow(f);
    }

    #[test]
    #[should_panic(expected = "stale FlowKey")]
    fn wrong_generation_key_panics() {
        let mut s = sim(1, GBIT);
        let h = s.topology().hosts().to_vec();
        let f = s.start_flow_now(h[0], h[1], None, None, 1);
        let forged = FlowKey(f.0.wrapping_add(1 << KEY_INDEX_BITS));
        let _ = s.status(forged);
    }

    #[test]
    #[should_panic(expected = "only a retired")]
    fn releasing_an_active_flow_panics() {
        let mut s = sim(1, GBIT);
        let h = s.topology().hosts().to_vec();
        let f = s.start_flow_now(h[0], h[1], None, None, 1);
        s.release_flow(f);
    }

    #[test]
    fn link_failure_degradation_and_recovery_move_live_rates() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        let f = s.start_flow(h[0], h[2], None, None, 0, 1);
        s.run_until(100 * MILLIS);
        assert!((s.rate_bps(f) - 1e9).abs() < 1.0, "healthy shared link");
        // The dumbbell's shared link is the last one; find it by nominal
        // rate shape: every link here is 1 Gbit, so degrade the one the
        // flow's probe path crosses — link ids are dense, just cut all of
        // them to prove the plumbing reaches the solver.
        let links = s.topology().link_count() as u32;
        for l in 0..links {
            s.degrade_link(l, 0.25);
        }
        s.run_until(200 * MILLIS);
        assert!((s.rate_bps(f) - 0.25e9).abs() < 1.0, "degraded to a quarter");
        for l in 0..links {
            s.fail_link(l);
        }
        s.run_until(300 * MILLIS);
        assert!(s.rate_bps(f) <= FAILED_LINK_BPS, "failed link strands the flow");
        assert!(s.capacity_lost_fraction() > 0.99, "all link capacity gone");
        for l in 0..links {
            s.recover_link(l);
        }
        s.run_until(400 * MILLIS);
        assert!((s.rate_bps(f) - 1e9).abs() < 1.0, "recovery restores the nominal rate");
        assert_eq!(s.capacity_lost_fraction(), 0.0, "nothing lost after recovery");
    }

    #[test]
    fn capacity_changes_keep_probes_and_trajectory_consistent() {
        // A capacity change invalidates the probe log; the next probe
        // must re-solve and see the new capacity, not the stale one.
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        let _bg = s.start_flow(h[1], h[3], None, None, 0, 9);
        s.run_until(MILLIS);
        let links = s.topology().link_count() as u32;
        for l in 0..links {
            s.degrade_link(l, 0.5);
        }
        let r = s.probe_rate(h[0], h[2], None);
        assert!((r - 0.25e9).abs() < 1.0, "probe shares the degraded bottleneck: {r}");
        // set_capacity with the current value is a no-op (no dirty solve).
        let cap0 = s.capacity(0);
        s.set_capacity(0, cap0);
        assert!((s.probe_rate(h[0], h[2], None) - r).abs() < 1e-9);
    }

    #[test]
    fn simultaneous_completions_retire_in_ascending_slot_order() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        // Slots 0, 1, 2; stopping the first swaps the bounded list to
        // [2, 1], so list order and slot order disagree.
        let a = s.start_flow_now(h[0], h[2], Some(50_000_000), None, 1);
        let b = s.start_flow_now(h[1], h[3], Some(1_000_000), None, 2);
        let c = s.start_flow_now(h[1], h[3], Some(1_000_000), None, 3);
        s.stop_flows_now(&[a]);
        assert_eq!(s.bounded, vec![2, 1]);
        s.check_invariants();
        // b and c share every resource and every byte count: they finish
        // in the same instant, and must free slot 1 before slot 2 — the
        // arena hands slots back out last-freed-first.
        let end = s.run_to_completion();
        assert_eq!(s.completion_time(b), Some(end));
        assert_eq!(s.completion_time(c), Some(end));
        assert_eq!(s.delivered_bytes(b), s.delivered_bytes(c));
        s.check_invariants();
        let d = s.start_flow_now(h[0], h[2], None, None, 4);
        let e = s.start_flow_now(h[0], h[2], Some(1), None, 5);
        assert_eq!((s.flows[d.index() as usize].slot, s.flows[e.index() as usize].slot), (2, 1));
        s.check_invariants();
    }

    #[test]
    fn arena_stays_consistent_through_churn() {
        let mut s = sim(4, GBIT);
        let h = s.topology().hosts().to_vec();
        let mut keys = Vec::new();
        for i in 0..8 {
            let f = s.start_flow(
                h[i % 4],
                h[4 + (i + 1) % 4],
                Some(1_000_000 * (i as u64 + 1)),
                None,
                (i as u64) * 10 * MILLIS,
                i as u64,
            );
            keys.push(f);
        }
        s.run_to_completion();
        s.check_invariants();
        assert_eq!(s.active_flows(), 0, "all evicted from the arena");
        for k in keys {
            assert!(matches!(s.status(k), FlowStatus::Done(_)));
        }
    }

    #[test]
    #[should_panic(expected = "no path from")]
    fn probing_an_unroutable_pair_panics_by_name() {
        // Two islands: hosts with no link between them.
        let mut b = Topology::builder();
        let hosts = b.hosts(2, "h");
        let t = Arc::new(b.build());
        let r = Arc::new(RouteTable::new(&t));
        let mut s = FlowSim::new(t, r, LinkSpec::new(4.2 * GBIT, 20 * MICROS), 7);
        s.probe_rate(hosts[0], hosts[1], None);
    }

    // ------------------------------------------------- spliced probes

    /// The resources of a probe's whole path 0 plus its hose — or the
    /// source's loopback for a co-located probe: what the engine's splice
    /// of lead, walk, tail and hose must fold to.
    fn full_probe_path(s: &FlowSim, src: NodeId, dst: NodeId, hose: Option<HoseId>) -> Vec<u32> {
        if src == dst {
            return vec![s.host_loopback_res(src)];
        }
        let path = s.routes.path(src, dst, 0);
        path.hops().iter().map(hop_resource).chain(hose.map(|h| h.0)).collect()
    }

    /// Rate each batch through [`FlowSim::probe_rates`] and bit-compare
    /// every answer with the full-path reference walk over the same log;
    /// the batches share one epoch, so later ones find walks folded by
    /// earlier ones. Then rate the first again, as a batch (served from
    /// the memos: no record read, no walk folded) and one probe at a time.
    fn check_spliced_probes(s: &mut FlowSim, batches: &[Vec<(NodeId, NodeId, Option<HoseId>)>]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut outs = Vec::new();
        for probes in batches {
            let mut out = Vec::new();
            s.probe_rates(probes, &mut out);
            for (&(src, dst, hose), got) in probes.iter().zip(&out) {
                let path = full_probe_path(s, src, dst, hose);
                let want = reference::probe(&s.solver, &s.capacities, &s.arena, &path);
                assert_eq!(got.to_bits(), want.to_bits(), "{src:?} -> {dst:?} via {hose:?}");
            }
            outs.push(out);
        }
        let mut again = Vec::new();
        s.probe_rates(&batches[0], &mut again);
        assert_eq!(s.solver.last_probe_records_built(), 0, "a repeat read a record");
        assert_eq!(s.last_walks_built, 0, "a repeat folded a walk");
        assert_eq!(bits(&again), bits(&outs[0]), "memos disagree with the pass that built them");
        for (&(src, dst, hose), got) in batches[0].iter().zip(&outs[0]) {
            assert_eq!(s.probe_rate(src, dst, hose).to_bits(), got.to_bits(), "single probe");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(32)))]
        #[test]
        fn spliced_probes_bitmatch_the_full_path_reference_under_churn(
            ops in prop::collection::vec((0u8..6, any::<u64>()), 1..16),
            picks in prop::collection::vec(any::<u64>(), 4..40),
        ) {
            // Four racks of three hosts: sixteen walks, so random pairs
            // repeat walks within a batch, and rack neighbours name none.
            let topo = Arc::new(
                MultiRootedTreeSpec {
                    cores: 2,
                    pods: 2,
                    aggs_per_pod: 2,
                    tors_per_pod: 2,
                    hosts_per_tor: 3,
                    ..Default::default()
                }
                .build(),
            );
            let routes = Arc::new(RouteTable::new(&topo));
            let mut s = FlowSim::new(Arc::clone(&topo), routes, LinkSpec::new(4.2 * GBIT, 20 * MICROS), 7);
            let h = topo.hosts().to_vec();
            let n = h.len() as u64;
            let hoses = [s.add_hose(300.0 * MBIT), s.add_hose(2.0 * GBIT)];
            let links = topo.link_count() as u64;
            let pick = |r: u64| {
                let hose = ((r >> 16) % 3).checked_sub(1).map(|i| hoses[i as usize]);
                (h[(r % n) as usize], h[((r >> 8) % n) as usize], hose)
            };
            // Every batch also rates a co-located pair, hosed and not.
            let mut first: Vec<_> = picks.iter().map(|&r| pick(r)).collect();
            first.extend([(h[0], h[0], None), (h[5], h[5], Some(hoses[0]))]);
            let reversed: Vec<_> = first.iter().map(|&(a, b, hose)| (b, a, hose)).collect();
            let batches = [first, reversed];
            let mut live = Vec::new();
            check_spliced_probes(&mut s, &batches);
            for (op, r) in ops {
                let link = ((r >> 24) % links) as u32;
                match op {
                    0 | 1 => {
                        let (a, b, hose) = pick(r);
                        live.push(s.start_flow_now(a, b, None, hose, 1));
                    }
                    2 if !live.is_empty() => {
                        let k = live.swap_remove((r >> 32) as usize % live.len());
                        s.stop_flows_now(&[k]);
                        s.release_flow(k);
                    }
                    2 | 3 => s.degrade_link(link, ((r >> 40) % 8 + 1) as f64 / 8.0),
                    4 => s.fail_link(link),
                    _ => s.recover_link(link),
                }
                check_spliced_probes(&mut s, &batches);
            }
        }
    }
}
