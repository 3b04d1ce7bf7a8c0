//! The flow-level simulation engine, split by invariant:
//!
//! - `mod.rs`: the [`FlowSim`] struct, its constructor, [`SolveStats`],
//!   the queries and the two test hooks;
//! - `records.rs`: keys, flow records and their recycling, the
//!   slot-indexed columns, activation and retirement;
//! - `run.rs`: the events, ON–OFF sources, `run_until`, integration,
//!   completions and the one place a solve runs;
//! - `probe.rs`: what-if probes and the per-walk fold memo;
//! - `capacity.rs`: hoses, runtime capacity and the lost-capacity
//!   fractions.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use choreo_topology::{Nanos, RouteTable, TimerQueue, Topology, LOOPBACK};

use crate::fairshare::{max_min_rates, FlowArena, FlowSlot, MaxMinSolver, ProbeRecord};

mod capacity;
mod probe;
mod records;
mod run;

pub use capacity::{HoseId, FAILED_LINK_BPS};
use records::{Flow, NO_SLOT};
pub use records::{FlowKey, FlowStatus};
use run::{Ev, OnOff};

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
    events: TimerQueue<Ev>,
    now: Nanos,
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
/// [`span`](choreo_metrics::span) recorder is installed. Benches use the
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
    /// What-if candidates rated, over all batches (a lone candidate is a
    /// batch of one).
    pub probes: u64,
    /// Logged rounds walked on behalf of probes: each per-resource
    /// record read off the solve log walks it once, a candidate whose
    /// resources all have a record walks nothing — so this follows the
    /// distinct resources probed per solve, not the candidates.
    pub probe_replay_rounds: u64,
}

impl FlowSim {
    /// Build a simulator. Co-located traffic runs over each host's
    /// loopback at [`LOOPBACK`]'s rate (the paper's ≈ 4 Gbit/s same-host
    /// paths) and bypasses the hoses.
    pub fn new(topo: Arc<Topology>, routes: Arc<RouteTable>, seed: u64) -> Self {
        let mut capacities = Vec::with_capacity(topo.link_count() * 2 + topo.hosts().len());
        for l in topo.links() {
            capacities.push(l.spec.rate_bps);
            capacities.push(l.spec.rate_bps);
        }
        for _ in topo.hosts() {
            capacities.push(LOOPBACK.rate_bps);
        }
        let arena = FlowArena::new(capacities.len());
        FlowSim {
            topo,
            routes,
            capacities,
            flows: Vec::new(),
            free_flows: Vec::new(),
            flow_seq: 0,
            unfinished_bounded: 0,
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
            events: TimerQueue::new(),
            now: 0,
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
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::records::KEY_INDEX_BITS;
    use super::*;
    use crate::fairshare::reference;
    use choreo_topology::{
        dumbbell, LinkSpec, MultiRootedTreeSpec, NodeId, GBIT, MBIT, MICROS, MILLIS, SECS,
    };

    fn sim(n_pairs: usize, shared: f64) -> FlowSim {
        let t = Arc::new(dumbbell(
            n_pairs,
            LinkSpec::new(GBIT, 5 * MICROS),
            LinkSpec::new(shared, 20 * MICROS),
        ));
        let r = Arc::new(RouteTable::new(&t));
        FlowSim::new(t, r, 7)
    }

    /// Rate one hypothetical flow: a batch of one.
    fn probe1(s: &mut FlowSim, src: NodeId, dst: NodeId, hose: Option<HoseId>) -> f64 {
        let mut out = Vec::new();
        s.probe_rates(&[(src, dst, hose)], &mut out);
        out[0]
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
    fn a_pending_flow_stopped_before_it_starts_costs_no_solve() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        s.start_flow_now(h[0], h[2], None, None, 1);
        s.run_until(MILLIS);
        let solves = s.solve_stats().warm_solves + s.solve_stats().cold_solves;
        // Retired while pending: it never entered the arena, so the dirty
        // window stays empty and nothing needs a solve.
        let now = s.now();
        let f = s.start_flow(h[1], h[3], None, None, now + 10 * MILLIS, 2);
        s.stop_flow_at(f, now + 5 * MILLIS);
        s.run_until(now + 20 * MILLIS);
        assert!(matches!(s.status(f), FlowStatus::Done(_)));
        let st = s.solve_stats();
        assert_eq!(st.warm_solves + st.cold_solves, solves, "{st:?}");
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
        assert!((probe1(&mut s, h[0], h[2], None) - 1e9).abs() < 1.0);
        let _bg = s.start_flow(h[1], h[3], None, None, 0, 9);
        s.run_until(MILLIS);
        // Probe shares the bottleneck with one background flow.
        let r = probe1(&mut s, h[0], h[2], None);
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
            let _ = probe1(&mut s, h[0], h[2], None);
            s.active_flows()
        };
        assert_eq!(gen_before, 1);
        assert_eq!(s.delivered_bytes(f), before);
        assert_eq!(s.rate_bps(f), rate_before, "committed rates survive the what-if");
        // Larger batches are equally side-effect-free, and each candidate
        // is rated independently: both directions of the same bottleneck
        // see the same world as a batch of one does.
        let solo_02 = probe1(&mut s, h[0], h[2], None);
        let solo_13 = probe1(&mut s, h[1], h[3], None);
        let mut batched = Vec::new();
        s.probe_rates(&[(h[0], h[2], None), (h[1], h[3], None), (h[0], h[2], None)], &mut batched);
        assert_eq!(batched[0].to_bits(), solo_02.to_bits(), "batch of three == batch of one");
        assert_eq!(batched[1].to_bits(), solo_13.to_bits(), "batch of three == batch of one");
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
        let rate = s.measure_tcp_throughput(&[(h[0], h[2], None)], SECS)[0];
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
            rates.push(probe1(&mut s, h[0], h[2], None));
        }
        let full = rates.iter().filter(|r| (**r - 1e9).abs() < 1.0).count();
        let half = rates.iter().filter(|r| (**r - 0.5e9).abs() < 1.0).count();
        assert!(full > 0, "sometimes idle");
        assert!(half > 0, "sometimes loaded");
        assert_eq!(full + half, rates.len());
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
    fn immediate_start_and_teardown_hooks() {
        let mut s = sim(2, GBIT);
        let h = s.topology().hosts().to_vec();
        // An immediate flow is active (and visible to probes) with no
        // event-heap round trip.
        let f1 = s.start_flow_now(h[0], h[2], None, None, 77);
        let f2 = s.start_flow_now(h[1], h[3], None, None, 77);
        assert_eq!(s.status(f1), FlowStatus::Active);
        assert_eq!(s.active_flows(), 2);
        let r = probe1(&mut s, h[0], h[2], None);
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
        let r = probe1(&mut s, h[0], h[2], None);
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
        let records = s.flow_records();
        s.release_flow(f1);
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
        let r = probe1(&mut s, h[0], h[2], None);
        assert!((r - 0.25e9).abs() < 1.0, "probe shares the degraded bottleneck: {r}");
        // set_capacity with the current value is a no-op (no dirty solve).
        let cap0 = s.capacity(0);
        s.set_capacity(0, cap0);
        assert!((probe1(&mut s, h[0], h[2], None) - r).abs() < 1e-9);
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
        let mut s = FlowSim::new(t, r, 7);
        probe1(&mut s, hosts[0], hosts[1], None);
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
    /// earlier ones. Then rate the first again (served from the memos: no
    /// record read, no walk folded).
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
            let mut s = FlowSim::new(Arc::clone(&topo), routes, 7);
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
