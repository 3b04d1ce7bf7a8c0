//! Max-min fair rate allocation by progressive filling, over a persistent
//! incrementally-maintained flow set.
//!
//! Given resources with capacities and flows that each traverse a set of
//! resources, raise every flow's rate together until some resource
//! saturates; freeze the flows crossing it at that level; repeat. The
//! result is the unique max-min fair allocation — the steady state an
//! ensemble of equally aggressive bulk TCP flows approaches.
//!
//! # Architecture
//!
//! Two pieces replace the old per-call `&[Vec<u32>]` interface:
//!
//! * [`FlowArena`] — a CSR-style arena holding the *current* flow set:
//!   every flow's resource list lives in one flat `pool`, addressed by
//!   per-slot `(start, len)`, plus a **reverse index** `resource → [(slot,
//!   k)]` so the solver can enumerate the flows crossing a bottleneck
//!   without scanning all flows. Flows are added and removed in `O(path
//!   length)`; slots and pool blocks are recycled through free lists so a
//!   steady churn of flows performs no heap allocation.
//! * [`MaxMinSolver`] — progressive filling driven by a **lazy min-heap**
//!   over per-resource fair shares. All working state (`slack`, `users`,
//!   `frozen`, the heap, per-round scratch) is retained between calls;
//!   after the first solve at a given problem size, a solve allocates
//!   nothing. [`MaxMinSolver::solve_logged`] additionally records the
//!   freeze-round sequence (`SolveLog`), which powers both the batched
//!   what-if probes and [`MaxMinSolver::solve_warm`] — the warm-started
//!   delta solve that replays the log after arena churn and runs live
//!   rounds only for the perturbed cascade (see the crate docs for the
//!   cold → logged → warm lifecycle).
//!
//! # Arena invariants
//!
//! 1. For every live slot `f` and position `k < len[f]`, let `r =
//!    pool[start[f] + k]`. Then `rev[r][rev_pos[start[f] + k]]` is exactly
//!    the entry `(f, k)` — the forward and reverse indexes mirror each
//!    other.
//! 2. `rev[r].len()` equals the number of live flows crossing `r` (each
//!    flow lists a resource at most once), so the solver reads initial
//!    user counts in `O(1)` per resource.
//! 3. Vacant slots keep their pool block (capacity `cap[f]`); surplus
//!    blocks are banked in power-of-two free lists, never leaked.
//! 4. Resource ids are dense `0..n_resources`; [`FlowArena::grow_resources`]
//!    extends the id space without disturbing existing flows.
//!
//! Determinism: the solver freezes whole rounds with order-insensitive
//! arithmetic (`slack -= count × level`, applied per resource, bottleneck
//! chosen by minimal `(share, resource id)`), so the allocation is a pure
//! function of the *set* of live flows — independent of the
//! insertion/removal history that shaped the arena's internal ordering.
//! The property suite exploits this to bit-match incremental results
//! against a from-scratch reference solve.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a flow inside a [`FlowArena`].
///
/// Slots are recycled: a handle is valid from [`FlowArena::add`] until the
/// matching [`FlowArena::remove`], after which the arena may reuse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSlot(pub u32);

/// Reverse-index entry: packed `(slot, k)` where `k` is the position of
/// the resource within the slot's resource list.
#[inline]
fn pack(slot: u32, k: u32) -> u64 {
    ((slot as u64) << 32) | k as u64
}
#[inline]
fn unpack(e: u64) -> (u32, u32) {
    ((e >> 32) as u32, e as u32)
}

/// CSR-style arena of flows over a dense resource id space.
#[derive(Debug, Default, Clone)]
pub struct FlowArena {
    /// Flat storage of resource ids; each slot owns a fixed-capacity block.
    pool: Vec<u32>,
    /// Per-incidence position inside `rev[resource]` (parallel to `pool`).
    rev_pos: Vec<u32>,
    /// Per-slot block offset into `pool`.
    start: Vec<u32>,
    /// Per-slot live resource count (`0` while vacant).
    len: Vec<u32>,
    /// Per-slot block capacity (a power of two).
    cap: Vec<u32>,
    /// Whether the slot currently holds a flow.
    live: Vec<bool>,
    /// Vacant slots, reusable by `add` (each keeps its pool block).
    free_slots: Vec<u32>,
    /// Spare pool blocks by log2(capacity).
    free_blocks: Vec<Vec<u32>>,
    /// Reverse index: resource id → packed `(slot, k)` of live crossings.
    rev: Vec<Vec<u64>>,
    /// Per-resource live-flow count (mirrors `rev[r].len()`, kept flat so
    /// solvers read initial user counts with one memcpy).
    users_cnt: Vec<u32>,
    n_live: usize,
    /// Mutation counter, bumped by every `add`/`remove`/`grow_resources`.
    /// [`MaxMinSolver::probe`] uses it to detect that its logged solve
    /// still describes this arena.
    generation: u64,
    /// Resources whose incident flow set changed since the last
    /// [`FlowArena::clear_dirty`] — the perturbation set a warm-started
    /// solve must re-validate. Deduplicated through `dirty_mark`, so the
    /// list is bounded by the resource count and steady churn appends
    /// without allocating once the buffer is warm.
    dirty: Vec<u32>,
    /// Per-resource membership flag for `dirty`.
    dirty_mark: Vec<bool>,
    /// Slots added or removed in the same window (deduplicated via
    /// `dirty_slot_mark`) — the flow-level view of the churn, consumed by
    /// the sharded solve's incremental split alongside `dirty`.
    dirty_slots: Vec<u32>,
    /// Per-slot membership flag for `dirty_slots`.
    dirty_slot_mark: Vec<bool>,
    /// Resources whose **capacity** changed in the same window
    /// ([`FlowArena::touch_resource`]) — a subset of `dirty` kept
    /// separately so the sharded split can propagate capacity changes to
    /// the owning shards without treating every flow-churned resource as
    /// capacity-churned.
    dirty_caps: Vec<u32>,
    /// Per-resource membership flag for `dirty_caps`.
    dirty_cap_mark: Vec<bool>,
}

impl FlowArena {
    /// Arena over resources `0..n_resources`.
    pub fn new(n_resources: usize) -> FlowArena {
        FlowArena {
            rev: vec![Vec::new(); n_resources],
            users_cnt: vec![0; n_resources],
            dirty_mark: vec![false; n_resources],
            dirty_cap_mark: vec![false; n_resources],
            ..FlowArena::default()
        }
    }

    /// Number of resource ids the arena knows about.
    pub fn n_resources(&self) -> usize {
        self.rev.len()
    }

    /// Extend the resource id space to `n_resources` (no-op if smaller).
    pub fn grow_resources(&mut self, n_resources: usize) {
        if n_resources > self.rev.len() {
            self.rev.resize_with(n_resources, Vec::new);
            self.users_cnt.resize(n_resources, 0);
            self.dirty_mark.resize(n_resources, false);
            self.dirty_cap_mark.resize(n_resources, false);
            self.generation = self.generation.wrapping_add(1);
        }
    }

    /// Mutation counter: two reads returning the same value bracket a span
    /// in which the arena was not structurally modified. Clones inherit the
    /// counter, so the stamp identifies a state within one mutation
    /// lineage, not across independently evolved clones.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live flows.
    pub fn n_flows(&self) -> usize {
        self.n_live
    }

    /// Upper bound (exclusive) on live slot indices; slots below this may
    /// be vacant. Rate buffers must be sized to this.
    pub fn slot_bound(&self) -> usize {
        self.len.len()
    }

    /// Number of live flows crossing resource `r`.
    pub fn users(&self, r: u32) -> usize {
        self.users_cnt[r as usize] as usize
    }

    /// Per-resource live-flow counts, indexed by resource id.
    pub fn users_counts(&self) -> &[u32] {
        &self.users_cnt
    }

    /// Is `slot` currently live?
    pub fn is_live(&self, slot: FlowSlot) -> bool {
        (slot.0 as usize) < self.live.len() && self.live[slot.0 as usize]
    }

    /// The resource list of a live flow.
    pub fn resources(&self, slot: FlowSlot) -> &[u32] {
        let f = slot.0 as usize;
        assert!(self.live[f], "slot {f} is vacant");
        let s = self.start[f] as usize;
        &self.pool[s..s + self.len[f] as usize]
    }

    /// Iterate `(slot, resources)` over live flows in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowSlot, &[u32])> + '_ {
        (0..self.len.len()).filter(|&f| self.live[f]).map(move |f| {
            let s = self.start[f] as usize;
            (FlowSlot(f as u32), &self.pool[s..s + self.len[f] as usize])
        })
    }

    /// Add a flow crossing `resources`; returns its slot.
    ///
    /// Panics if `resources` is empty (a flow that crosses nothing has no
    /// bottleneck) or names an id `≥ n_resources()`. In debug builds also
    /// rejects duplicate ids (a flow would be double-charged).
    pub fn add(&mut self, resources: &[u32]) -> FlowSlot {
        assert!(!resources.is_empty(), "flow traverses no resources");
        for &r in resources {
            assert!((r as usize) < self.rev.len(), "flow: bad resource {r}");
        }
        // Allocation-free duplicate check (paths are short), so debug
        // builds keep the steady-state zero-alloc guarantee testable.
        debug_assert!(
            resources.iter().enumerate().all(|(i, r)| !resources[..i].contains(r)),
            "flow lists a resource twice (it would be double-charged)"
        );
        let need = resources.len() as u32;
        let f = match self.free_slots.pop() {
            Some(f) => f as usize,
            None => {
                self.start.push(0);
                self.len.push(0);
                self.cap.push(0);
                self.live.push(false);
                self.len.len() - 1
            }
        };
        if self.cap[f] < need {
            self.release_block(f);
            self.acquire_block(f, need);
        }
        let s = self.start[f] as usize;
        self.len[f] = need;
        self.live[f] = true;
        self.n_live += 1;
        self.generation = self.generation.wrapping_add(1);
        self.mark_dirty_slot(f);
        for (k, &r) in resources.iter().enumerate() {
            self.pool[s + k] = r;
            self.rev_pos[s + k] = self.rev[r as usize].len() as u32;
            self.rev[r as usize].push(pack(f as u32, k as u32));
            self.users_cnt[r as usize] += 1;
            self.mark_dirty(r);
        }
        FlowSlot(f as u32)
    }

    /// Remove a live flow. Its slot and pool block are recycled.
    pub fn remove(&mut self, slot: FlowSlot) {
        let f = slot.0 as usize;
        assert!(self.live[f], "remove: slot {f} is vacant");
        let s = self.start[f] as usize;
        for k in 0..self.len[f] as usize {
            let r = self.pool[s + k] as usize;
            self.users_cnt[r] -= 1;
            self.mark_dirty(r as u32);
            let p = self.rev_pos[s + k] as usize;
            let list = &mut self.rev[r];
            list.swap_remove(p);
            if p < list.len() {
                // Fix the moved entry's back-pointer.
                let (mf, mk) = unpack(list[p]);
                self.rev_pos[self.start[mf as usize] as usize + mk as usize] = p as u32;
            }
        }
        self.len[f] = 0;
        self.live[f] = false;
        self.n_live -= 1;
        self.generation = self.generation.wrapping_add(1);
        self.mark_dirty_slot(f);
        self.free_slots.push(f as u32);
    }

    /// Record that resource `r`'s incident flow set changed (idempotent
    /// between clears).
    #[inline]
    fn mark_dirty(&mut self, r: u32) {
        if !self.dirty_mark[r as usize] {
            self.dirty_mark[r as usize] = true;
            self.dirty.push(r);
        }
    }

    /// Record that `f`'s slot changed liveness or contents (idempotent
    /// between clears).
    #[inline]
    fn mark_dirty_slot(&mut self, f: usize) {
        if self.dirty_slot_mark.len() <= f {
            self.dirty_slot_mark.resize(f + 1, false);
        }
        if !self.dirty_slot_mark[f] {
            self.dirty_slot_mark[f] = true;
            self.dirty_slots.push(f as u32);
        }
    }

    /// Record an **external** perturbation of resource `r` — a capacity
    /// change — in the same dirty window flow churn uses.
    ///
    /// The solver rebuilds per-resource slack from the caller's
    /// `capacities` slice on every solve, so a capacity change needs no
    /// state transfer: seeding `r` as perturbed is enough for
    /// [`MaxMinSolver::solve_warm`] (and the sharded reconciliation) to
    /// re-validate every logged round `r` participates in and fall back
    /// to live filling from the first round the new capacity actually
    /// changes — bit-identical to a cold solve at the new capacity.
    /// Bumps the generation, so probe logs recorded against the old
    /// capacity stop matching ([`MaxMinSolver::log_matches`]) and are
    /// re-recorded before the next what-if.
    pub fn touch_resource(&mut self, r: u32) {
        assert!((r as usize) < self.rev.len(), "touch: bad resource {r}");
        self.mark_dirty(r);
        if !self.dirty_cap_mark[r as usize] {
            self.dirty_cap_mark[r as usize] = true;
            self.dirty_caps.push(r);
        }
        self.generation = self.generation.wrapping_add(1);
    }

    /// Resources announced through [`FlowArena::touch_resource`] since the
    /// dirty window was last closed — the capacity-churn subset of
    /// [`FlowArena::dirty_resources`], consumed by the sharded split to
    /// mark the owning shards dirty.
    pub fn dirty_capacities(&self) -> &[u32] {
        &self.dirty_caps
    }

    /// Dirty set size (tests / diagnostics).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Slots added or removed since the dirty window was last closed, in
    /// first-touch order — the flow-level twin of
    /// [`FlowArena::dirty_resources`], sharing its window (one clear
    /// resets both). A recycled slot (removed then re-added) appears
    /// once; consumers re-read its current state.
    pub fn dirty_slots(&self) -> &[u32] {
        &self.dirty_slots
    }

    /// Resources mutated since the dirty window was last closed (warm
    /// solves consume and re-open it), in first-touch order. This is the perturbation set
    /// [`MaxMinSolver::solve_warm`] re-validates logged freeze rounds
    /// against; it is deliberately an *over*-approximation (entries are
    /// only removed by a clear), which is always safe — a falsely-dirty
    /// resource just gets an explicit share check.
    pub fn dirty_resources(&self) -> &[u32] {
        &self.dirty
    }

    /// Open a new dirty window. Called by [`MaxMinSolver::solve_warm`] at
    /// the moment its log is re-recorded against this arena, which keeps
    /// the invariant warm solving relies on: the dirty set always covers
    /// every mutation since the solver's log was written. (This is also
    /// why at most one warm-chaining solver should drive a given arena —
    /// a second one would consume the first one's window.)
    fn clear_dirty(&mut self) {
        for &r in &self.dirty {
            self.dirty_mark[r as usize] = false;
        }
        self.dirty.clear();
        for &f in &self.dirty_slots {
            self.dirty_slot_mark[f as usize] = false;
        }
        self.dirty_slots.clear();
        for &r in &self.dirty_caps {
            self.dirty_cap_mark[r as usize] = false;
        }
        self.dirty_caps.clear();
    }

    /// Hand slot `f`'s block (if any) to the free lists.
    fn release_block(&mut self, f: usize) {
        let cap = self.cap[f];
        if cap > 0 {
            let class = cap.trailing_zeros() as usize;
            if self.free_blocks.len() <= class {
                self.free_blocks.resize_with(class + 1, Vec::new);
            }
            self.free_blocks[class].push(self.start[f]);
            self.cap[f] = 0;
        }
    }

    /// Give slot `f` a block of capacity ≥ `need` (power of two).
    fn acquire_block(&mut self, f: usize, need: u32) {
        let cap = need.next_power_of_two();
        let class = cap.trailing_zeros() as usize;
        if let Some(start) = self.free_blocks.get_mut(class).and_then(Vec::pop) {
            self.start[f] = start;
        } else {
            self.start[f] = self.pool.len() as u32;
            self.pool.resize(self.pool.len() + cap as usize, 0);
            self.rev_pos.resize(self.pool.len(), 0);
        }
        self.cap[f] = cap;
    }

    /// Resource list of a slot, without the liveness assertion (solver
    /// hot path; callers guarantee the slot came from the reverse index,
    /// which only holds live flows).
    #[inline]
    fn resources_unchecked(&self, slot: u32) -> &[u32] {
        let f = slot as usize;
        let s = self.start[f] as usize;
        &self.pool[s..s + self.len[f] as usize]
    }

    /// Internal consistency check (tests / debug only): invariants 1–3.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut live_incidences = 0usize;
        for f in 0..self.len.len() {
            if !self.live[f] {
                assert_eq!(self.len[f], 0, "vacant slot {f} has length");
                continue;
            }
            let s = self.start[f] as usize;
            for k in 0..self.len[f] as usize {
                let r = self.pool[s + k] as usize;
                let p = self.rev_pos[s + k] as usize;
                assert_eq!(self.rev[r][p], pack(f as u32, k as u32), "rev mirror broken");
                live_incidences += 1;
            }
        }
        let rev_total: usize = self.rev.iter().map(Vec::len).sum();
        assert_eq!(rev_total, live_incidences, "reverse index leaks entries");
        for (r, list) in self.rev.iter().enumerate() {
            assert_eq!(self.users_cnt[r] as usize, list.len(), "user count drifted at {r}");
        }
    }
}

/// Heap key: per-resource fair share packed into one `u128` —
/// `share_bits(64) | resource(32) | version(32)`, ordered ascending.
///
/// Shares are finite and non-negative, so their raw IEEE-754 bit patterns
/// order exactly like the values; packing them above the resource id
/// yields `(share, resource)` ordering with a single integer compare, and
/// ties freeze the lowest-numbered resource first — matching the
/// reference solver's linear scan. The version stamp rides in the low
/// bits (it never influences which of two *distinct* resources pops
/// first) and invalidates stale entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ShareKey(u128);

impl ShareKey {
    #[inline]
    fn new(share: f64, res: u32, version: u32) -> ShareKey {
        debug_assert!(share >= 0.0 && share.is_finite());
        ShareKey(((share.to_bits() as u128) << 64) | ((res as u128) << 32) | version as u128)
    }
    #[inline]
    fn share(self) -> f64 {
        f64::from_bits((self.0 >> 64) as u64)
    }
    #[inline]
    fn res(self) -> u32 {
        (self.0 >> 32) as u32
    }
    #[inline]
    fn version(self) -> u32 {
        self.0 as u32
    }
}

/// A batch of candidate what-if flows for [`MaxMinSolver::probe_batch`].
///
/// Candidate resource lists are packed contiguously (CSR), so building and
/// draining a batch allocates nothing once the buffers are warm — reuse
/// one instance via [`ProbeBatch::clear`]. Every candidate is evaluated
/// **independently**: "what rate would this flow get if it alone joined
/// the current flow set", all candidates sharing the frozen prefix of a
/// single logged solve instead of paying one full solve each.
#[derive(Debug, Default, Clone)]
pub struct ProbeBatch {
    /// Flat candidate resource ids.
    res: Vec<u32>,
    /// Candidate `i` occupies `res[ends[i - 1]..ends[i]]` (`ends[-1]` ≡ 0).
    ends: Vec<u32>,
}

impl ProbeBatch {
    /// Empty batch.
    pub fn new() -> ProbeBatch {
        ProbeBatch::default()
    }

    /// Drop all candidates, keeping the buffers.
    pub fn clear(&mut self) {
        self.res.clear();
        self.ends.clear();
    }

    /// Append a candidate flow crossing `resources`; returns its index in
    /// the batch (the position of its rate in the output of
    /// [`MaxMinSolver::probe_batch`]).
    ///
    /// Panics if `resources` is empty — like [`FlowArena::add`], a flow
    /// that crosses nothing has no bottleneck.
    pub fn push(&mut self, resources: &[u32]) -> usize {
        assert!(!resources.is_empty(), "candidate traverses no resources");
        self.res.extend_from_slice(resources);
        self.ends.push(self.res.len() as u32);
        self.ends.len() - 1
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Resource list of candidate `i`.
    pub fn resources(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.res[start..self.ends[i] as usize]
    }
}

/// Round log of one progressive-filling solve — the *shared frozen prefix*
/// that candidate replays walk instead of re-running the solve.
///
/// Per freeze round it records the popped bottleneck key (version bits
/// zeroed), the freeze level, and the per-resource `(id, frozen-count)`
/// deltas the round applied. A candidate crossing resources `S` perturbs
/// only the shares of `S` (each gains one user), so the base rounds replay
/// unchanged until the first round whose bottleneck key is beaten by a
/// candidate share — at which point the candidate itself freezes, because
/// the winning resource is one of its own.
///
/// A candidate's `(slack, users)` only change in the rounds that touch one
/// of *its* resources, so probes read the deltas through a **per-resource
/// event index** (`ev_start` / `events`: CSR by resource, `(round, delta)`
/// in round order). It is built lazily by the first probe after the log is
/// re-recorded — one stable counting pass, `O(touched + resources)`, never
/// paid by a solve no probe follows — and a replay then costs `O(rounds +
/// events on S)`: one integer compare per round, a share recomputed only
/// when an event on that resource fires.
///
/// Crate-visible (fields included) so the sharded solve in
/// [`crate::shard`] can merge per-shard logs into one global-order log;
/// everything else should go through [`MaxMinSolver`].
#[derive(Debug, Default)]
pub(crate) struct SolveLog {
    /// Per round: version-stripped bottleneck [`ShareKey`] at pop time.
    /// **Not** monotone: mathematically freeze levels never decrease, but a
    /// resource tied with the popped bottleneck can come out of the round's
    /// `(slack − d·level) / (users − d)` an ulp *below* the level it just
    /// tied at, so the next key may dip under its predecessor. Readers must
    /// compare against every key in order, never skip ahead on ordering.
    pub(crate) keys: Vec<u128>,
    /// Per round: the freeze level (the key's share, clamped to ≥ 0).
    pub(crate) levels: Vec<f64>,
    /// Per round: end offset (exclusive) into the `touched_*` arrays.
    pub(crate) round_end: Vec<u32>,
    /// Flattened `(resource, flows frozen crossing it)` deltas, by round.
    pub(crate) touched_res: Vec<u32>,
    pub(crate) touched_delta: Vec<u32>,
    /// Flattened arena slots frozen per round (warm replay walks these
    /// sequentially instead of chasing the reverse index).
    pub(crate) freeze_slots: Vec<u32>,
    /// Per round: end offset (exclusive) into `freeze_slots`.
    pub(crate) freeze_end: Vec<u32>,
    /// Event index: resource `r`'s events are `events[ev_start[r]..
    /// ev_start[r + 1]]`. Meaningful only while `indexed`.
    ev_start: Vec<u32>,
    /// Event index: packed `(round, delta)` transposed from `touched_*`,
    /// grouped by resource, round order kept within each group.
    events: Vec<u64>,
    /// Does the event index describe the rounds above? Reset by `clear`,
    /// i.e. whenever the log is re-recorded (cold, warm or shard-merged).
    indexed: bool,
    /// Arena generation the log was recorded against.
    pub(crate) generation: u64,
    /// Resource-space size at record time.
    pub(crate) n_resources: u32,
    /// False until the first logged solve, and after a plain `solve`.
    pub(crate) valid: bool,
}

impl SolveLog {
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.levels.clear();
        self.round_end.clear();
        self.touched_res.clear();
        self.touched_delta.clear();
        self.freeze_slots.clear();
        self.freeze_end.clear();
        self.indexed = false;
        self.valid = false;
    }

    /// Build the per-resource event index if this log does not have one
    /// yet: count events per resource, prefix-sum, then scatter the rounds
    /// in order (stable, so each resource's events stay in round order).
    /// Allocation-free once the buffers are warm.
    fn ensure_index(&mut self) {
        if self.indexed {
            return;
        }
        let nr = self.n_resources as usize;
        // Counts land two slots up so that after the prefix sum
        // `ev_start[r + 1]` is resource `r`'s write cursor, and after the
        // scatter it has advanced to `r + 1`'s start — leaving
        // `ev_start[..=nr]` as the finished offsets with no second pass.
        self.ev_start.clear();
        self.ev_start.resize(nr + 2, 0);
        for &r in &self.touched_res {
            self.ev_start[r as usize + 2] += 1;
        }
        for r in 2..nr + 2 {
            self.ev_start[r] += self.ev_start[r - 1];
        }
        self.events.clear();
        self.events.resize(self.touched_res.len(), 0);
        let mut t0 = 0usize;
        for (k, &t1) in self.round_end.iter().enumerate() {
            for t in t0..t1 as usize {
                let cursor = &mut self.ev_start[self.touched_res[t] as usize + 1];
                self.events[*cursor as usize] = pack(k as u32, self.touched_delta[t]);
                *cursor += 1;
            }
            t0 = t1 as usize;
        }
        self.indexed = true;
    }
}

/// Progressive-filling solver with persistent scratch state.
///
/// Reuse one instance across solves: after the first call at a given
/// problem size, [`MaxMinSolver::solve`] performs **no heap allocation**
/// (verified by the workspace's allocation-counter test).
///
/// [`MaxMinSolver::solve_logged`] additionally records the freeze-round
/// sequence, unlocking the batched what-if APIs ([`MaxMinSolver::probe`],
/// [`MaxMinSolver::probe_batch`], [`MaxMinSolver::solve_batch`]): rate a
/// hypothetical extra flow in `O(rounds + events on its path)` by
/// replaying the shared frozen prefix, bit-identical to adding the flow
/// and solving from scratch.
#[derive(Debug, Default)]
pub struct MaxMinSolver {
    /// Backing buffer for the lazy min-heap of per-resource shares; kept
    /// between solves so heap construction is an alloc-free `O(R)`
    /// heapify.
    heap_buf: Vec<Reverse<ShareKey>>,
    /// Per-resource generation stamp, invalidating stale heap entries.
    version: Vec<u32>,
    /// Remaining capacity per resource.
    slack: Vec<f64>,
    /// Unfrozen flows per resource.
    users: Vec<u32>,
    /// Per-slot frozen flag.
    frozen: Vec<bool>,
    /// Scratch: resources touched by the current freeze round.
    touched: Vec<u32>,
    /// Scratch: per-resource count of flows frozen this round.
    delta: Vec<u32>,
    /// Freeze-round log of the last `solve_logged`, replayed by probes.
    log: SolveLog,
    /// Spare log buffers: [`MaxMinSolver::solve_warm`] re-records the log
    /// while reading the old one, so the two alternate between `log` and
    /// `log_spare` (no allocation once both are warm).
    log_spare: SolveLog,
    /// Warm-solve scratch: resources whose state has left the logged
    /// trajectory (the live-tracked perturbation set).
    perturbed: Vec<bool>,
    /// Warm-solve scratch: indexed min-heap over the perturbed resources'
    /// current share keys — exactly one entry per tracked resource,
    /// updated in place (no stale entries, O(1) min read).
    wheap: Vec<u128>,
    /// Warm-solve scratch: resource → position in `wheap` (`WPOS_NONE`
    /// when absent).
    wpos: Vec<u32>,
    /// Probe scratch: one replay cursor per candidate resource.
    probe_cur: Vec<ProbeCursor>,
    /// Warm-solve scratch: copy of the arena's dirty window, taken before
    /// the walk closes it (the walk borrows the arena mutably).
    seed_buf: Vec<u32>,
    /// Observability: freeze rounds the last solve ran with the full
    /// cold-solve arithmetic (every round of a cold solve; the perturbed
    /// rounds of a warm one). Never read by the solve itself.
    last_live_rounds: u64,
    /// Observability: freeze rounds the last solve replayed verbatim
    /// from the previous log (zero for a cold solve).
    last_replayed_rounds: u64,
    /// Observability: logged rounds walked by the last
    /// [`MaxMinSolver::probe`] / [`MaxMinSolver::probe_batch`], summed
    /// over the batch's candidates.
    last_probe_replay_rounds: u64,
}

/// Replay state of one candidate resource: its `(slack, users)` as of the
/// round the replay stands at, the share key they imply with the candidate
/// as one extra user, and its unread span of the log's event index.
#[derive(Debug, Clone, Copy)]
struct ProbeCursor {
    slack: f64,
    users: u32,
    /// Next unread entry of `SolveLog::events` / one past the last.
    next: u32,
    end: u32,
    key: u128,
}

impl ProbeCursor {
    /// Round of the next unread event (`u32::MAX` once exhausted).
    #[inline]
    fn next_round(&self, events: &[u64]) -> u32 {
        if self.next < self.end {
            unpack(events[self.next as usize]).0
        } else {
            u32::MAX
        }
    }

    /// Re-derive `key` after `(slack, users)` changed.
    #[inline]
    fn rekey(&mut self, r: u32) {
        let share = (self.slack / (self.users + 1) as f64).max(0.0);
        self.key = ShareKey::new(share, r, 0).0;
    }
}

/// `wpos` sentinel: resource has no entry in the warm heap.
const WPOS_NONE: u32 = u32::MAX;

/// Indexed binary min-heap over [`ShareKey`]-packed `u128`s with a
/// resource → slot position map, used by the warm solve's live tracking.
/// Unlike the cold solve's lazy `BinaryHeap` (push-per-touch, stale
/// entries versioned out at pop time), every tracked resource has exactly
/// one entry, moved in place when its share changes — the root is always
/// the true minimum, so run-batched replay reads it in O(1). The pop
/// sequence is the sequence of minima either way, so the two structures
/// drive bit-identical solves.
mod wheap {
    use super::ShareKey;

    #[inline]
    fn res_of(key: u128) -> usize {
        ShareKey(key).res() as usize
    }

    fn sift_up(heap: &mut [u128], pos: &mut [u32], mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[parent] <= heap[i] {
                break;
            }
            heap.swap(i, parent);
            pos[res_of(heap[i])] = i as u32;
            i = parent;
        }
        pos[res_of(heap[i])] = i as u32;
    }

    fn sift_down(heap: &mut [u128], pos: &mut [u32], mut i: usize) {
        loop {
            let l = 2 * i + 1;
            if l >= heap.len() {
                break;
            }
            let c = if l + 1 < heap.len() && heap[l + 1] < heap[l] { l + 1 } else { l };
            if heap[i] <= heap[c] {
                break;
            }
            heap.swap(i, c);
            pos[res_of(heap[i])] = i as u32;
            i = c;
        }
        pos[res_of(heap[i])] = i as u32;
    }

    /// Insert `key`; its resource must not already have an entry.
    pub(super) fn insert(heap: &mut Vec<u128>, pos: &mut [u32], key: u128) {
        debug_assert_eq!(pos[res_of(key)], super::WPOS_NONE);
        heap.push(key);
        let tail = heap.len() - 1;
        sift_up(heap, pos, tail);
    }

    /// Replace the existing entry of `key`'s resource with `key`.
    pub(super) fn update(heap: &mut [u128], pos: &mut [u32], key: u128) {
        let i = pos[res_of(key)] as usize;
        let old = heap[i];
        heap[i] = key;
        if key < old {
            sift_up(heap, pos, i);
        } else {
            sift_down(heap, pos, i);
        }
    }

    /// Drop resource `r`'s entry.
    pub(super) fn remove(heap: &mut Vec<u128>, pos: &mut [u32], r: usize) {
        let i = pos[r] as usize;
        pos[r] = super::WPOS_NONE;
        let last = heap.pop().expect("entry exists");
        if i < heap.len() {
            let old = heap[i];
            heap[i] = last;
            if last < old {
                sift_up(heap, pos, i);
            } else {
                sift_down(heap, pos, i);
            }
        }
    }

    /// Remove and return the minimum entry.
    pub(super) fn pop_min(heap: &mut Vec<u128>, pos: &mut [u32]) -> u128 {
        let min = heap[0];
        pos[res_of(min)] = super::WPOS_NONE;
        let last = heap.pop().expect("non-empty");
        if !heap.is_empty() {
            heap[0] = last;
            sift_down(heap, pos, 0);
        }
        min
    }
}

impl MaxMinSolver {
    /// Fresh solver (scratch grows on first use).
    pub fn new() -> MaxMinSolver {
        MaxMinSolver::default()
    }

    /// Compute max-min fair rates for every live flow in `arena`.
    ///
    /// * `capacities[r]` — capacity of resource `r` (bits/s, must be > 0
    ///   for any resource a flow crosses).
    /// * `rates` is resized to [`FlowArena::slot_bound`]; on return,
    ///   `rates[slot]` is the allocated rate of the flow in `slot`
    ///   (vacant slots read 0).
    ///
    /// Runs in `O(R + Σ_f path_f · log R)`. Invalidates any prior probe
    /// log; use [`MaxMinSolver::solve_logged`] when probes will follow.
    pub fn solve(&mut self, capacities: &[f64], arena: &FlowArena, rates: &mut Vec<f64>) {
        self.log.valid = false;
        self.solve_impl::<false>(capacities, arena, rates);
    }

    /// [`MaxMinSolver::solve`], additionally recording the freeze-round
    /// log that [`MaxMinSolver::probe`] and [`MaxMinSolver::probe_batch`]
    /// replay. Logging costs one append per round plus one per touched
    /// resource — a few percent of the solve — and stays allocation-free
    /// once the log buffers are warm.
    pub fn solve_logged(&mut self, capacities: &[f64], arena: &FlowArena, rates: &mut Vec<f64>) {
        self.solve_impl::<true>(capacities, arena, rates);
    }

    /// Warm-started [`MaxMinSolver::solve_logged`]: re-solve after arena
    /// churn with live work proportional to the *perturbed* rounds, by
    /// replaying the previous solve's freeze-round log.
    ///
    /// The arena's dirty set ([`FlowArena::dirty_resources`]) seeds a
    /// **perturbation set** — resources whose state may have left the
    /// logged trajectory. The walk interleaves two kinds of rounds, always
    /// picking whichever saturates first (exactly what a cold solve's heap
    /// would pop):
    ///
    /// * **replayed** — the next logged round, valid while its bottleneck
    ///   is unperturbed and no perturbed resource's current share beats
    ///   its key. Its level and user count are re-validated against the
    ///   mutated arena (the freeze set comes from the live reverse index
    ///   and is checked against the logged bottleneck delta), then the
    ///   logged per-resource deltas apply verbatim: no shares computed, no
    ///   heap traffic, no per-flow path walks.
    /// * **live** — a perturbed resource pops first and freezes its flows
    ///   with the full cold-solve arithmetic. Every resource it touches
    ///   joins the perturbation set (its future logged deltas are stale).
    ///
    /// Logged rounds whose bottleneck got perturbed are skipped — their
    /// touched resources join the perturbation set while their exact state
    /// still matches the old trajectory, and their flows freeze through
    /// live rounds instead. Single-flow churn therefore pays the flat log
    /// replay plus a handful of live rounds around the churned flow's
    /// freeze levels, not a full progressive filling.
    ///
    /// The result is **bit-identical** to a cold
    /// [`MaxMinSolver::solve_logged`] of the same arena, and the log is
    /// re-recorded as the walk runs (replayed rounds copied, live rounds
    /// freshly logged), so consecutive churn events chain warm and probes
    /// keep working. With no valid log to start from, this *is* a cold
    /// `solve_logged`. `capacities` must extend the slice used by the
    /// previous solve: growth for new resources is always fine, and an
    /// existing entry may change **only if** the resource was announced
    /// through [`FlowArena::touch_resource`] since the previous solve —
    /// the walk rebuilds slack from the current capacities and treats
    /// touched resources as perturbed, so announced capacity changes
    /// (link failure, degradation, recovery) re-solve bit-identical to a
    /// cold solve at the new capacities.
    ///
    /// Takes the arena mutably because the call *consumes* the dirty
    /// window (see [`FlowArena::dirty_resources`]); for the same reason at
    /// most one warm-chaining solver should drive a given arena.
    pub fn solve_warm(&mut self, capacities: &[f64], arena: &mut FlowArena, rates: &mut Vec<f64>) {
        let nr = arena.n_resources();
        assert!(capacities.len() >= nr, "capacities shorter than resource space");
        if !self.log.valid || self.log.n_resources as usize > nr {
            // Nothing to warm-start from: open a fresh dirty window at the
            // moment the log is recorded, so the next call chains warm.
            arena.clear_dirty();
            self.solve_logged(capacities, arena, rates);
            return;
        }
        // The old log is read-only input; the new one is re-recorded into
        // the spare buffers and swapped in (both stay warm across calls).
        // The perturbation seed is the arena's dirty window, copied out
        // before the walk closes it.
        let old = std::mem::take(&mut self.log);
        std::mem::swap(&mut self.log, &mut self.log_spare);
        let mut seed = std::mem::take(&mut self.seed_buf);
        seed.clear();
        seed.extend_from_slice(arena.dirty_resources());
        self.replay_walk(capacities, arena, rates, &old, &seed);
        self.seed_buf = seed;
        self.log_spare = old;
    }

    /// The warm-solve engine behind [`MaxMinSolver::solve_warm`] and the
    /// sharded solve's reconciliation pass ([`crate::shard`]): replay
    /// `old` — the freeze-round log of a solve of some *subset* of the
    /// arena's current flows — interleaved with live rounds for the
    /// perturbed cascade, recording the result into `self.log`.
    ///
    /// `seed` must cover every resource whose `(slack, users)` state may
    /// deviate from `old`'s trajectory: for a warm solve, the resources
    /// touched by arena mutations since `old` was recorded; for the
    /// sharded reconciliation, the resources crossed by the boundary
    /// flows `old`'s shard-local solves never saw. Over-approximation is
    /// always safe. `old.freeze_slots` must name live, distinct slots of
    /// `arena` (the caller remaps shard-local slots before merging).
    ///
    /// Consumes the arena's dirty window (it re-opens as this log is
    /// recorded) and leaves `self.log` valid for the current arena, so
    /// probes and further warm solves chain off it.
    pub(crate) fn replay_walk(
        &mut self,
        capacities: &[f64],
        arena: &mut FlowArena,
        rates: &mut Vec<f64>,
        old: &SolveLog,
        seed: &[u32],
    ) {
        let remaining = self.walk_init(capacities, arena, rates, seed);
        self.walk_rounds(arena, rates, old, remaining);
    }

    /// First half of [`MaxMinSolver::replay_walk`]: rebuild the cold-solve
    /// state (rates/frozen/slack/users), seed the perturbation set, stamp
    /// the new log header and consume the arena's dirty window. Returns
    /// the number of unfrozen flows for [`MaxMinSolver::walk_rounds`].
    ///
    /// Split out so the sharded solve can run this `O(resources)` setup
    /// — and then merge shard logs — while its worker pool is still
    /// solving shards: everything here is independent of `old`, which
    /// does not need to exist yet.
    pub(crate) fn walk_init(
        &mut self,
        capacities: &[f64],
        arena: &mut FlowArena,
        rates: &mut Vec<f64>,
        seed: &[u32],
    ) -> usize {
        let nr = arena.n_resources();
        assert!(capacities.len() >= nr, "capacities shorter than resource space");
        // Cold-solve state init — the hybrid walk must evolve the exact
        // state a from-scratch solve would, or bit-identity is lost.
        let nslots = arena.slot_bound();
        rates.clear();
        rates.resize(nslots, 0.0);
        self.frozen.clear();
        self.frozen.resize(nslots, false);
        self.slack.clear();
        self.slack.extend_from_slice(&capacities[..nr]);
        self.users.clear();
        self.users.extend_from_slice(&arena.users_counts()[..nr]);
        // `delta` is always all-zero between solves; it only needs sizing
        // for growth. (`version` belongs to the cold solves' lazy heap —
        // the warm path's indexed heap has no stale entries to stamp.)
        if self.delta.len() < nr {
            self.delta.resize(nr, 0);
        }
        self.touched.clear();
        self.last_live_rounds = 0;
        self.last_replayed_rounds = 0;
        self.perturbed.clear();
        self.perturbed.resize(nr, false);
        let remaining = arena.n_flows();

        self.log.clear();
        self.log.generation = arena.generation();
        self.log.n_resources = nr as u32;
        self.log.valid = true;

        // Reset the indexed live heap (left-over entries from the last
        // warm solve release their positions) and seed the perturbation
        // set, then close the arena's dirty window — it re-opens exactly
        // as this log is recorded.
        for &k in &self.wheap {
            self.wpos[ShareKey(k).res() as usize] = WPOS_NONE;
        }
        self.wheap.clear();
        if self.wpos.len() < nr {
            self.wpos.resize(nr, WPOS_NONE);
        }
        for &r in seed {
            let ri = r as usize;
            if !self.perturbed[ri] {
                self.perturbed[ri] = true;
                if self.users[ri] > 0 {
                    let share = (self.slack[ri] / self.users[ri] as f64).max(0.0);
                    wheap::insert(&mut self.wheap, &mut self.wpos, ShareKey::new(share, r, 0).0);
                }
            }
        }
        arena.clear_dirty();
        remaining
    }

    /// Second half of [`MaxMinSolver::replay_walk`]: the hybrid
    /// replayed/live round loop over `old`, freezing the `remaining`
    /// flows [`MaxMinSolver::walk_init`] counted. `old` must describe a
    /// solve of a subset of the arena's current flows whose deviations
    /// are covered by the seed already planted by `walk_init`.
    pub(crate) fn walk_rounds(
        &mut self,
        arena: &FlowArena,
        rates: &mut [f64],
        old: &SolveLog,
        mut remaining: usize,
    ) {
        let rounds = old.keys.len();
        let mut kcur = 0usize;
        let mut t0 = 0usize;
        let mut f0 = 0usize;
        while remaining > 0 {
            // Advance the cursor past logged rounds whose bottleneck was
            // perturbed: their freeze sets are stale, so their flows are
            // handed to the live heap instead. Every resource such a round
            // touched joins the perturbation set *now*, while its exact
            // state still matches the old trajectory (its share is ≥ the
            // skipped key, so it cannot have deserved an earlier pop).
            let logged_key = loop {
                if kcur >= rounds {
                    break u128::MAX;
                }
                let key = old.keys[kcur];
                if !self.perturbed[ShareKey(key).res() as usize] {
                    break key;
                }
                let t1 = old.round_end[kcur] as usize;
                for t in t0..t1 {
                    let r2 = old.touched_res[t];
                    let ri = r2 as usize;
                    if !self.perturbed[ri] {
                        self.perturbed[ri] = true;
                        if self.users[ri] > 0 {
                            let share = (self.slack[ri] / self.users[ri] as f64).max(0.0);
                            wheap::insert(
                                &mut self.wheap,
                                &mut self.wpos,
                                ShareKey::new(share, r2, 0).0,
                            );
                        }
                    }
                }
                t0 = t1;
                f0 = old.freeze_end[kcur] as usize;
                kcur += 1;
            };
            // Minimum over the live-tracked resources: the indexed heap's
            // root, always current.
            let live_key = self.wheap.first().map(|&k| ShareKey(k));
            // Unperturbed resources sit exactly on the logged trajectory,
            // so their shares are ≥ the next logged key: the true global
            // minimum is whichever of (live top, logged key) is smaller,
            // and a tie is impossible (the ids would have to match, but a
            // perturbed bottleneck never reaches the comparison).
            match live_key {
                Some(k) if k.0 < logged_key => {
                    // Live round: identical arithmetic to a cold round —
                    // this body is a deliberate copy of `fill_rounds`'s
                    // freeze-round core (over the indexed heap instead of
                    // the lazy one) and must stay in lockstep with it.
                    let popped = wheap::pop_min(&mut self.wheap, &mut self.wpos);
                    debug_assert_eq!(popped, k.0);
                    let b = k.res() as usize;
                    let level = k.share();
                    self.touched.clear();
                    let mut froze = 0usize;
                    for &e in &arena.rev[b] {
                        let (slot, _) = unpack(e);
                        let f = slot as usize;
                        if self.frozen[f] {
                            continue;
                        }
                        self.frozen[f] = true;
                        rates[f] = level;
                        froze += 1;
                        self.log.freeze_slots.push(slot);
                        for &r2 in arena.resources_unchecked(slot) {
                            let r2 = r2 as usize;
                            if self.delta[r2] == 0 {
                                self.touched.push(r2 as u32);
                            }
                            self.delta[r2] += 1;
                        }
                    }
                    debug_assert!(froze > 0, "live bottleneck had users but froze nothing");
                    remaining -= froze;
                    self.last_live_rounds += 1;
                    self.log.keys.push(ShareKey::new(level, b as u32, 0).0);
                    self.log.levels.push(level);
                    self.log.freeze_end.push(self.log.freeze_slots.len() as u32);
                    for i in 0..self.touched.len() {
                        let r2 = self.touched[i] as usize;
                        let d = self.delta[r2];
                        self.delta[r2] = 0;
                        self.users[r2] -= d;
                        self.slack[r2] -= d as f64 * level;
                        self.log.touched_res.push(r2 as u32);
                        self.log.touched_delta.push(d);
                        // A live freeze drags every touched resource off
                        // the logged trajectory: it joins the live set.
                        self.perturbed[r2] = true;
                        self.wheap_upsert(r2);
                    }
                    self.log.round_end.push(self.log.touched_res.len() as u32);
                }
                _ if logged_key != u128::MAX => {
                    // Replayed rounds: the logged freeze sets are still
                    // exact (no flow crossing these bottlenecks was added,
                    // removed or live-frozen — any of those would have
                    // perturbed them), so the recorded slots and deltas
                    // apply verbatim: sequential walks, no shares, no heap.
                    // Consecutive clean rounds run as one batch — the heap
                    // cannot change under them — and their log segment is
                    // copied over in bulk afterwards.
                    let k_start = kcur;
                    let t_start = t0;
                    let f_start = f0;
                    loop {
                        let key = old.keys[kcur];
                        let b = ShareKey(key).res() as usize;
                        let level = old.levels[kcur];
                        let f1 = old.freeze_end[kcur] as usize;
                        // Re-validate the bottleneck against the mutated
                        // arena: its current unfrozen user count must
                        // equal the logged freeze count (kept in release
                        // builds — it is O(1) per round and turns a
                        // contract violation, e.g. a solver driven across
                        // two arenas or a second warm solver consuming
                        // this one's dirty window, into a panic instead
                        // of silently corrupt rates); each logged flow
                        // must also still be live and unfrozen (debug).
                        assert_eq!(
                            self.users[b] as usize,
                            f1 - f0,
                            "replayed bottleneck user count diverged from the log \
                             (was this solver's log recorded against a different arena?)"
                        );
                        for &slot in &old.freeze_slots[f0..f1] {
                            let f = slot as usize;
                            debug_assert!(
                                arena.is_live(FlowSlot(slot)) && !self.frozen[f],
                                "replayed freeze set diverged from the log"
                            );
                            self.frozen[f] = true;
                            rates[f] = level;
                        }
                        remaining -= f1 - f0;
                        let t1 = old.round_end[kcur] as usize;
                        for (&r2, &d) in
                            old.touched_res[t0..t1].iter().zip(&old.touched_delta[t0..t1])
                        {
                            let r2 = r2 as usize;
                            self.users[r2] -= d;
                            self.slack[r2] -= d as f64 * level;
                            if self.perturbed[r2] {
                                self.wheap_upsert(r2);
                            }
                        }
                        f0 = f1;
                        t0 = t1;
                        kcur += 1;
                        // Extend the run only while the decision the outer
                        // loop would make is unchanged: flows left, next
                        // round clean and still beating the live minimum
                        // (the root read is O(1) and always current, so
                        // perturbed touches inside the run are handled).
                        if remaining == 0 || kcur >= rounds {
                            break;
                        }
                        let nk = old.keys[kcur];
                        if self.perturbed[ShareKey(nk).res() as usize]
                            || self.wheap.first().is_some_and(|&k| k < nk)
                        {
                            break;
                        }
                    }
                    self.last_replayed_rounds += (kcur - k_start) as u64;
                    // Bulk-copy the run's log segment, shifting the
                    // per-round end offsets onto the new log's bases.
                    let nt_base = self.log.touched_res.len() as u32;
                    let nf_base = self.log.freeze_slots.len() as u32;
                    self.log.keys.extend_from_slice(&old.keys[k_start..kcur]);
                    self.log.levels.extend_from_slice(&old.levels[k_start..kcur]);
                    self.log.freeze_slots.extend_from_slice(&old.freeze_slots[f_start..f0]);
                    self.log.touched_res.extend_from_slice(&old.touched_res[t_start..t0]);
                    self.log.touched_delta.extend_from_slice(&old.touched_delta[t_start..t0]);
                    for k in k_start..kcur {
                        self.log.round_end.push(old.round_end[k] - t_start as u32 + nt_base);
                        self.log.freeze_end.push(old.freeze_end[k] - f_start as u32 + nf_base);
                    }
                }
                _ => {
                    debug_assert!(false, "flows remain but no live or logged round to run");
                    break;
                }
            }
        }
    }

    /// The freeze-round log of the last logged/warm solve (sharded merge).
    pub(crate) fn solve_log(&self) -> &SolveLog {
        &self.log
    }

    /// Would [`MaxMinSolver::solve_warm`] on `arena` fall back to a cold
    /// solve? True with no valid log to replay (or one recorded against a
    /// larger resource space). Observability only — the answer never
    /// changes what the solve computes, just how much of it runs live.
    pub fn will_solve_cold(&self, arena: &FlowArena) -> bool {
        !self.log.valid || self.log.n_resources as usize > arena.n_resources()
    }

    /// Freeze rounds the last solve ran with the full cold-solve
    /// arithmetic (all of them for a cold solve; only the perturbed ones
    /// for a warm or sharded-reconciliation solve). Diagnostics only.
    pub fn last_live_rounds(&self) -> u64 {
        self.last_live_rounds
    }

    /// Freeze rounds the last solve replayed verbatim from the previous
    /// log (zero for a cold solve). Diagnostics only.
    pub fn last_replayed_rounds(&self) -> u64 {
        self.last_replayed_rounds
    }

    /// Logged rounds walked by the last [`MaxMinSolver::probe`] or
    /// [`MaxMinSolver::probe_batch`], summed over the batch's candidates
    /// — the replay depth behind each what-if answer. Diagnostics only.
    pub fn last_probe_replay_rounds(&self) -> u64 {
        self.last_probe_replay_rounds
    }

    /// Refresh perturbed resource `r2`'s entry in the warm heap after its
    /// `(slack, users)` changed: update in place, insert on first touch,
    /// drop once its last unfrozen flow froze.
    #[inline]
    fn wheap_upsert(&mut self, r2: usize) {
        if self.users[r2] > 0 {
            let share = (self.slack[r2] / self.users[r2] as f64).max(0.0);
            let key = ShareKey::new(share, r2 as u32, 0).0;
            if self.wpos[r2] == WPOS_NONE {
                wheap::insert(&mut self.wheap, &mut self.wpos, key);
            } else {
                wheap::update(&mut self.wheap, &mut self.wpos, key);
            }
        } else if self.wpos[r2] != WPOS_NONE {
            wheap::remove(&mut self.wheap, &mut self.wpos, r2);
        }
    }

    fn solve_impl<const LOG: bool>(
        &mut self,
        capacities: &[f64],
        arena: &FlowArena,
        rates: &mut Vec<f64>,
    ) {
        let nr = arena.n_resources();
        assert!(capacities.len() >= nr, "capacities shorter than resource space");
        self.last_live_rounds = 0;
        self.last_replayed_rounds = 0;
        if LOG {
            self.log.clear();
            self.log.generation = arena.generation();
            self.log.n_resources = nr as u32;
            self.log.valid = true;
        }
        let nslots = arena.slot_bound();
        rates.clear();
        rates.resize(nslots, 0.0);
        self.frozen.clear();
        self.frozen.resize(nslots, false);
        self.slack.clear();
        self.slack.extend_from_slice(&capacities[..nr]);
        self.users.clear();
        self.users.resize(nr, 0);
        self.version.clear();
        self.version.resize(nr, 0);
        self.delta.clear();
        self.delta.resize(nr, 0);
        self.touched.clear();
        let remaining = arena.n_flows();
        if remaining == 0 {
            return;
        }
        // Build the initial heap by O(R) heapify over the retained buffer
        // (cheaper than R sift-up pushes, and alloc-free after warm-up).
        self.heap_buf.clear();
        for r in 0..nr {
            let u = arena.users(r as u32) as u32;
            self.users[r] = u;
            if u > 0 {
                let share = (self.slack[r] / u as f64).max(0.0);
                self.heap_buf.push(Reverse(ShareKey::new(share, r as u32, 0)));
            }
        }
        self.fill_rounds::<LOG>(arena, rates, remaining);
    }

    /// Progressive filling from the solver's *current* `(slack, users,
    /// frozen, version)` state until `remaining` flows freeze. The heap is
    /// seeded by heapifying `heap_buf`, which must hold one entry per
    /// resource that still carries unfrozen flows, keyed at the current
    /// share and version. Appends freeze rounds to the log when `LOG`.
    ///
    /// Used by the cold solves (state initialised from scratch).
    /// [`MaxMinSolver::solve_warm`] does **not** call this: its live
    /// rounds deliberately duplicate this freeze-round arithmetic over
    /// the indexed warm heap — the two bodies must stay in lockstep
    /// (same operations in the same order) or bit-identity between warm
    /// and cold solves breaks; the workspace property suite pins that.
    fn fill_rounds<const LOG: bool>(
        &mut self,
        arena: &FlowArena,
        rates: &mut [f64],
        mut remaining: usize,
    ) {
        let mut heap = BinaryHeap::from(std::mem::take(&mut self.heap_buf));
        while remaining > 0 {
            let Some(Reverse(key)) = heap.pop() else {
                debug_assert!(false, "flows remain but no resource has users");
                break;
            };
            let b = key.res() as usize;
            if key.version() != self.version[b] {
                continue; // stale entry
            }
            self.last_live_rounds += 1;
            let level = key.share();
            // Freeze every unfrozen flow crossing the bottleneck at
            // `level`, accumulating per-resource counts so the slack
            // update is independent of reverse-index ordering.
            self.touched.clear();
            for &e in &arena.rev[b] {
                let (slot, _) = unpack(e);
                let f = slot as usize;
                if self.frozen[f] {
                    continue;
                }
                self.frozen[f] = true;
                rates[f] = level;
                remaining -= 1;
                if LOG {
                    self.log.freeze_slots.push(slot);
                }
                for &r2 in arena.resources_unchecked(slot) {
                    let r2 = r2 as usize;
                    if self.delta[r2] == 0 {
                        self.touched.push(r2 as u32);
                    }
                    self.delta[r2] += 1;
                }
            }
            debug_assert!(!self.touched.is_empty(), "bottleneck had users but froze nothing");
            if LOG {
                self.log.keys.push(ShareKey::new(level, b as u32, 0).0);
                self.log.levels.push(level);
                self.log.freeze_end.push(self.log.freeze_slots.len() as u32);
            }
            for i in 0..self.touched.len() {
                let r2 = self.touched[i] as usize;
                let d = self.delta[r2];
                self.delta[r2] = 0;
                self.users[r2] -= d;
                self.slack[r2] -= d as f64 * level;
                if LOG {
                    self.log.touched_res.push(r2 as u32);
                    self.log.touched_delta.push(d);
                }
                let v = self.version[r2].wrapping_add(1);
                self.version[r2] = v;
                if self.users[r2] > 0 {
                    let share = (self.slack[r2] / self.users[r2] as f64).max(0.0);
                    heap.push(Reverse(ShareKey::new(share, r2 as u32, v)));
                }
            }
            if LOG {
                self.log.round_end.push(self.log.touched_res.len() as u32);
            }
        }
        // Return the heap's buffer for the next solve.
        self.heap_buf = heap.into_vec();
    }

    /// Does the probe log describe the current state of `arena`?
    ///
    /// True after a [`MaxMinSolver::solve_logged`] with no arena mutation
    /// since. Probing requires this; callers that let the arena drift must
    /// re-solve first.
    pub fn log_matches(&self, arena: &FlowArena) -> bool {
        self.log.valid
            && self.log.generation == arena.generation()
            && self.log.n_resources as usize == arena.n_resources()
    }

    /// Rate a hypothetical extra flow crossing `resources` would receive
    /// if it joined the flow set last solved by
    /// [`MaxMinSolver::solve_logged`] — **bit-identical** to adding the
    /// flow to `arena`, solving from scratch, and reading its rate, but in
    /// `O(rounds + events on the path)` by replaying the logged frozen
    /// prefix through its per-resource event index (built by the first
    /// probe after each re-record, `O(touched + resources)`).
    ///
    /// The committed solution is untouched: neither `arena` nor the base
    /// rates change (the only writes are to internal scratch), so probing
    /// is observably side-effect-free and allocation-free once warm.
    ///
    /// Panics if the log is missing or stale ([`MaxMinSolver::log_matches`]),
    /// or if `resources` is empty or out of range. `capacities` must be
    /// the slice passed to the logged solve.
    pub fn probe(&mut self, capacities: &[f64], arena: &FlowArena, resources: &[u32]) -> f64 {
        assert!(
            self.log_matches(arena),
            "probe without a current logged solve (call solve_logged first)"
        );
        assert!(capacities.len() >= self.log.n_resources as usize, "capacities too short");
        self.log.ensure_index();
        self.last_probe_replay_rounds = 0;
        self.replay(capacities, arena, resources)
    }

    /// [`MaxMinSolver::probe`] over a whole batch: `out[i]` becomes the
    /// what-if rate of `batch.resources(i)`. Candidates are independent —
    /// each is rated against the base flow set alone, all sharing the one
    /// logged solve.
    pub fn probe_batch(
        &mut self,
        capacities: &[f64],
        arena: &FlowArena,
        batch: &ProbeBatch,
        out: &mut Vec<f64>,
    ) {
        assert!(
            self.log_matches(arena),
            "probe_batch without a current logged solve (call solve_logged first)"
        );
        assert!(capacities.len() >= self.log.n_resources as usize, "capacities too short");
        self.log.ensure_index();
        self.last_probe_replay_rounds = 0;
        out.clear();
        out.reserve(batch.len());
        for i in 0..batch.len() {
            let rate = self.replay(capacities, arena, batch.resources(i));
            out.push(rate);
        }
    }

    /// One logged solve plus a batched what-if evaluation: computes the
    /// base allocation into `rates` and each candidate's rate into `out`.
    /// This is the placement engine's entry point — one solver pass per
    /// *batch*, not per candidate.
    pub fn solve_batch(
        &mut self,
        capacities: &[f64],
        arena: &FlowArena,
        batch: &ProbeBatch,
        rates: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        self.solve_logged(capacities, arena, rates);
        self.probe_batch(capacities, arena, batch, out);
    }

    /// Replay the logged rounds for one candidate.
    ///
    /// Before the candidate freezes it only *adds one user* to each of its
    /// resources — it consumes nothing — so every base round whose
    /// bottleneck key beats all candidate shares executes exactly as
    /// logged. The walk keeps one [`ProbeCursor`] per candidate resource
    /// into the log's event index and stops at the first round where the
    /// smallest candidate key wins the pop: that resource is the
    /// candidate's bottleneck and the share is its rate. Between events on
    /// its own resources that smallest key cannot move, so those rounds
    /// cost one `u128` compare each (every logged key is still compared,
    /// in order — `SolveLog::keys` is not monotone); when an event fires,
    /// the round's delta is applied with the solver's own arithmetic
    /// (`slack -= d × level`, per resource in round order) and only that
    /// resource's share is recomputed. If no round fires, the base set
    /// froze entirely and the candidate gets the smallest remaining share
    /// on its path. `O(rounds + events on s)`.
    fn replay(&mut self, capacities: &[f64], arena: &FlowArena, s: &[u32]) -> f64 {
        assert!(!s.is_empty(), "probe flow traverses no resources");
        let log = &self.log;
        debug_assert!(log.indexed, "replay without the event index");
        let nr = log.n_resources as usize;
        let cur = &mut self.probe_cur;
        cur.clear();
        // The candidate's best (share, resource) key with one extra user
        // on each of its resources, and the next round that can move it.
        let mut cmin = u128::MAX;
        let mut next_ev = u32::MAX;
        for (i, &r) in s.iter().enumerate() {
            let ri = r as usize;
            assert!(ri < nr, "probe: bad resource {r}");
            debug_assert!(
                !s[..i].contains(&r),
                "probe flow lists resource {r} twice (it would be double-charged)"
            );
            let mut c = ProbeCursor {
                slack: capacities[ri],
                users: arena.users(r) as u32,
                next: log.ev_start[ri],
                end: log.ev_start[ri + 1],
                key: 0,
            };
            c.rekey(r);
            cmin = cmin.min(c.key);
            next_ev = next_ev.min(c.next_round(&log.events));
            cur.push(c);
        }
        let rounds = log.keys.len();
        let mut k = 0usize;
        let walked = loop {
            // Rounds up to and including the next event see today's
            // `cmin`. A hit means a candidate resource saturates before
            // (or exactly as) the logged bottleneck: the candidate
            // freezes there.
            let stop = rounds.min(next_ev as usize + 1);
            if let Some(hit) = log.keys[k..stop].iter().position(|&key| cmin <= key) {
                break k + hit + 1;
            }
            if next_ev as usize >= rounds {
                // Every base flow froze without saturating the candidate's
                // path: it bottlenecks on its smallest remaining share.
                break rounds;
            }
            // Round `next_ev` executes as logged; apply its deltas to the
            // candidate resources it touches.
            k = next_ev as usize;
            let level = log.levels[k];
            (cmin, next_ev) = (u128::MAX, u32::MAX);
            for (c, &r) in cur.iter_mut().zip(s) {
                while c.next_round(&log.events) as usize == k {
                    let d = unpack(log.events[c.next as usize]).1;
                    c.users -= d;
                    c.slack -= d as f64 * level;
                    c.next += 1;
                    c.rekey(r);
                }
                cmin = cmin.min(c.key);
                next_ev = next_ev.min(c.next_round(&log.events));
            }
            k += 1;
        };
        self.last_probe_replay_rounds += walked as u64;
        ShareKey(cmin).share()
    }
}

/// Compute max-min fair rates from a one-shot flow list.
///
/// Compatibility wrapper over [`FlowArena`] + [`MaxMinSolver`]: builds the
/// arena, solves once, and returns one rate per flow (in input order).
/// Long-lived callers that mutate the flow set should hold an arena and a
/// solver instead — this wrapper reconstructs both on every call.
///
/// * `capacities[r]` — capacity of resource `r` (bits/s, must be > 0).
/// * `flows[f]` — indices of the resources flow `f` traverses (each must
///   be non-empty: a flow that crosses nothing has no bottleneck).
pub fn max_min_rates(capacities: &[f64], flows: &[Vec<u32>]) -> Vec<f64> {
    let mut arena = FlowArena::new(capacities.len());
    for f in flows {
        arena.add(f);
    }
    let mut solver = MaxMinSolver::new();
    let mut rates = Vec::new();
    solver.solve(capacities, &arena, &mut rates);
    rates.truncate(flows.len());
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_rates(&[100.0], &[vec![0]]);
        assert!(close(rates[0], 100.0));
    }

    #[test]
    fn equal_flows_split_evenly() {
        let rates = max_min_rates(&[90.0], &[vec![0], vec![0], vec![0]]);
        for r in rates {
            assert!(close(r, 30.0));
        }
    }

    #[test]
    fn classic_three_link_example() {
        // Textbook max-min: links capacities 10, 10; flow A uses both,
        // flows B and C use one each.
        // A shares link0 with B and link1 with C: A=5, B=5, C=5.
        let caps = [10.0, 10.0];
        let flows = vec![vec![0, 1], vec![0], vec![1]];
        let rates = max_min_rates(&caps, &flows);
        assert!(close(rates[0], 5.0));
        assert!(close(rates[1], 5.0));
        assert!(close(rates[2], 5.0));
    }

    #[test]
    fn unbalanced_bottlenecks() {
        // link0 cap 6 carries f0,f1,f2; link1 cap 10 carries f2,f3.
        // Round 1: link0 share 2 -> freeze f0,f1,f2 at 2.
        // Round 2: link1 slack 8, f3 alone -> 8.
        let caps = [6.0, 10.0];
        let flows = vec![vec![0], vec![0], vec![0, 1], vec![1]];
        let rates = max_min_rates(&caps, &flows);
        assert!(close(rates[0], 2.0));
        assert!(close(rates[1], 2.0));
        assert!(close(rates[2], 2.0));
        assert!(close(rates[3], 8.0));
    }

    #[test]
    fn hose_cap_limits_all_flows_from_a_source() {
        // Two flows out of the same VM with a 300 unit hose, over separate
        // 1000 unit links: each gets 150 (the hose is the bottleneck).
        let caps = [1000.0, 1000.0, 300.0];
        let flows = vec![vec![0, 2], vec![1, 2]];
        let rates = max_min_rates(&caps, &flows);
        assert!(close(rates[0], 150.0));
        assert!(close(rates[1], 150.0));
    }

    #[test]
    fn allocation_is_work_conserving_on_single_link() {
        let caps = [500.0];
        let flows: Vec<Vec<u32>> = (0..7).map(|_| vec![0]).collect();
        let rates = max_min_rates(&caps, &flows);
        let total: f64 = rates.iter().sum();
        assert!(close(total, 500.0));
    }

    #[test]
    fn no_flow_exceeds_any_resource_capacity() {
        let caps = [10.0, 3.0, 7.0];
        let flows = vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![2]];
        let rates = max_min_rates(&caps, &flows);
        // Per-resource usage within capacity.
        for (r, cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.contains(&(r as u32)))
                .map(|(_, rate)| rate)
                .sum();
            assert!(used <= cap + 1e-6, "resource {r} over capacity: {used}");
        }
    }

    #[test]
    fn empty_problem_is_fine() {
        assert!(max_min_rates(&[10.0], &[]).is_empty());
        assert!(max_min_rates(&[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "traverses no resources")]
    fn empty_flow_rejected() {
        max_min_rates(&[10.0], &[vec![]]);
    }

    #[test]
    #[should_panic(expected = "bad resource")]
    fn out_of_range_resource_rejected() {
        max_min_rates(&[10.0], &[vec![3]]);
    }

    #[test]
    fn maxmin_dominance_property() {
        // In a max-min allocation, a flow's rate can only be below another's
        // if it shares a saturated resource with it. Spot-check: the flow
        // crossing both links never gets less than the fair share of its
        // tightest link.
        let caps = [12.0, 4.0];
        let flows = vec![vec![0], vec![0, 1], vec![1]];
        let rates = max_min_rates(&caps, &flows);
        // link1 share = 2 each for f1,f2; link0 then gives f0 = 10.
        assert!(close(rates[1], 2.0));
        assert!(close(rates[2], 2.0));
        assert!(close(rates[0], 10.0));
    }

    // ------------------------------------------------- incremental arena

    #[test]
    fn arena_add_remove_roundtrip_keeps_invariants() {
        let mut a = FlowArena::new(8);
        let s0 = a.add(&[0, 1, 2]);
        let s1 = a.add(&[2, 3]);
        let s2 = a.add(&[4]);
        a.check_invariants();
        assert_eq!(a.n_flows(), 3);
        assert_eq!(a.users(2), 2);
        a.remove(s1);
        a.check_invariants();
        assert_eq!(a.users(2), 1);
        assert_eq!(a.users(3), 0);
        // Slot reuse: a new flow lands in the vacated slot.
        let s3 = a.add(&[5, 6]);
        assert_eq!(s3, s1);
        a.check_invariants();
        assert_eq!(a.resources(s0), &[0, 1, 2]);
        assert_eq!(a.resources(s2), &[4]);
        assert_eq!(a.resources(s3), &[5, 6]);
    }

    #[test]
    fn incremental_solution_tracks_flow_set() {
        let caps = [10.0, 10.0];
        let mut arena = FlowArena::new(2);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        let a = arena.add(&[0, 1]);
        let b = arena.add(&[0]);
        let c = arena.add(&[1]);
        solver.solve(&caps, &arena, &mut rates);
        assert!(close(rates[a.0 as usize], 5.0));
        // Remove the long flow: b and c each get a full link.
        arena.remove(a);
        solver.solve(&caps, &arena, &mut rates);
        assert!(close(rates[b.0 as usize], 10.0));
        assert!(close(rates[c.0 as usize], 10.0));
        // Re-adding an equivalent flow restores the original allocation.
        let a2 = arena.add(&[0, 1]);
        solver.solve(&caps, &arena, &mut rates);
        assert!(close(rates[a2.0 as usize], 5.0));
        assert!(close(rates[b.0 as usize], 5.0));
        assert!(close(rates[c.0 as usize], 5.0));
    }

    #[test]
    fn block_recycling_reuses_pool_space() {
        let mut a = FlowArena::new(16);
        let s = a.add(&[0, 1, 2, 3, 4]); // capacity rounds to 8
        let pool_len = a.pool.len();
        a.remove(s);
        // Same-size flow reuses the same block: the pool must not grow.
        let s2 = a.add(&[5, 6, 7, 8, 9]);
        assert_eq!(a.pool.len(), pool_len);
        a.remove(s2);
        // A shorter flow fits the banked block too (cap 8 ≥ 2).
        let s3 = a.add(&[1, 2]);
        let _ = s3;
        a.check_invariants();
    }

    #[test]
    fn grow_resources_extends_id_space() {
        let mut a = FlowArena::new(2);
        a.grow_resources(4);
        let s = a.add(&[3]);
        assert_eq!(a.users(3), 1);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve(&[5.0, 5.0, 5.0, 7.0], &a, &mut rates);
        assert!(close(rates[s.0 as usize], 7.0));
    }

    // ------------------------------------------------- batched what-if

    /// Reference for a probe: add the candidate for real, solve from
    /// scratch, read its rate.
    fn full_solve_probe(caps: &[f64], base: &[Vec<u32>], candidate: &[u32]) -> f64 {
        let mut arena = FlowArena::new(caps.len());
        for f in base {
            arena.add(f);
        }
        let probe = arena.add(candidate);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve(caps, &arena, &mut rates);
        rates[probe.0 as usize]
    }

    /// Solve `base` logged, rate `candidates` both as one batch and one by
    /// one, and bit-compare every answer with [`full_solve_probe`].
    fn assert_probes_bitmatch(
        caps: &[f64],
        base: &[Vec<u32>],
        candidates: &[&[u32]],
    ) -> MaxMinSolver {
        let mut arena = FlowArena::new(caps.len());
        for f in base {
            arena.add(f);
        }
        let mut batch = ProbeBatch::new();
        for c in candidates {
            batch.push(c);
        }
        let mut solver = MaxMinSolver::new();
        let (mut rates, mut out) = (Vec::new(), Vec::new());
        solver.solve_batch(caps, &arena, &batch, &mut rates, &mut out);
        assert_eq!(out.len(), candidates.len());
        for (c, got) in candidates.iter().zip(&out) {
            let want = full_solve_probe(caps, base, c);
            assert_eq!(got.to_bits(), want.to_bits(), "batched {c:?}: {got} vs {want}");
            let solo = solver.probe(caps, &arena, c);
            assert_eq!(solo.to_bits(), want.to_bits(), "probe {c:?}: {solo} vs {want}");
        }
        solver
    }

    #[test]
    fn probe_batch_bitmatches_full_solves() {
        // Mixed bottlenecks: shared link, private links, a hose-like cap.
        let caps = [10.0, 10.0, 6.0, 300.0];
        let base: Vec<Vec<u32>> = vec![vec![0, 1], vec![0], vec![1], vec![2], vec![2, 3]];
        assert_probes_bitmatch(
            &caps,
            &base,
            &[&[0], &[1], &[2], &[3], &[0, 1], &[0, 2, 3], &[1, 3]],
        );
    }

    #[test]
    fn probes_bitmatch_full_solves_on_a_log_with_a_key_inversion() {
        // Resources 0 and 1 tie at level L = 31/26; 0 pops first (lower
        // id) and freezes the shared flow, and resource 1's recomputed
        // share `(3L − L) / 2` rounds an ulp *below* L — the log's second
        // key is smaller than its first. Replays must still compare every
        // key in order.
        let l = 31.0 / 26.0;
        let caps = [l * 6.0, l * 3.0, 5.0, 100.0];
        let mut base: Vec<Vec<u32>> = vec![vec![0, 1], vec![1], vec![1], vec![2], vec![2]];
        base.extend(std::iter::repeat_n(vec![0], 5));
        let solver = assert_probes_bitmatch(
            &caps,
            &base,
            &[&[0], &[1], &[2], &[3], &[0, 1], &[1, 2], &[1, 3], &[0, 2, 3], &[3, 2, 1, 0]],
        );
        assert!(
            solver.log.keys.windows(2).any(|w| w[1] < w[0]),
            "instance no longer produces an inversion: {:?}",
            solver.log.levels
        );
    }

    #[test]
    fn probe_on_empty_flow_set_sees_raw_capacity() {
        let caps = [7.0, 3.0];
        let arena = FlowArena::new(2);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        assert!(close(solver.probe(&caps, &arena, &[0]), 7.0));
        assert!(close(solver.probe(&caps, &arena, &[0, 1]), 3.0));
    }

    #[test]
    fn probe_leaves_committed_state_untouched() {
        let caps = [10.0];
        let mut arena = FlowArena::new(1);
        let a = arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        let before = rates.clone();
        let gen = arena.generation();
        let r = solver.probe(&caps, &arena, &[0]);
        assert!(close(r, 5.0), "probe shares with the one live flow: {r}");
        assert_eq!(rates, before, "base rates untouched");
        assert_eq!(arena.generation(), gen, "arena untouched");
        assert!(close(rates[a.0 as usize], 10.0));
    }

    #[test]
    #[should_panic(expected = "logged solve")]
    fn probe_rejects_stale_log() {
        let caps = [10.0];
        let mut arena = FlowArena::new(1);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        arena.add(&[0]); // mutate after the logged solve
        let _ = solver.probe(&caps, &arena, &[0]);
    }

    #[test]
    #[should_panic(expected = "logged solve")]
    fn plain_solve_invalidates_probe_log() {
        let caps = [10.0];
        let arena = FlowArena::new(1);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        solver.solve(&caps, &arena, &mut rates);
        let _ = solver.probe(&caps, &arena, &[0]);
    }

    // ------------------------------------------------- warm-started solves

    /// Bit-compare a warm-chained solver against per-step cold solves.
    fn assert_warm_matches_cold(warm: &[f64], arena: &FlowArena, caps: &[f64]) {
        let mut cold_solver = MaxMinSolver::new();
        let mut cold = Vec::new();
        cold_solver.solve(caps, arena, &mut cold);
        assert_eq!(warm.len(), cold.len());
        for (slot, (w, c)) in warm.iter().zip(&cold).enumerate() {
            assert_eq!(w.to_bits(), c.to_bits(), "slot {slot}: warm {w} vs cold {c}");
        }
    }

    #[test]
    fn warm_solve_bitmatches_cold_across_churn() {
        let caps = [10.0, 8.0, 6.0, 12.0, 5.0, 300.0];
        let mut arena = FlowArena::new(caps.len());
        let mut slots = Vec::new();
        for f in [vec![0u32, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 5], vec![0, 5]] {
            slots.push(arena.add(&f));
        }
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        // First warm call has no log: exactly a cold logged solve.
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Single-flow churn chains warm.
        arena.remove(slots[2]);
        slots[2] = arena.add(&[1, 3, 5]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Pure removal.
        arena.remove(slots[4]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Pure addition into the recycled slot.
        slots[4] = arena.add(&[0, 2, 4]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // No-op churn (identical flow set): the whole log revalidates.
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
    }

    #[test]
    fn warm_solve_bitmatches_cold_after_capacity_changes() {
        let mut caps = vec![10.0, 8.0, 6.0, 12.0, 5.0, 300.0];
        let mut arena = FlowArena::new(caps.len());
        let mut slots = Vec::new();
        for f in [vec![0u32, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 5], vec![0, 5]] {
            slots.push(arena.add(&f));
        }
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut arena, &mut rates);
        // Degradation: fractional cut on one resource.
        caps[1] = 2.0;
        arena.touch_resource(1);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Failure: capacity to (nearly) nothing.
        caps[3] = 1e-3;
        arena.touch_resource(3);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Recovery mixed with flow churn in the same dirty window.
        caps[3] = 12.0;
        arena.touch_resource(3);
        arena.remove(slots[1]);
        slots[1] = arena.add(&[1, 4]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // A touch with no actual change still chains exactly.
        arena.touch_resource(0);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
    }

    #[test]
    fn touch_resource_invalidates_probe_log() {
        let caps = [10.0];
        let mut arena = FlowArena::new(1);
        arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        assert!(solver.log_matches(&arena));
        arena.touch_resource(0);
        assert!(!solver.log_matches(&arena), "stale capacities must not serve probes");
        assert_eq!(arena.dirty_capacities(), &[0], "capacity touch recorded");
    }

    #[test]
    fn warm_solve_handles_grow_and_empty_sets() {
        let mut caps = vec![9.0, 7.0];
        let mut arena = FlowArena::new(2);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut arena, &mut rates); // empty arena, empty log
        let a = arena.add(&[0]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert!(close(rates[a.0 as usize], 9.0));
        // Grow the resource space and land a flow on the new resource.
        arena.grow_resources(3);
        caps.push(4.0);
        let b = arena.add(&[1, 2]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert!(close(rates[b.0 as usize], 4.0));
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Empty out the arena again.
        arena.remove(a);
        arena.remove(b);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert!(rates.iter().all(|r| *r == 0.0));
    }

    #[test]
    fn warm_solve_leaves_a_hot_probe_log() {
        let caps = [10.0, 10.0];
        let mut arena = FlowArena::new(2);
        arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut arena, &mut rates);
        arena.add(&[1]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert!(solver.log_matches(&arena), "warm solve re-stamps the log");
        // Probes replay the warm-maintained log like a cold-logged one.
        assert!(close(solver.probe(&caps, &arena, &[0]), 5.0));
        assert!(close(solver.probe(&caps, &arena, &[0, 1]), 5.0));
    }

    #[test]
    fn dirty_window_survives_interleaved_cold_solves() {
        // solve_logged/solve do not clear the dirty window, so a warm
        // solve after an interleaved cold solve still sees a (super)set of
        // its own perturbations and stays exact.
        let caps = [12.0, 6.0, 8.0];
        let mut arena = FlowArena::new(3);
        let s0 = arena.add(&[0, 1]);
        arena.add(&[1, 2]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut arena, &mut rates);
        arena.remove(s0);
        // Interleaved cold logged solve (e.g. a probe-driven path).
        solver.solve_logged(&caps, &arena, &mut rates);
        arena.add(&[0, 2]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
    }

    #[test]
    fn probe_batch_reuse_keeps_candidates_independent() {
        let caps = [9.0, 9.0];
        let mut arena = FlowArena::new(2);
        arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        let (mut rates, mut out) = (Vec::new(), Vec::new());
        let mut batch = ProbeBatch::new();
        // Three identical candidates: each must see the same what-if world
        // (4.5 each on link 0), not stack on one another.
        for _ in 0..3 {
            batch.push(&[0]);
        }
        solver.solve_batch(&caps, &arena, &batch, &mut rates, &mut out);
        for r in &out {
            assert!(close(*r, 4.5), "{r}");
        }
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&[1]);
        solver.probe_batch(&caps, &arena, &batch, &mut out);
        assert_eq!(out.len(), 1);
        assert!(close(out[0], 9.0), "cleared batch rates the idle link: {}", out[0]);
    }
}
