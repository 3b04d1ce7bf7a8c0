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
//!   freeze-round sequence into the solver's **persistent log**
//!   (`SolveLog`: rounds with stable ids, their per-resource deltas and
//!   frozen slots in append-only pools, a per-resource event index and a
//!   per-slot round index kept *with* the log), which powers both the
//!   batched what-if probes and [`MaxMinSolver::solve_warm`] — the
//!   warm-started delta solve that, after arena churn, edits that log in
//!   place: rounds the churn left alone are carried over for one key
//!   compare each, and only the perturbed cascade is re-run live (see
//!   the crate docs for the cold → logged → warm lifecycle and the cost
//!   model).
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
    /// the solver reads a user count without touching the list).
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
    /// Slots added or removed in the same window, in first-touch order
    /// (deduplicated via `dirty_slot_mark`: a recycled slot — removed
    /// then re-added — appears once) — the flow-level view of the churn:
    /// the slots whose rate and frozen-by round a warm solve must forget.
    dirty_slots: Vec<u32>,
    /// Per-slot membership flag for `dirty_slots`.
    dirty_slot_mark: Vec<bool>,
}

impl FlowArena {
    /// Arena over resources `0..n_resources`.
    pub fn new(n_resources: usize) -> FlowArena {
        FlowArena {
            rev: vec![Vec::new(); n_resources],
            users_cnt: vec![0; n_resources],
            dirty_mark: vec![false; n_resources],
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
    /// The solver derives a perturbed resource's slack from the caller's
    /// `capacities` slice when the resource joins the perturbation set,
    /// so a capacity change needs no state transfer: seeding `r` as
    /// perturbed is enough for [`MaxMinSolver::solve_warm`] to re-apply
    /// every logged round `r` participates in at the new capacity and
    /// fall back to live filling from the first round it actually
    /// changes — bit-identical to a cold solve at the new capacity. Bumps
    /// the generation, so a log recorded against the old capacity stops
    /// matching ([`MaxMinSolver::log_matches`]) and is brought current by
    /// a warm solve before the next what-if.
    pub fn touch_resource(&mut self, r: u32) {
        assert!((r as usize) < self.rev.len(), "touch: bad resource {r}");
        self.mark_dirty(r);
        self.generation = self.generation.wrapping_add(1);
    }

    /// Dirty set size (tests / diagnostics).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Resources mutated since the dirty window was last closed (warm
    /// solves consume and re-open it), in first-touch order. This is the
    /// set [`MaxMinSolver::solve_warm`] seeds its perturbation tracking
    /// with; it is deliberately an *over*-approximation (entries are only
    /// removed by a clear), which is always safe — a falsely-dirty
    /// resource just gets its share tracked explicitly.
    pub fn dirty_resources(&self) -> &[u32] {
        &self.dirty
    }

    /// Open a new dirty window. Called by [`MaxMinSolver::solve_warm`] at
    /// the moment its log is brought current for this arena, which keeps
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

/// `round_of` / chain sentinel: no round, end of chain.
const NONE: u32 = u32::MAX;
/// `RoundLog::pos` mid-walk: the round was dropped by this walk.
const POS_DROPPED: u32 = u32::MAX;
/// `RoundLog::pos` mid-walk: the round was created by this walk.
const POS_CREATED: u32 = u32::MAX - 1;

/// Panic text shared by the warm walk's divergence guards.
const DIVERGED: &str = "was this solver's log recorded against a different arena?";

/// Pool ranges of one freeze round, by round id.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    t0: u32,
    t_len: u32,
    f0: u32,
    f_len: u32,
}

impl Span {
    /// The round's range in [`RoundLog::touched`].
    fn touched(self) -> std::ops::Range<usize> {
        self.t0 as usize..(self.t0 + self.t_len) as usize
    }

    /// The round's range in [`RoundLog::freeze`].
    fn freeze(self) -> std::ops::Range<usize> {
        self.f0 as usize..(self.f0 + self.f_len) as usize
    }
}

/// The freeze rounds of one progressive-filling solve, in freeze order.
///
/// A round has a **stable id** for as long as it stays in the log. What
/// is stored where:
///
/// * **by position** (freeze order) — `keys`, `levels`, `ids`: the only
///   arrays a warm solve rewrites (`O(rounds)`: carried runs are bulk
///   copies, nothing per flow);
/// * **by id** — `pos` (the inverse of `ids`) and the round's ranges in
///   the two pools;
/// * **pools** — `touched` (`(resource, flows frozen crossing it)` per
///   round) and `freeze` (the arena slots a round froze), append-only:
///   a round dropped by a warm solve leaves its ranges behind as
///   garbage, and both pools are compacted in place once garbage
///   outweighs live entries.
///
/// The per-resource and per-slot indexes the solver keeps *with* the
/// rounds live in `SolveLog`.
#[derive(Debug, Default)]
struct RoundLog {
    /// Per position: version-stripped bottleneck [`ShareKey`] at pop time.
    /// **Not** monotone: mathematically freeze levels never decrease, but a
    /// resource tied with the popped bottleneck can come out of the round's
    /// `(slack − d·level) / (users − d)` an ulp *below* the level it just
    /// tied at, so the next key may dip under its predecessor. A reader
    /// looking for the first key at or above some key may not bisect
    /// `keys` itself; it may bisect their prefix maxima, which are
    /// monotone, where those decide (see `SolveLog::read_record`).
    keys: Vec<u128>,
    /// Per position: the freeze level (the key's share, clamped to ≥ 0).
    levels: Vec<f64>,
    /// Per position: the round's id.
    ids: Vec<u32>,
    /// Per id: the round's position (`POS_*` sentinels mid-walk only;
    /// stale for free ids).
    pos: Vec<u32>,
    /// Per id: the round's pool ranges.
    spans: Vec<Span>,
    /// Ids of no round, reusable.
    free_ids: Vec<u32>,
    /// Packed `(resource, delta)` entries, one range per round.
    touched: Vec<u64>,
    /// Frozen arena slots, one range per round. A round's two ranges are
    /// appended together, so both pools hold the rounds in one order.
    freeze: Vec<u32>,
    /// `touched` entries owned by a round still in the log.
    touched_live: usize,
    /// `freeze` entries owned by a round still in the log — the number of
    /// flows the log freezes.
    frozen: usize,
    /// Compaction scratch: `(t0, id)` of the live rounds.
    order: Vec<(u32, u32)>,
    /// Test observability: pool compactions run and round ids reused, all
    /// time ([`MaxMinSolver::log_churn`]).
    compactions: u64,
    recycled_ids: u64,
}

impl RoundLog {
    fn clear(&mut self) {
        self.keys.clear();
        self.levels.clear();
        self.ids.clear();
        self.pos.clear();
        self.spans.clear();
        self.free_ids.clear();
        self.touched.clear();
        self.freeze.clear();
        self.touched_live = 0;
        self.frozen = 0;
    }

    /// Number of rounds.
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The round at position `k`: key, level, packed `(resource, delta)`
    /// entries and frozen slots.
    fn round(&self, k: usize) -> (u128, f64, &[u64], &[u32]) {
        let id = self.ids[k];
        (self.keys[k], self.levels[k], self.touched_of(id), self.freeze_of(id))
    }

    fn touched_of(&self, id: u32) -> &[u64] {
        &self.touched[self.spans[id as usize].touched()]
    }

    fn freeze_of(&self, id: u32) -> &[u32] {
        &self.freeze[self.spans[id as usize].freeze()]
    }

    /// Append the round whose entries are the pools' tails from `t0` /
    /// `f0` on.
    fn commit(&mut self, key: u128, level: f64, t0: usize, f0: usize) {
        let id = self.new_id();
        self.seal(id, t0, f0);
        self.pos[id as usize] = self.keys.len() as u32;
        self.keys.push(key);
        self.levels.push(level);
        self.ids.push(id);
    }

    /// An id for a new round (position and ranges still to be set).
    fn new_id(&mut self) -> u32 {
        if let Some(id) = self.free_ids.pop() {
            self.recycled_ids += 1;
            return id;
        }
        self.pos.push(NONE);
        self.spans.push(Span::default());
        self.pos.len() as u32 - 1
    }

    /// Give round `id` the pools' tails from `t0` / `f0` on.
    fn seal(&mut self, id: u32, t0: usize, f0: usize) {
        let span = Span {
            t0: t0 as u32,
            t_len: (self.touched.len() - t0) as u32,
            f0: f0 as u32,
            f_len: (self.freeze.len() - f0) as u32,
        };
        self.touched_live += span.t_len as usize;
        self.frozen += span.f_len as usize;
        self.spans[id as usize] = span;
    }

    /// Take round `id` out of the log mid-walk: its pool ranges become
    /// garbage. The caller recycles the id once the walk ends.
    fn release(&mut self, id: u32) {
        let span = self.spans[id as usize];
        self.touched_live -= span.t_len as usize;
        self.frozen -= span.f_len as usize;
        self.pos[id as usize] = POS_DROPPED;
    }

    /// Squeeze the garbage out of both pools, in place, once it outweighs
    /// the live entries. Allocation-free once `order` is warm.
    fn compact_if_sparse(&mut self) {
        if self.touched.len() <= 2 * self.touched_live && self.freeze.len() <= 2 * self.frozen {
            return;
        }
        self.order.clear();
        self.order.extend(self.ids.iter().map(|&id| (self.spans[id as usize].t0, id)));
        self.order.sort_unstable();
        let (mut tw, mut fw) = (0u32, 0u32);
        for &(_, id) in &self.order {
            let s = &mut self.spans[id as usize];
            self.touched.copy_within(s.touched(), tw as usize);
            self.freeze.copy_within(s.freeze(), fw as usize);
            (s.t0, s.f0) = (tw, fw);
            tw += s.t_len;
            fw += s.f_len;
        }
        self.touched.truncate(tw as usize);
        self.freeze.truncate(fw as usize);
        self.compactions += 1;
    }
}

/// Grow `list`'s capacity to that of the arena's reverse-index list for
/// the same resource. An event freezes at least one flow crossing the
/// resource, so the event list is never longer than the reverse list —
/// sized like it, it allocates only when the arena itself just did.
#[inline]
fn size_like_rev(list: &mut Vec<u64>, arena: &FlowArena, r: usize) {
    let want = arena.rev[r].capacity();
    if list.capacity() < want {
        list.reserve_exact(want - list.len());
    }
}

/// The solver's persistent freeze-round log: the rounds of its last
/// logged solve plus the two indexes probes and warm solves read them
/// through, all kept current by every logged solve — cold or warm — so
/// nothing is rebuilt on first use.
///
/// * **by resource** — `events[r]`: the `(round id, delta)` of every round
///   that froze flows crossing `r`, in position order (the transpose of
///   the rounds' touched lists), and `ev_users[r]`, the deltas' sum —
///   the number of flows crossing `r` the log accounts for;
/// * **by slot** — `round_of[slot]`: the round that froze the slot's flow.
///
/// A candidate crossing resources `S` perturbs only the shares of `S`
/// (each gains one user), and it consumes nothing before it freezes — so
/// what the log says about one resource of `S` does not depend on the
/// rest of `S`, nor on which candidate asks. Probes therefore read the
/// log **per resource**: `records[r]` memoises where a candidate's share
/// on `r` first beats a logged bottleneck key (see [`ProbeRecord`]),
/// found off `events[r]` by binary search on the keys' prefix maxima in
/// `O(events on r · log rounds)` the first time a probe names `r` after a
/// solve, and a probe over `S` is the fold of its resources' records. A
/// warm solve walks the log the same way for the resources its dirty
/// window perturbed, and edits it in place as it goes (see
/// [`MaxMinSolver::solve_warm`]).
#[derive(Debug, Default)]
struct SolveLog {
    rounds: RoundLog,
    events: Vec<Vec<u64>>,
    ev_users: Vec<u32>,
    round_of: Vec<u32>,
    /// Per resource: the probe memo, valid while its `epoch` is the
    /// log's. Grown to the resource space by the first probe that needs
    /// it.
    records: Vec<ProbeRecord>,
    /// `prefix[p]` = `max(rounds.keys[..=p])`: monotone, unlike the keys.
    /// Rebuilt by the first probe of an epoch.
    prefix: Vec<u128>,
    /// The `epoch` `prefix` was built at.
    prefix_epoch: u64,
    /// Bumped by [`SolveLog::stamp`], i.e. by every solve: the one thing
    /// that decides whether a record still describes the log.
    epoch: u64,
    /// Arena generation the log was recorded against.
    generation: u64,
    /// Resource-space size at record time.
    n_resources: u32,
    /// Arena slot bound at record time — the length the caller's rate
    /// buffer had when this log's solve filled it.
    slot_bound: u32,
    /// False until the first solve.
    valid: bool,
}

impl SolveLog {
    /// Rebuild both indexes from `rounds` and stamp the log current for
    /// `arena`: `O(resources + slots + touched)`, paid by cold solves
    /// only.
    fn build_index(&mut self, arena: &FlowArena) {
        let nr = arena.n_resources();
        grow(&mut self.events, nr, Vec::new());
        self.events.iter_mut().for_each(Vec::clear);
        self.ev_users.clear();
        self.ev_users.resize(nr, 0);
        self.round_of.clear();
        self.round_of.resize(arena.slot_bound(), NONE);
        for &id in &self.rounds.ids {
            for &e in self.rounds.touched_of(id) {
                let (r, d) = unpack(e);
                let list = &mut self.events[r as usize];
                size_like_rev(list, arena, r as usize);
                list.push(pack(id, d));
                self.ev_users[r as usize] += d;
            }
            for &slot in self.rounds.freeze_of(id) {
                self.round_of[slot as usize] = id;
            }
        }
        self.stamp(arena);
    }

    /// Declare the log current for `arena` — the last thing every solve,
    /// cold or warm, does to it. Whatever the solve absorbed (flow churn,
    /// announced capacity changes, a grown resource space), the probe
    /// records read from the log as it was are stale now: the new epoch
    /// drops them all at once, and each is re-read when a probe next
    /// names its resource.
    fn stamp(&mut self, arena: &FlowArena) {
        self.generation = arena.generation();
        self.n_resources = arena.n_resources() as u32;
        self.slot_bound = arena.slot_bound() as u32;
        self.valid = true;
        self.epoch += 1;
    }

    /// Read resource `r`'s [`ProbeRecord`] off the log: `(hit, key)`.
    ///
    /// Start from `(capacities[r], arena.users(r))` and key the share with
    /// the candidate as one extra user. Between two of `r`'s own events
    /// that key cannot move, so each *segment* — the rounds from one event
    /// up to and including the next — asks one question: the first round
    /// `p` in it with `key ≤ keys[p]`. The round an event belongs to is
    /// compared *before* the event applies (a round's bottleneck pops on
    /// the state the previous rounds left); after it, the round's delta is
    /// applied with the solver's arithmetic (`slack -= d × level`) and the
    /// key re-derived. The rounds after the last event are one more
    /// segment. `O(events on r · log rounds)` when the bisection decides,
    /// which it does but for the rare segment that starts in a key dip.
    ///
    /// **Why bisecting the prefix maxima finds the same round.**
    /// `RoundLog::keys` is not monotone (a key can dip an ulp under its
    /// predecessor), but `P[p] = max(keys[..=p])` is. Take a segment
    /// `[k, end)` and suppose `k = 0` or `P[k − 1] < key`. For `p ≥ k`,
    /// `P[p] = max(P[k − 1], keys[k..=p])` (just `max(keys[..=p])` when
    /// `k = 0`), and `P[k − 1]` falls short of `key`, so `P[p] ≥ key` holds
    /// exactly when some `keys[q] ≥ key` with `k ≤ q ≤ p`. The first `p`
    /// with `P[p] ≥ key` is therefore the first with `keys[p] ≥ key`, and
    /// `P` being monotone, `partition_point` finds it. When instead
    /// `P[k − 1] ≥ key`, every `P[p]` in the segment is `≥ key` and says
    /// nothing about `keys[p]`, so the segment's keys are compared one by
    /// one, in order, as the linear scan did — after a dip ends the keys
    /// climb past `key` again within a compare or two.
    fn read_record(&self, capacities: &[f64], arena: &FlowArena, r: u32) -> (u32, u128) {
        let (levels, pos) = (&self.rounds.levels, &self.rounds.pos);
        let (mut slack, mut users) = (capacities[r as usize], arena.users(r) as u32);
        let mut key = candidate_key(slack, users, r);
        let mut k = 0usize;
        for &e in &self.events[r as usize] {
            let (id, d) = unpack(e);
            let at = pos[id as usize] as usize;
            if let Some(hit) = self.first_at_least(key, k, at + 1) {
                return (hit as u32, key);
            }
            users -= d;
            slack -= d as f64 * levels[at];
            key = candidate_key(slack, users, r);
            k = at + 1;
        }
        let rounds = self.rounds.len();
        (self.first_at_least(key, k, rounds).unwrap_or(rounds) as u32, key)
    }

    /// The first position `p` in `k..end` with `key ≤ keys[p]`: bisected
    /// on `prefix` when `prefix[k − 1]` falls short of `key`, scanned
    /// otherwise (see [`SolveLog::read_record`]).
    #[inline]
    fn first_at_least(&self, key: u128, k: usize, end: usize) -> Option<usize> {
        if k > 0 && self.prefix[k - 1] >= key {
            let keys = &self.rounds.keys[k..end];
            return keys.iter().position(|&logged| key <= logged).map(|hit| k + hit);
        }
        let p = k + self.prefix[k..end].partition_point(|&max| max < key);
        (p < end).then_some(p)
    }

    /// Bring `prefix` up to the current epoch.
    fn build_prefix(&mut self) {
        if self.prefix_epoch == self.epoch {
            return;
        }
        let mut max = 0;
        self.prefix.clear();
        self.prefix.extend(self.rounds.keys.iter().map(|&key| {
            max = max.max(key);
            max
        }));
        self.prefix_epoch = self.epoch;
    }
}

/// What the log tells a candidate about one resource `r` of its path:
/// with the candidate as one extra user on `r`, the first logged round
/// `r` would saturate no later than, and the share it would saturate at.
/// A function of `r`'s capacity, user count and logged events alone — not
/// of the candidate — so it is read once per solve
/// ([`SolveLog::read_record`]) and shared by every probe that names `r`
/// until the next solve bumps [`SolveLog::epoch`].
///
/// The engine memoises a whole walk's [`Fold`] in the same shape, stamped
/// with the same epoch ([`MaxMinSolver::probe_epoch`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProbeRecord {
    /// [`candidate_key`] of `r` as of round `hit` (after every logged
    /// round, when none was hit).
    pub(crate) key: u128,
    /// [`SolveLog::epoch`] of the log this was read from. The first
    /// solve stamps epoch 1, so a zeroed record is valid for no log.
    pub(crate) epoch: u64,
    /// Position of the first round with `key ≤ keys[hit]`; the number of
    /// rounds if there is none (the base set froze without saturating
    /// `r`).
    pub(crate) hit: u32,
}

/// A probe's bottleneck before it becomes a rate: the lexicographic
/// minimum `(hit, key)` over its resources' [`ProbeRecord`]s (see
/// `MaxMinSolver::replay` for why that minimum is the rate). `min` is
/// associative, so a path may be folded in parts — a walk once, then
/// spliced with its ends — and come out the same.
pub(crate) type Fold = (u32, u128);

/// The fold of no resource: the identity of `min`.
pub(crate) const NO_FOLD: Fold = (u32::MAX, u128::MAX);

/// The rate of a probe whose resources fold to `fold`.
#[inline]
pub(crate) fn fold_rate(fold: Fold) -> f64 {
    ShareKey(fold.1).share()
}

/// [`ShareKey`] bits of resource `r`'s fair share with a candidate as
/// one user more than the `users` unfrozen flows sharing `slack`.
#[inline]
fn candidate_key(slack: f64, users: u32, r: u32) -> u128 {
    ShareKey::new((slack / (users + 1) as f64).max(0.0), r, 0).0
}

/// Extend `v` to `n` entries of `fill` (no-op when already that long).
fn grow<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    if v.len() < n {
        v.resize(n, fill);
    }
}

/// One pending delta of the warm walk: when the round it hangs off is
/// carried, perturbed resource `res` loses `delta` users at that round's
/// level. `next` chains the entries of one round.
#[derive(Debug, Clone, Copy)]
struct Link {
    res: u32,
    delta: u32,
    next: u32,
}

/// Progressive-filling solver with persistent scratch state.
///
/// Reuse one instance across solves: after the first call at a given
/// problem size, [`MaxMinSolver::solve_logged`] performs **no heap
/// allocation** (verified by the workspace's allocation-counter test).
///
/// Every solve records the freeze-round sequence, which is what the
/// what-if probe ([`MaxMinSolver::probe`]) reads: rate a hypothetical extra flow
/// bit-identical to adding it and solving from scratch, at `O(events ·
/// log rounds)` **per distinct resource per solve** — one bottleneck record
/// per resource, kept until the next solve — plus `O(path)` per
/// candidate to fold the records of its path.
#[derive(Debug, Default)]
pub struct MaxMinSolver {
    /// Backing buffer for the lazy min-heap of per-resource shares; kept
    /// between solves so heap construction is an alloc-free `O(R)`
    /// heapify.
    heap_buf: Vec<Reverse<ShareKey>>,
    /// Per-resource generation stamp, invalidating stale heap entries.
    version: Vec<u32>,
    /// Remaining capacity per resource (warm solves: meaningful for the
    /// perturbed resources only).
    slack: Vec<f64>,
    /// Unfrozen flows per resource (warm solves: as `slack`).
    users: Vec<u32>,
    /// Per-slot frozen flag of the cold solve (a warm solve reads
    /// frozenness off `SolveLog::round_of`).
    frozen: Vec<bool>,
    /// Scratch: resources touched by the current freeze round.
    touched: Vec<u32>,
    /// Scratch: per-resource count of flows frozen this round.
    delta: Vec<u32>,
    /// The persistent freeze-round log: recorded by `solve_logged`,
    /// edited in place by `solve_warm`, read by probes.
    log: SolveLog,
    /// Warm-solve scratch: is the resource in the perturbation set — off
    /// the logged trajectory, with its live `(slack, users)` materialised?
    /// All-false between solves (reset through `perturbed_list`).
    perturbed: Vec<bool>,
    /// Warm-solve scratch: the perturbation set's members, in join order.
    perturbed_list: Vec<u32>,
    /// Warm-solve scratch: indexed min-heap over the perturbed resources'
    /// current share keys — exactly one entry per tracked resource with
    /// unfrozen flows, updated in place (no stale entries, O(1) min
    /// read). Empty between solves.
    wheap: Vec<u128>,
    /// Warm-solve scratch: resource → position in `wheap` (`WPOS_NONE`
    /// when absent).
    wpos: Vec<u32>,
    /// Warm-solve scratch: per old position, the head of the round's
    /// chain in `chain` (`NONE` for a round that touches no perturbed
    /// resource).
    chain_head: Vec<u32>,
    /// Warm-solve scratch: the deltas carried rounds still owe to
    /// perturbed resources, filled as resources join.
    chain: Vec<Link>,
    /// Warm-solve scratch: the position arrays of the log being walked
    /// into; swapped with the log's at the end of the walk.
    next_keys: Vec<u128>,
    next_levels: Vec<f64>,
    next_ids: Vec<u32>,
    /// Warm-solve scratch: ids of the rounds this walk dropped. Recycled
    /// only once it ends — until then a slot of a dropped round still
    /// names it in `round_of`, and must not alias a live round.
    dropped: Vec<u32>,
    /// Observability: freeze rounds the last solve ran with the full
    /// cold-solve arithmetic (every round of a cold solve; the perturbed
    /// rounds of a warm one). Never read by the solve itself.
    last_live_rounds: u64,
    /// Observability: freeze rounds the last solve carried over from the
    /// previous log untouched (zero for a cold solve).
    last_replayed_rounds: u64,
    /// Observability: of `last_replayed_rounds`, those that applied a
    /// chain of deltas to perturbed resources — the carried rounds a walk
    /// has to visit; the rest it only copies.
    last_chained_rounds: u64,
    /// Observability: logged rounds walked by the last
    /// [`MaxMinSolver::probe`] — summed
    /// over the records it had to read, zero when every resource it named
    /// already had one.
    last_probe_replay_rounds: u64,
    /// Observability: probe records the last probe or batch read.
    last_probe_records_built: u64,
}

/// `wpos` sentinel: resource has no entry in the warm heap.
const WPOS_NONE: u32 = u32::MAX;

/// Indexed binary min-heap over [`ShareKey`]-packed `u128`s with a
/// resource → slot position map, used by the warm solve's live tracking.
/// Unlike the cold solve's lazy `BinaryHeap` (push-per-touch, stale
/// entries versioned out at pop time), every tracked resource has exactly
/// one entry, moved in place when its share changes — the root is always
/// the true minimum, so a carried run reads it in O(1). The pop
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

    /// Compute max-min fair rates for every live flow in `arena` from
    /// scratch — the cold solve — recording the freeze-round log that
    /// [`MaxMinSolver::probe`] replays and [`MaxMinSolver::solve_warm`]
    /// chains off.
    ///
    /// * `capacities[r]` — capacity of resource `r` (bits/s, must be > 0
    ///   for any resource a flow crosses).
    /// * `rates` is resized to [`FlowArena::slot_bound`]; on return,
    ///   `rates[slot]` is the allocated rate of the flow in `slot`
    ///   (vacant slots read 0).
    ///
    /// Runs in `O(R + Σ_f path_f · log R)`. Logging costs one append per
    /// round plus two per touched resource (the round's own list and the
    /// resource's event list) and one per flow, and stays allocation-free
    /// once the log buffers are warm.
    pub fn solve_logged(&mut self, capacities: &[f64], arena: &FlowArena, rates: &mut Vec<f64>) {
        let nr = arena.n_resources();
        assert!(capacities.len() >= nr, "capacities shorter than resource space");
        self.last_live_rounds = 0;
        self.last_replayed_rounds = 0;
        self.last_chained_rounds = 0;
        self.log.rounds.clear();
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
        if remaining > 0 {
            // Build the initial heap by O(R) heapify over the retained
            // buffer (cheaper than R sift-up pushes, and alloc-free after
            // warm-up).
            self.heap_buf.clear();
            for r in 0..nr {
                let u = arena.users(r as u32) as u32;
                self.users[r] = u;
                if u > 0 {
                    let share = (self.slack[r] / u as f64).max(0.0);
                    self.heap_buf.push(Reverse(ShareKey::new(share, r as u32, 0)));
                }
            }
            self.fill_rounds(arena, rates, remaining);
        }
        self.log.build_index(arena);
    }

    /// Warm-started [`MaxMinSolver::solve_logged`]: re-solve after arena
    /// churn at a cost that scales with what the churn perturbed, by
    /// editing the previous solve's freeze-round log in place.
    ///
    /// The arena's dirty set ([`FlowArena::dirty_resources`]) seeds a
    /// **perturbation set** — resources whose state may have left the
    /// logged trajectory. Only those get a live `(slack, users)`: a
    /// resource is materialised the moment it joins, from its capacity,
    /// its arena user count and the deltas of its own logged events
    /// before the cursor, in list order — the subtraction sequence a cold
    /// solve would have applied, hence the same bits. Every other
    /// resource sits exactly on the logged trajectory and is never
    /// touched. The walk goes through the old rounds in position order,
    /// always picking whichever saturates first (exactly what a cold
    /// solve's heap would pop):
    ///
    /// * **carried** — the next logged round, valid while its bottleneck
    ///   is unperturbed and no perturbed resource's current share beats
    ///   its key. It keeps its id, its pool ranges, and its flows keep the
    ///   rate they already have in `rates`; the round costs one key
    ///   compare and an `O(1)` bottleneck check, plus one `(slack, users)`
    ///   update per *perturbed* resource it touches (found through a
    ///   per-round chain filled when the resource joined — the round's
    ///   touched list is not scanned). Runs of carried rounds move to
    ///   their new positions as bulk copies of `keys` / `levels` / `ids`.
    /// * **live** — a perturbed resource pops first and freezes its
    ///   unfrozen flows with the full cold-solve arithmetic, as a new
    ///   round with a fresh id. Every resource it touches joins the
    ///   perturbation set. A flow counts as frozen when the round
    ///   `round_of` names for its slot has been carried past or was
    ///   created by this walk.
    /// * **dropped** — a logged round whose bottleneck got perturbed: its
    ///   touched resources join the perturbation set while their state
    ///   still matches the old trajectory, its flows freeze through live
    ///   rounds instead, and its pool ranges become garbage.
    ///
    /// So a solve costs `O(rounds)` key compares plus work on the
    /// perturbation closure: the joins, the live and dropped rounds, and
    /// the carried rounds that touch a perturbed resource. The
    /// per-resource event lists are edited for perturbed resources only
    /// (rebuilt in walk order as their events are re-applied), so the log
    /// and both its indexes are current when the walk ends — probes and
    /// the next warm solve chain off it with nothing to rebuild.
    ///
    /// The result is **bit-identical** to a cold
    /// [`MaxMinSolver::solve_logged`] of the same arena. With no valid log
    /// to start from, this *is* a cold `solve_logged`. `capacities` must
    /// extend the slice used by the previous solve: growth for new
    /// resources is always fine, and an existing entry may change **only
    /// if** the resource was announced through
    /// [`FlowArena::touch_resource`] since the previous solve — touched
    /// resources are seeded as perturbed and materialised from the
    /// current capacities, so announced capacity changes (link failure,
    /// degradation, recovery) re-solve bit-identical to a cold solve at
    /// the new capacities.
    ///
    /// **`rates` is state.** Carried rounds do not rewrite their flows'
    /// rates, so `rates` must be the buffer this solver's previous solve
    /// filled, untouched since except that vacant slots may be zeroed
    /// (the solve zeroes the window's vacated slots itself). Handing a
    /// warm solver a buffer shorter than at its previous solve — a fresh
    /// `Vec` — panics.
    ///
    /// Takes the arena mutably because the call *consumes* the dirty
    /// window (see [`FlowArena::dirty_resources`]); for the same reason at
    /// most one warm-chaining solver should drive a given arena. A log
    /// that does not describe the arena — a second consumer closed the
    /// window, or the solver was pointed at another arena — is caught, in
    /// release builds too, by an `O(1)` check per carried round (the
    /// arena's user count on the bottleneck must equal the log's) and a
    /// conservation check when the walk ends (the log must freeze exactly
    /// the arena's flows); both panic rather than return corrupt rates.
    pub fn solve_warm(&mut self, capacities: &[f64], arena: &mut FlowArena, rates: &mut Vec<f64>) {
        let nr = arena.n_resources();
        assert!(capacities.len() >= nr, "capacities shorter than resource space");
        if self.will_solve_cold(arena) {
            // Nothing to warm-start from: open a fresh dirty window at the
            // moment the log is recorded, so the next call chains warm.
            arena.clear_dirty();
            self.solve_logged(capacities, arena, rates);
            return;
        }
        self.sync_slots(arena, rates);
        self.walk(capacities, arena, rates);
        arena.clear_dirty();
    }

    /// Bring the slot-indexed state — the caller's `rates` and the log's
    /// `round_of` — up to the arena's slot bound, and forget the dirty
    /// window's slots: a vacated one reads rate 0, and none of them names
    /// a round any more (a recycled slot's new flow was never frozen; a
    /// stale id must not alias whatever round reuses it).
    fn sync_slots(&mut self, arena: &FlowArena, rates: &mut Vec<f64>) {
        assert!(
            !self.log.valid || rates.len() >= self.log.slot_bound as usize,
            "`rates` is shorter than at this solver's previous solve: a warm solve \
             needs the buffer that solve filled (carried rounds keep their rates in it)"
        );
        let nslots = arena.slot_bound();
        rates.resize(nslots, 0.0);
        grow(&mut self.log.round_of, nslots, NONE);
        for &slot in &arena.dirty_slots {
            self.log.round_of[slot as usize] = NONE;
            if !arena.is_live(FlowSlot(slot)) {
                rates[slot as usize] = 0.0;
            }
        }
    }

    /// The warm-solve engine behind [`MaxMinSolver::solve_warm`]: walk
    /// `self.log` — the freeze rounds of the previous solve — in place,
    /// interleaving live rounds for the perturbed cascade.
    ///
    /// The arena's dirty window must cover every resource whose
    /// `(slack, users)` state may deviate from the log's trajectory;
    /// over-approximation is always safe. `rates` must hold the logged
    /// level of every flow the log freezes, and `round_of` must name no
    /// round for any other slot. Leaves the log current for `arena`; the
    /// caller closes the dirty window.
    fn walk(&mut self, capacities: &[f64], arena: &FlowArena, rates: &mut [f64]) {
        // Per-resource state only needs sizing for growth: `delta` is
        // all-zero and `perturbed` all-false between solves, and `slack` /
        // `users` are written when a resource joins.
        let nr = arena.n_resources();
        grow(&mut self.perturbed, nr, false);
        grow(&mut self.wpos, nr, WPOS_NONE);
        grow(&mut self.slack, nr, 0.0);
        grow(&mut self.users, nr, 0);
        grow(&mut self.delta, nr, 0);
        grow(&mut self.log.events, nr, Vec::new());
        grow(&mut self.log.ev_users, nr, 0);
        let n_old = self.log.rounds.len();
        self.chain_head.clear();
        self.chain_head.resize(n_old, NONE);
        self.chain.clear();
        self.next_keys.clear();
        self.next_levels.clear();
        self.next_ids.clear();
        self.last_live_rounds = 0;
        self.last_replayed_rounds = 0;
        self.last_chained_rounds = 0;
        debug_assert!(self.wheap.is_empty() && self.perturbed_list.is_empty());
        for &r in arena.dirty_resources() {
            self.join(capacities, arena, r, 0);
        }
        // `cur` is the position, in the old order, of the next logged
        // round; `first_moved` the new position from which rounds no
        // longer sit where the old log had them.
        let mut cur = 0usize;
        let mut first_moved = usize::MAX;
        loop {
            // Drop logged rounds whose bottleneck was perturbed: their
            // freeze sets are stale, so their flows are handed to the live
            // heap instead. Every resource such a round touched joins the
            // perturbation set *now*, while its state still matches the
            // old trajectory (its share is ≥ the dropped key, so it cannot
            // have deserved an earlier pop).
            let logged_key = loop {
                if cur >= n_old {
                    break u128::MAX;
                }
                let key = self.log.rounds.keys[cur];
                if !self.perturbed[ShareKey(key).res() as usize] {
                    break key;
                }
                let id = self.log.rounds.ids[cur];
                for t in self.log.rounds.spans[id as usize].touched() {
                    let r = unpack(self.log.rounds.touched[t]).0;
                    self.join(capacities, arena, r, cur);
                }
                self.log.rounds.release(id);
                self.dropped.push(id);
                first_moved = first_moved.min(self.next_keys.len());
                cur += 1;
            };
            // Minimum over the live-tracked resources: the indexed heap's
            // root, always current. Unperturbed resources sit exactly on
            // the logged trajectory, so their shares are ≥ the next logged
            // key: the true global minimum is whichever of (live top,
            // logged key) is smaller, and a tie is impossible (the ids
            // would have to match, but a perturbed bottleneck never
            // reaches the comparison).
            match self.wheap.first() {
                Some(&k) if k < logged_key => {
                    first_moved = first_moved.min(self.next_keys.len());
                    self.live_round(capacities, arena, rates, cur);
                }
                _ if logged_key != u128::MAX => cur = self.carry_run(arena, rates, cur),
                // Old log exhausted and no perturbed resource has an
                // unfrozen flow left.
                _ => break,
            }
        }

        let rl = &mut self.log.rounds;
        std::mem::swap(&mut rl.keys, &mut self.next_keys);
        std::mem::swap(&mut rl.levels, &mut self.next_levels);
        std::mem::swap(&mut rl.ids, &mut self.next_ids);
        for p in first_moved.min(rl.ids.len())..rl.ids.len() {
            rl.pos[rl.ids[p] as usize] = p as u32;
        }
        rl.free_ids.append(&mut self.dropped);
        // Every flow froze exactly once, or the log never described this
        // arena (kept in release builds: it is the only check that sees a
        // flow the log missed on a resource that bottlenecks no round).
        assert_eq!(
            rl.frozen,
            arena.n_flows(),
            "the log's freeze counts do not sum to the arena's flows ({DIVERGED})"
        );
        rl.compact_if_sparse();
        for &r in &self.perturbed_list {
            debug_assert_eq!(self.users[r as usize], 0, "heap drained with flows unfrozen");
            self.perturbed[r as usize] = false;
            self.log.ev_users[r as usize] = arena.users(r) as u32;
        }
        self.perturbed_list.clear();
        self.log.stamp(arena);
    }

    /// Resource `r` leaves the logged trajectory with the walk's cursor at
    /// old position `cur`: materialise its `(slack, users)` from its
    /// logged events before the cursor (all carried — a dropped or live
    /// round touching `r` would have made it join then), hang the events
    /// from the cursor on off their rounds' chains, and start tracking its
    /// share. Its event list keeps the folded prefix; the rest is
    /// re-appended as the walk applies it. No-op for a member.
    fn join(&mut self, capacities: &[f64], arena: &FlowArena, r: u32, cur: usize) {
        let ri = r as usize;
        if self.perturbed[ri] {
            return;
        }
        self.perturbed[ri] = true;
        self.perturbed_list.push(r);
        let rl = &self.log.rounds;
        let list = &mut self.log.events[ri];
        let mut slack = capacities[ri];
        let mut users = arena.users(r) as u32;
        let mut folded = 0;
        for &e in list.iter() {
            let (id, d) = unpack(e);
            let p = rl.pos[id as usize] as usize;
            if p >= cur {
                break;
            }
            users -= d;
            slack -= d as f64 * rl.levels[p];
            folded += 1;
        }
        for &e in &list[folded..] {
            let (id, delta) = unpack(e);
            let head = &mut self.chain_head[rl.pos[id as usize] as usize];
            self.chain.push(Link { res: r, delta, next: *head });
            *head = self.chain.len() as u32 - 1;
        }
        list.truncate(folded);
        size_like_rev(list, arena, ri);
        self.slack[ri] = slack;
        self.users[ri] = users;
        if users > 0 {
            let share = (slack / users as f64).max(0.0);
            wheap::insert(&mut self.wheap, &mut self.wpos, ShareKey::new(share, r, 0).0);
        }
    }

    /// Carry the run of logged rounds starting at old position `cur` —
    /// known clean and ahead of the live minimum — for as long as the
    /// decision the walk would make is unchanged: next round's bottleneck
    /// unperturbed and its key not beaten by the live minimum (the root
    /// read is O(1) and always current, so the updates inside the run are
    /// seen). Returns the position after the run.
    fn carry_run(&mut self, arena: &FlowArena, rates: &[f64], mut cur: usize) -> usize {
        let start = cur;
        let n_old = self.log.rounds.len();
        'run: while cur < n_old {
            // Rounds that touch no perturbed resource: nothing moves, the
            // live minimum included.
            let live_min = self.wheap.first().copied().unwrap_or(u128::MAX);
            loop {
                let key = self.log.rounds.keys[cur];
                let b = ShareKey(key).res();
                if self.perturbed[b as usize] || live_min < key {
                    break 'run;
                }
                // Re-validate the bottleneck against the mutated arena:
                // every flow crossing it must be one the log froze (kept
                // in release builds — it is O(1) per round and turns a
                // contract violation, e.g. a solver driven across two
                // arenas or a second warm solver consuming this one's
                // dirty window, into a panic instead of silently corrupt
                // rates).
                assert_eq!(
                    arena.users(b),
                    self.log.ev_users[b as usize] as usize,
                    "carried bottleneck's user count diverged from the log ({DIVERGED})"
                );
                let level = self.log.rounds.levels[cur];
                debug_assert!(
                    self.log.rounds.round(cur).3.iter().all(|&s| rates[s as usize] == level),
                    "a carried round's flow no longer reads its level: `rates` is not the \
                     buffer the previous solve filled"
                );
                if self.chain_head[cur] != NONE {
                    break;
                }
                cur += 1;
                if cur >= n_old {
                    break 'run;
                }
            }
            // This round executes as logged; the perturbed resources it
            // touches take its deltas and get its event back.
            self.last_chained_rounds += 1;
            let (id, level) = (self.log.rounds.ids[cur], self.log.rounds.levels[cur]);
            let mut link = self.chain_head[cur];
            while link != NONE {
                let Link { res, delta, next } = self.chain[link as usize];
                let r2 = res as usize;
                self.users[r2] -= delta;
                self.slack[r2] -= delta as f64 * level;
                self.log.events[r2].push(pack(id, delta));
                self.wheap_upsert(r2);
                link = next;
            }
            cur += 1;
        }
        self.last_replayed_rounds += (cur - start) as u64;
        let rl = &self.log.rounds;
        self.next_keys.extend_from_slice(&rl.keys[start..cur]);
        self.next_levels.extend_from_slice(&rl.levels[start..cur]);
        self.next_ids.extend_from_slice(&rl.ids[start..cur]);
        cur
    }

    /// Run one live round: the perturbed resource with the smallest share
    /// pops, with the walk's cursor at old position `cur`.
    ///
    /// Identical arithmetic to a cold round — this body is a deliberate
    /// copy of `fill_rounds`'s freeze-round core (over the indexed heap
    /// instead of the lazy one) and must stay in lockstep with it.
    fn live_round(&mut self, capacities: &[f64], arena: &FlowArena, rates: &mut [f64], cur: usize) {
        let k = ShareKey(wheap::pop_min(&mut self.wheap, &mut self.wpos));
        let b = k.res() as usize;
        let level = k.share();
        let id = self.log.rounds.new_id();
        self.log.rounds.pos[id as usize] = POS_CREATED;
        let (t0, f0) = (self.log.rounds.touched.len(), self.log.rounds.freeze.len());
        self.touched.clear();
        for &e in &arena.rev[b] {
            let (slot, _) = unpack(e);
            let f = slot as usize;
            // Frozen already: its round was carried past, or this walk
            // created it. (A dropped round, or one still ahead — which
            // this freeze is about to get dropped — leaves it unfrozen.)
            let of = self.log.round_of[f];
            if of != NONE {
                let p = self.log.rounds.pos[of as usize];
                if (p as usize) < cur || p == POS_CREATED {
                    continue;
                }
            }
            self.log.round_of[f] = id;
            rates[f] = level;
            self.log.rounds.freeze.push(slot);
            for &r2 in arena.resources_unchecked(slot) {
                let r2 = r2 as usize;
                if self.delta[r2] == 0 {
                    self.touched.push(r2 as u32);
                }
                self.delta[r2] += 1;
            }
        }
        assert!(
            !self.touched.is_empty(),
            "live bottleneck had users but froze nothing ({DIVERGED})"
        );
        self.last_live_rounds += 1;
        for i in 0..self.touched.len() {
            let r2 = self.touched[i] as usize;
            let d = self.delta[r2];
            self.delta[r2] = 0;
            // A live freeze drags every touched resource off the logged
            // trajectory: it joins the live set.
            self.join(capacities, arena, r2 as u32, cur);
            self.users[r2] -= d;
            self.slack[r2] -= d as f64 * level;
            self.log.rounds.touched.push(pack(r2 as u32, d));
            self.log.events[r2].push(pack(id, d));
            self.wheap_upsert(r2);
        }
        self.log.rounds.seal(id, t0, f0);
        self.next_keys.push(ShareKey::new(level, b as u32, 0).0);
        self.next_levels.push(level);
        self.next_ids.push(id);
    }

    /// Internal consistency check of the persistent log against the
    /// arena it was last solved for (tests only; panics on violation):
    ///
    /// * positions are dense and `pos` / `ids` are inverse; every id is
    ///   either in the log or free, once;
    /// * each resource's event list equals the transpose of the rounds'
    ///   touched lists — so it is in position order — and its deltas sum
    ///   to `ev_users`, which equals the arena's user count;
    /// * every live slot is in exactly one round's freeze list, and
    ///   `round_of` names that round; a round freezes only flows crossing
    ///   its bottleneck;
    /// * the pools' live counts match the rounds' ranges.
    #[doc(hidden)]
    pub fn check_log_invariants(&self, arena: &FlowArena) {
        assert!(self.log_matches(arena), "log is not current for the arena");
        let log = &self.log;
        let rl = &log.rounds;
        let n = rl.len();
        assert!(rl.levels.len() == n && rl.ids.len() == n, "position arrays differ in length");
        assert_eq!(rl.pos.len(), rl.spans.len(), "per-id arrays differ in length");
        let mut owner = vec![0u8; rl.pos.len()];
        for (p, &id) in rl.ids.iter().enumerate() {
            assert_eq!(rl.pos[id as usize] as usize, p, "pos is not the inverse of ids");
            owner[id as usize] += 1;
        }
        rl.free_ids.iter().for_each(|&id| owner[id as usize] += 1);
        assert!(owner.iter().all(|&c| c == 1), "an id is neither live nor free, or both");
        let nr = arena.n_resources();
        let mut events = vec![Vec::new(); nr];
        let mut frozen_in = vec![NONE; arena.slot_bound()];
        let (mut touched_live, mut frozen) = (0, 0);
        for k in 0..n {
            let (key, level, touched, freeze) = rl.round(k);
            let (id, b) = (rl.ids[k], ShareKey(key).res());
            assert_eq!(key, ShareKey::new(level, b, 0).0, "round {k}: key is not (level, res)");
            for &e in touched {
                let (r, d) = unpack(e);
                assert!(d > 0, "round {k}: empty delta on resource {r}");
                assert!(r != b || d as usize == freeze.len(), "round {k}: bottleneck delta");
                events[r as usize].push(pack(id, d));
            }
            for &slot in freeze {
                assert!(arena.resources(FlowSlot(slot)).contains(&b), "round {k}: stray flow");
                assert_eq!(frozen_in[slot as usize], NONE, "slot {slot} frozen twice");
                frozen_in[slot as usize] = id;
            }
            touched_live += touched.len();
            frozen += freeze.len();
        }
        assert_eq!((touched_live, frozen), (rl.touched_live, rl.frozen), "pool live counts");
        assert!(rl.touched.len() >= touched_live && rl.freeze.len() >= frozen);
        for (r, want) in events.iter().enumerate() {
            assert_eq!(&log.events[r], want, "resource {r}: event list is not the transpose");
            let sum: u32 = want.iter().map(|&e| unpack(e).1).sum();
            assert_eq!(sum, log.ev_users[r], "resource {r}: ev_users is not the delta sum");
            assert_eq!(sum as usize, arena.users(r as u32), "resource {r}: users unaccounted");
        }
        assert!(log.events[nr..].iter().all(Vec::is_empty), "events beyond the resource space");
        for (slot, &id) in frozen_in.iter().enumerate() {
            let live = arena.is_live(FlowSlot(slot as u32));
            assert_eq!(id != NONE, live, "slot {slot}: frozen by the log iff live");
            assert!(!live || log.round_of[slot] == id, "slot {slot}: round_of disagrees");
        }
    }

    /// `(pool compactions, round ids reused)` by this solver's log so
    /// far — lets tests assert that a churn chain actually crossed both.
    #[doc(hidden)]
    pub fn log_churn(&self) -> (u64, u64) {
        (self.log.rounds.compactions, self.log.rounds.recycled_ids)
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
    /// for a warm solve). Diagnostics only.
    pub fn last_live_rounds(&self) -> u64 {
        self.last_live_rounds
    }

    /// Freeze rounds the last solve carried over from the previous log
    /// untouched (zero for a cold solve). Diagnostics only.
    pub fn last_replayed_rounds(&self) -> u64 {
        self.last_replayed_rounds
    }

    /// Of [`MaxMinSolver::last_replayed_rounds`], the rounds that applied
    /// a chain of deltas to perturbed resources (zero for a cold solve).
    /// Diagnostics only.
    pub fn last_chained_rounds(&self) -> u64 {
        self.last_chained_rounds
    }

    /// Logged rounds walked by the last [`MaxMinSolver::probe`], summed
    /// over the per-resource
    /// records it read — zero when every resource it named had been
    /// probed since the last solve. Diagnostics only.
    pub fn last_probe_replay_rounds(&self) -> u64 {
        self.last_probe_replay_rounds
    }

    /// Per-resource records the last [`MaxMinSolver::probe`] read off the
    /// log: the distinct
    /// resources it named that no probe had since the last solve.
    /// Diagnostics only.
    pub fn last_probe_records_built(&self) -> u64 {
        self.last_probe_records_built
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

    /// Progressive filling from the solver's *current* `(slack, users,
    /// frozen, version)` state until `remaining` flows freeze. The heap is
    /// seeded by heapifying `heap_buf`, which must hold one entry per
    /// resource that still carries unfrozen flows, keyed at the current
    /// share and version. Appends each freeze round to the log.
    ///
    /// Used by the cold solve (state initialised from scratch).
    /// [`MaxMinSolver::solve_warm`] does **not** call this: its live
    /// rounds deliberately duplicate this freeze-round arithmetic over
    /// the indexed warm heap — the two bodies must stay in lockstep
    /// (same operations in the same order) or bit-identity between warm
    /// and cold solves breaks; the workspace property suite pins that.
    fn fill_rounds(&mut self, arena: &FlowArena, rates: &mut [f64], mut remaining: usize) {
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
            let (t0, f0) = (self.log.rounds.touched.len(), self.log.rounds.freeze.len());
            for &e in &arena.rev[b] {
                let (slot, _) = unpack(e);
                let f = slot as usize;
                if self.frozen[f] {
                    continue;
                }
                self.frozen[f] = true;
                rates[f] = level;
                remaining -= 1;
                self.log.rounds.freeze.push(slot);
                for &r2 in arena.resources_unchecked(slot) {
                    let r2 = r2 as usize;
                    if self.delta[r2] == 0 {
                        self.touched.push(r2 as u32);
                    }
                    self.delta[r2] += 1;
                }
            }
            debug_assert!(!self.touched.is_empty(), "bottleneck had users but froze nothing");
            for i in 0..self.touched.len() {
                let r2 = self.touched[i] as usize;
                let d = self.delta[r2];
                self.delta[r2] = 0;
                self.users[r2] -= d;
                self.slack[r2] -= d as f64 * level;
                self.log.rounds.touched.push(pack(r2 as u32, d));
                let v = self.version[r2].wrapping_add(1);
                self.version[r2] = v;
                if self.users[r2] > 0 {
                    let share = (self.slack[r2] / self.users[r2] as f64).max(0.0);
                    heap.push(Reverse(ShareKey::new(share, r2 as u32, v)));
                }
            }
            self.log.rounds.commit(ShareKey::new(level, b as u32, 0).0, level, t0, f0);
        }
        // Return the heap's buffer for the next solve.
        self.heap_buf = heap.into_vec();
    }

    /// Does the probe log describe the current state of `arena`?
    ///
    /// True after a [`MaxMinSolver::solve_logged`] or
    /// [`MaxMinSolver::solve_warm`] with no arena mutation since. Probing
    /// requires this; callers that let the arena drift must re-solve
    /// first.
    pub fn log_matches(&self, arena: &FlowArena) -> bool {
        self.log.valid
            && self.log.generation == arena.generation()
            && self.log.n_resources as usize == arena.n_resources()
    }

    /// Rate a hypothetical extra flow crossing `resources` would receive
    /// if it joined the flow set last solved by
    /// [`MaxMinSolver::solve_logged`] — **bit-identical** to adding the
    /// flow to `arena`, solving from scratch, and reading its rate, but
    /// folded from per-resource bottleneck records read off the log:
    /// `O(events on r · log rounds)` for each resource `r` of the path
    /// that no probe has named since the last solve, `O(path)` otherwise,
    /// plus one `O(rounds)` pass per solve for the keys' prefix maxima.
    ///
    /// The committed solution is untouched: neither `arena` nor the base
    /// rates change (the only writes are to the solver's probe memos), so
    /// probing is observably side-effect-free and allocation-free once
    /// the memos span the resource space and the log's rounds.
    ///
    /// Panics if the log is missing or stale ([`MaxMinSolver::log_matches`]),
    /// or if `resources` is empty or out of range. `capacities` must be
    /// the slice passed to the logged solve.
    pub fn probe(&mut self, capacities: &[f64], arena: &FlowArena, resources: &[u32]) -> f64 {
        self.begin_probes(capacities, arena, "probe");
        self.replay(capacities, arena, resources)
    }

    /// Entry checks and per-call tallies shared by every probe entry point
    /// (`probe` and the engine's spliced probes); sizes the
    /// record memo to the resource space and brings the prefix maxima up
    /// to the log's epoch. Every [`MaxMinSolver::fold`] that follows, up to
    /// the next call, counts into the `last_probe_*` tallies.
    pub(crate) fn begin_probes(&mut self, capacities: &[f64], arena: &FlowArena, what: &str) {
        assert!(
            self.log_matches(arena),
            "{what} without a current logged solve (call solve_logged first)"
        );
        let nr = self.log.n_resources as usize;
        assert!(capacities.len() >= nr, "capacities too short");
        grow(&mut self.log.records, nr, ProbeRecord::default());
        self.log.build_prefix();
        self.last_probe_replay_rounds = 0;
        self.last_probe_records_built = 0;
    }

    /// The epoch of the current log: a [`ProbeRecord`] (or a memoised
    /// [`Fold`]) stamped with it describes the log, one stamped with any
    /// other value does not. Every solve moves it.
    pub(crate) fn probe_epoch(&self) -> u64 {
        self.log.epoch
    }

    /// The [`Fold`] of resources `s` — each resource's [`ProbeRecord`],
    /// read off the log now if no probe has named it since the last
    /// solve — or [`NO_FOLD`] for none. Call [`MaxMinSolver::begin_probes`]
    /// first.
    pub(crate) fn fold(
        &mut self,
        capacities: &[f64],
        arena: &FlowArena,
        s: impl IntoIterator<Item = u32>,
    ) -> Fold {
        let log = &mut self.log;
        let (nr, rounds) = (log.n_resources as usize, log.rounds.len() as u64);
        let mut best = NO_FOLD;
        for r in s {
            let ri = r as usize;
            assert!(ri < nr, "probe: bad resource {r}");
            if log.records[ri].epoch != log.epoch {
                let (hit, key) = log.read_record(capacities, arena, r);
                log.records[ri] = ProbeRecord { key, epoch: log.epoch, hit };
                // The hit round was compared too.
                self.last_probe_replay_rounds += rounds.min(hit as u64 + 1);
                self.last_probe_records_built += 1;
            }
            let rec = log.records[ri];
            best = best.min((rec.hit, rec.key));
        }
        best
    }

    /// Rate one candidate over path `s`: the share of `min over r ∈ s of
    /// (hit_r, key_r)`, compared lexicographically, where `(hit_r,
    /// key_r)` is `r`'s [`ProbeRecord`] — the [`MaxMinSolver::fold`] of
    /// `s`.
    ///
    /// Why a fold of per-resource records is the candidate's rate. Before
    /// the candidate freezes it only *adds one user* to each of its
    /// resources — it consumes nothing — so every base round executes
    /// exactly as logged until a candidate share wins a pop, and `r`'s
    /// candidate key at round `k`, `key_r(k)`, is a function of `r`'s
    /// capacity, user count and logged events alone. Adding the flow for
    /// real would freeze it at the first round `K` with `min_r key_r(K) ≤
    /// keys[K]`, at the share of that minimum. `hit_r` is the first round
    /// with `key_r(hit_r) ≤ keys[hit_r]`, so `K = min_r hit_r`; and at
    /// `K` any `r` with `hit_r > K` has `key_r(K) > keys[K]`, while one
    /// with `hit_r = K` has `key_r(K) ≤ keys[K]` — the minimum over the
    /// whole path is the minimum over the resources that hit at `K`,
    /// whose recorded key is exactly `key_r(K)`. If no resource hits, the
    /// base set froze entirely, every `hit_r` is the round count and the
    /// candidate bottlenecks on the smallest final key of its path —
    /// again the lexicographic minimum.
    fn replay(&mut self, capacities: &[f64], arena: &FlowArena, s: &[u32]) -> f64 {
        assert!(!s.is_empty(), "probe flow traverses no resources");
        debug_assert!(
            s.iter().enumerate().all(|(i, r)| !s[..i].contains(r)),
            "probe flow lists a resource twice"
        );
        fold_rate(self.fold(capacities, arena, s.iter().copied()))
    }
}

/// Compute max-min fair rates from a one-shot flow list.
///
/// The reference the test suites compare the engine against, not a
/// production entry point: it builds a fresh [`FlowArena`] and
/// [`MaxMinSolver`], runs one cold solve and returns one rate per flow
/// (in input order). Anything that mutates a flow set holds an arena and
/// a solver instead.
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
    solver.solve_logged(capacities, &arena, &mut rates);
    rates.truncate(flows.len());
    rates
}

/// The probe oracle: one candidate walked over its *whole path* through
/// the log, a cursor per resource, stopping at the first round the
/// smallest candidate key wins — no per-resource record, no memo, no
/// fold. It is to [`MaxMinSolver::probe`] what [`max_min_rates`] is to
/// the solver: the property suite below bit-compares the two on every
/// candidate, so the separability argument in `MaxMinSolver::replay` is
/// checked, not trusted — and the engine's suite does the same for its
/// spliced path-0 probes.
#[cfg(test)]
pub(crate) mod reference {
    use super::{candidate_key, unpack, FlowArena, MaxMinSolver, ShareKey};

    /// Resource `r`'s `(hit, key)` record, found the slow way: every
    /// logged key compared in order, no prefix maxima, no bisection.
    pub(super) fn read_record(
        solver: &MaxMinSolver,
        capacities: &[f64],
        arena: &FlowArena,
        r: u32,
    ) -> (u32, u128) {
        let log = &solver.log;
        let (keys, levels, pos) = (&log.rounds.keys, &log.rounds.levels, &log.rounds.pos);
        let (mut slack, mut users) = (capacities[r as usize], arena.users(r) as u32);
        let mut key = candidate_key(slack, users, r);
        let mut k = 0usize;
        for &e in &log.events[r as usize] {
            let (id, d) = unpack(e);
            let at = pos[id as usize] as usize;
            if let Some(hit) = keys[k..=at].iter().position(|&logged| key <= logged) {
                return ((k + hit) as u32, key);
            }
            users -= d;
            slack -= d as f64 * levels[at];
            key = candidate_key(slack, users, r);
            k = at + 1;
        }
        let tail = keys[k..].iter().position(|&logged| key <= logged);
        (tail.map_or(keys.len(), |hit| k + hit) as u32, key)
    }

    /// Replay state of one candidate resource: its `(slack, users)` as of
    /// the round the replay stands at, the share key they imply with the
    /// candidate as one extra user, and its place in the resource's event
    /// list.
    struct Cursor {
        slack: f64,
        users: u32,
        /// Next unread entry of the resource's event list.
        next: u32,
        /// Position of that entry's round (`u32::MAX` once exhausted).
        next_pos: u32,
        key: u128,
    }

    /// The rate of a candidate crossing `s`, read off `solver`'s log.
    pub(crate) fn probe(
        solver: &MaxMinSolver,
        capacities: &[f64],
        arena: &FlowArena,
        s: &[u32],
    ) -> f64 {
        assert!(solver.log_matches(arena) && !s.is_empty());
        let log = &solver.log;
        let (keys, levels, pos) = (&log.rounds.keys, &log.rounds.levels, &log.rounds.pos);
        // Position of the round behind entry `i` of an event list
        // (`u32::MAX` past its end).
        let pos_at = |list: &[u64], i: u32| {
            list.get(i as usize).map_or(u32::MAX, |&e| pos[unpack(e).0 as usize])
        };
        let mut cur = Vec::with_capacity(s.len());
        // The candidate's best (share, resource) key with one extra user
        // on each of its resources, and the next round that can move it.
        let mut cmin = u128::MAX;
        let mut next_ev = u32::MAX;
        for &r in s {
            let ri = r as usize;
            let (slack, users) = (capacities[ri], arena.users(r) as u32);
            let next_pos = pos_at(&log.events[ri], 0);
            let c = Cursor { slack, users, next: 0, next_pos, key: candidate_key(slack, users, r) };
            cmin = cmin.min(c.key);
            next_ev = next_ev.min(c.next_pos);
            cur.push(c);
        }
        let rounds = keys.len();
        let mut k = 0usize;
        loop {
            // Rounds up to and including the next event see today's
            // `cmin`. A hit means a candidate resource saturates before
            // (or exactly as) the logged bottleneck: the candidate
            // freezes there.
            let stop = rounds.min(next_ev as usize + 1);
            if keys[k..stop].iter().any(|&key| cmin <= key) || next_ev as usize >= rounds {
                // Hit — or every base flow froze without saturating the
                // candidate's path, and it bottlenecks on its smallest
                // remaining share.
                return ShareKey(cmin).share();
            }
            // Round `next_ev` executes as logged; apply its deltas to the
            // candidate resources it touches.
            k = next_ev as usize;
            let level = levels[k];
            (cmin, next_ev) = (u128::MAX, u32::MAX);
            for (c, &r) in cur.iter_mut().zip(s) {
                if c.next_pos as usize == k {
                    let list = &log.events[r as usize];
                    let d = unpack(list[c.next as usize]).1;
                    c.users -= d;
                    c.slack -= d as f64 * level;
                    c.next += 1;
                    c.next_pos = pos_at(list, c.next);
                    c.key = candidate_key(c.slack, c.users, r);
                }
                cmin = cmin.min(c.key);
                next_ev = next_ev.min(c.next_pos);
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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
        solver.solve_logged(&caps, &arena, &mut rates);
        assert!(close(rates[a.0 as usize], 5.0));
        // Remove the long flow: b and c each get a full link.
        arena.remove(a);
        solver.solve_logged(&caps, &arena, &mut rates);
        assert!(close(rates[b.0 as usize], 10.0));
        assert!(close(rates[c.0 as usize], 10.0));
        // Re-adding an equivalent flow restores the original allocation.
        let a2 = arena.add(&[0, 1]);
        solver.solve_logged(&caps, &arena, &mut rates);
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
        solver.solve_logged(&[5.0, 5.0, 5.0, 7.0], &a, &mut rates);
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
        solver.solve_logged(caps, &arena, &mut rates);
        rates[probe.0 as usize]
    }

    /// Every record `solver` holds for its current log is the one the
    /// linear [`reference::read_record`] scan finds, hit round and key.
    fn check_records(solver: &MaxMinSolver, caps: &[f64], arena: &FlowArena) {
        for (r, rec) in solver.log.records.iter().enumerate() {
            if rec.epoch == solver.log.epoch {
                let want = reference::read_record(solver, caps, arena, r as u32);
                assert_eq!((rec.hit, rec.key), want, "record of resource {r}");
            }
        }
    }

    /// Rate `candidates` one after another against `solver`'s current log,
    /// sharing its per-resource records, and bit-compare every answer with
    /// both oracles — the full-path [`reference::probe`] walk over the
    /// same log and [`full_solve_probe`] over `base`, the arena's flow
    /// set — and every record the probes read with the linear scan's. Then
    /// rate them again: the second pass must be served from the records of
    /// the first (nothing read, nothing walked) and say the same.
    fn check_probes(
        solver: &mut MaxMinSolver,
        caps: &[f64],
        arena: &FlowArena,
        base: &[Vec<u32>],
        candidates: &[Vec<u32>],
    ) {
        let out: Vec<f64> = candidates.iter().map(|c| solver.probe(caps, arena, c)).collect();
        check_records(solver, caps, arena);
        for (c, got) in candidates.iter().zip(&out) {
            let walk = reference::probe(solver, caps, arena, c);
            assert_eq!(got.to_bits(), walk.to_bits(), "probe {c:?}: {got} vs walk {walk}");
            let want = full_solve_probe(caps, base, c);
            assert_eq!(got.to_bits(), want.to_bits(), "probe {c:?}: {got} vs {want}");
        }
        let (mut built, mut walked) = (0, 0);
        for (c, got) in candidates.iter().zip(&out) {
            let again = solver.probe(caps, arena, c);
            built += solver.last_probe_records_built();
            walked += solver.last_probe_replay_rounds();
            assert_eq!(again.to_bits(), got.to_bits(), "{c:?}: records disagree with their pass");
        }
        assert_eq!(built, 0, "second pass read a record");
        assert_eq!(walked, 0, "second pass walked the log");
    }

    /// Solve `base` logged and [`check_probes`] `candidates` against it.
    fn assert_probes_bitmatch(
        caps: &[f64],
        base: &[Vec<u32>],
        candidates: &[&[u32]],
    ) -> MaxMinSolver {
        let mut arena = FlowArena::new(caps.len());
        for f in base {
            arena.add(f);
        }
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(caps, &arena, &mut rates);
        let candidates: Vec<Vec<u32>> = candidates.iter().map(|c| c.to_vec()).collect();
        check_probes(&mut solver, caps, &arena, base, &candidates);
        solver
    }

    #[test]
    fn probes_bitmatch_full_solves() {
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
            solver.log.rounds.keys.windows(2).any(|w| w[1] < w[0]),
            "instance no longer produces an inversion: {:?}",
            solver.log.rounds.levels
        );
    }

    #[test]
    fn probe_fold_ranks_the_hit_round_above_the_key() {
        // Same L, one resource up: 1 is the base bottleneck at L (round 0)
        // and 2 would tie with it once the candidate is its third user,
        // but loses the tie on id — it saturates at round 1 instead, where
        // `(3L − L) / 2` has rounded an ulp below L. Idle resource 0 has
        // capacity L exactly and wins round 0 on id. So for candidate
        // [0, 2] resource 2 records the *smaller* key at the *later*
        // round: the flow freezes on 0 at L, and a fold on keys alone
        // would answer L − ulp.
        let l = 31.0 / 26.0;
        let caps = [l, l * 6.0, l * 3.0];
        let mut base: Vec<Vec<u32>> = vec![vec![1, 2], vec![2]];
        base.extend(std::iter::repeat_n(vec![1], 5));
        let solver = assert_probes_bitmatch(&caps, &base, &[&[0, 2], &[2, 0], &[0], &[2]]);
        let (idle, tied) = (solver.log.records[0], solver.log.records[2]);
        assert!(
            idle.hit < tied.hit && tied.key < idle.key,
            "instance no longer orders hit and key apart: {idle:?} vs {tied:?}"
        );
    }

    #[test]
    fn probe_record_where_a_key_dips_under_the_prefix_maximum_is_found_in_order() {
        // The inversion instance with a resource 4 beside resource 1: it
        // shares a flow with 0, which round 0 (L, 0) freezes, and 4's
        // candidate share then comes out at `(3L − L) / 2` — the L − ulp
        // resource 1 pops at in round 1. So 4's second segment opens at
        // round 1 with a key below the prefix maximum (L, 0) but above
        // keys[1] = (L − ulp, 1): bisecting the prefix maxima would stop
        // at round 1, and only the in-order scan the guard falls back to
        // finds round 2, where 4's last flow freezes.
        let l = 31.0 / 26.0;
        let caps = [l * 6.0, l * 3.0, 5.0, 100.0, l * 3.0];
        let mut base: Vec<Vec<u32>> =
            vec![vec![0, 1], vec![1], vec![1], vec![2], vec![2], vec![0, 4], vec![4]];
        base.extend(std::iter::repeat_n(vec![0], 4));
        let solver = assert_probes_bitmatch(
            &caps,
            &base,
            &[&[4], &[4, 2], &[3, 4], &[1, 4], &[0], &[1], &[2], &[3]],
        );
        let (keys, rec) = (&solver.log.rounds.keys, solver.log.records[4]);
        assert!(
            keys[1] < rec.key && rec.key < keys[0] && ShareKey(keys[2]).res() == 4,
            "instance no longer dips under the prefix maximum at 4's event: {:?} vs {rec:?}",
            solver.log.rounds.levels
        );
        assert_eq!(rec.hit, 2, "resource 4's record");
    }

    #[test]
    fn probe_ties_with_a_bottleneck_whose_share_underflows() {
        // The only way a candidate's key *equals* a logged key: it sits on
        // the round's own bottleneck and `slack / (users + 1)` is
        // `slack / users` — both zero. The smallest subnormal halves to
        // zero (ties-to-even), so resource 0's two flows freeze at level
        // 0 and a third user gets 0 there too: the candidate must stop at
        // that round on `≤`. Walking past it would hand it the whole
        // 5e-324 the zero-rate flows left behind.
        let caps = [5e-324, 10.0];
        let base: Vec<Vec<u32>> = vec![vec![0], vec![0, 1], vec![1]];
        let solver = assert_probes_bitmatch(&caps, &base, &[&[0], &[0, 1], &[1]]);
        assert_eq!(solver.log.rounds.levels[0], 0.0);
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

    /// The candidate shapes [`check_probes`] is run on after every churn
    /// step, over resources `0..nr`:
    ///
    /// * the scheduler's batch — every ordered pair of a small "host"
    ///   set, host `i` owning access resources `2i` (up) and `2i + 1`
    ///   (down), all pairs crossing resource `nr − 1` as their fabric
    ///   when it is not an access resource: many candidates, few distinct
    ///   resources;
    /// * every resource alone;
    /// * the resources no flow crosses, as one path;
    /// * `extra`, the step's own random path.
    fn candidate_shapes(arena: &FlowArena, hosts: usize, extra: &[u32]) -> Vec<Vec<u32>> {
        let nr = arena.n_resources() as u32;
        let hosts = (hosts as u32).min(nr / 2);
        let fabric = (nr > 2 * hosts).then_some(nr - 1);
        let mut shapes = Vec::new();
        for i in 0..hosts {
            for j in (0..hosts).filter(|&j| j != i) {
                let mut path = vec![2 * i];
                path.extend(fabric);
                path.push(2 * j + 1);
                shapes.push(path);
            }
        }
        shapes.extend((0..nr).map(|r| vec![r]));
        let unused: Vec<u32> = (0..nr).filter(|&r| arena.users(r) == 0).collect();
        if !unused.is_empty() {
            shapes.push(unused);
        }
        shapes.push(extra.to_vec());
        shapes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(48)))]
        #[test]
        fn record_probes_bitmatch_the_reference_walk_and_full_solves_under_churn(
            caps in prop::collection::vec(1.0f64..1000.0, 1..8),
            from_inversion in any::<bool>(),
            hosts in 2usize..5,
            ops in prop::collection::vec(
                (0u8..8, prop::collection::vec(0usize..16, 1..5), 1.0f64..1000.0),
                1..20,
            ),
        ) {
            // Start from an empty flow set over random capacities, or from
            // the hand-built log whose second key dips under its first
            // (`probes_bitmatch_full_solves_on_a_log_with_a_key_inversion`).
            let (mut caps, base) = if from_inversion {
                let l = 31.0 / 26.0;
                let mut base = vec![vec![0, 1], vec![1], vec![1], vec![2], vec![2]];
                base.extend(std::iter::repeat_n(vec![0], 5));
                (vec![l * 6.0, l * 3.0, 5.0, 100.0], base)
            } else {
                (caps, Vec::new())
            };
            let mut arena = FlowArena::new(caps.len());
            let mut live: Vec<(FlowSlot, Vec<u32>)> =
                base.into_iter().map(|f| (arena.add(&f), f)).collect();
            let mut solver = MaxMinSolver::new();
            let mut rates = Vec::new();
            let norm = |path: &[usize], nr: usize| -> Vec<u32> {
                let mut f: Vec<u32> = path.iter().map(|r| (r % nr) as u32).collect();
                f.sort_unstable();
                f.dedup();
                f
            };
            // Step 0 probes the starting state; every later step applies
            // one churn op first. Each step re-solves warm (cold the first
            // time), so every check starts on a fresh epoch.
            for step in 0..=ops.len() {
                let nr = arena.n_resources();
                let mut extra = vec![0];
                if let Some((op, path, cap)) = step.checked_sub(1).map(|i| &ops[i]) {
                    extra = norm(path, nr);
                    match op {
                        0..=2 => live.push((arena.add(&extra), extra.clone())),
                        3 | 4 if !live.is_empty() => {
                            let (slot, _) = live.swap_remove(path[0] % live.len());
                            arena.remove(slot);
                        }
                        5 | 6 => {
                            caps[extra[0] as usize] = *cap;
                            arena.touch_resource(extra[0]);
                        }
                        _ => {
                            arena.grow_resources(nr + 1);
                            caps.push(*cap);
                        }
                    }
                }
                solver.solve_warm(&caps, &mut arena, &mut rates);
                let base: Vec<Vec<u32>> = live.iter().map(|(_, f)| f.clone()).collect();
                let shapes = candidate_shapes(&arena, hosts, &extra);
                check_probes(&mut solver, &caps, &arena, &base, &shapes);
            }
        }
    }

    // ------------------------------------------------- warm-started solves

    /// Bit-compare a warm-chained solver against per-step cold solves.
    fn assert_warm_matches_cold(warm: &[f64], arena: &FlowArena, caps: &[f64]) {
        let mut cold_solver = MaxMinSolver::new();
        let mut cold = Vec::new();
        cold_solver.solve_logged(caps, arena, &mut cold);
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
        // No-op churn (identical flow set): the whole log is carried.
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
        let caps = [10.0, 10.0];
        let mut arena = FlowArena::new(2);
        arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        assert!(solver.log_matches(&arena));
        arena.touch_resource(1);
        assert!(!solver.log_matches(&arena), "stale capacities must not serve probes");
        assert_eq!(arena.dirty_resources(), &[0, 1], "capacity touch joins the dirty window");
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
    fn key_inversion_survives_a_bulk_carried_run() {
        // The inversion instance above, reached through a warm chain:
        // resource 3 ties the inverted pair at level L, its flows churn,
        // and the warm solve carries the three clean rounds — the dip
        // between the first two included — as one run while resource 3's
        // live key `(L, 3)` waits behind both `(L, 0)` and `(L − ulp, 1)`.
        let l = 31.0 / 26.0;
        let caps = [l * 6.0, l * 3.0, 5.0, l * 2.0];
        let mut arena = FlowArena::new(caps.len());
        for f in [vec![0u32, 1], vec![1], vec![1], vec![2], vec![2], vec![3]] {
            arena.add(&f);
        }
        for _ in 0..5 {
            arena.add(&[0]);
        }
        let churned = arena.add(&[3]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut arena, &mut rates);
        arena.remove(churned);
        arena.add(&[3]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_eq!((solver.last_replayed_rounds(), solver.last_live_rounds()), (3, 1));
        solver.check_log_invariants(&arena);
        assert_warm_matches_cold(&rates, &arena, &caps);
        let keys = &solver.log.rounds.keys;
        assert!(keys[1] < keys[0], "the carried run no longer holds the inversion");
        assert_eq!(ShareKey(keys[2]).res(), 3, "resource 3 re-froze between the carried rounds");
        let base: Vec<Vec<u32>> = arena.iter().map(|(_, res)| res.to_vec()).collect();
        for cand in [&[0u32][..], &[1], &[2], &[3], &[0, 1], &[1, 3], &[3, 2, 1, 0]] {
            let got = solver.probe(&caps, &arena, cand);
            let want = full_solve_probe(&caps, &base, cand);
            assert_eq!(got.to_bits(), want.to_bits(), "probe {cand:?}: {got} vs {want}");
        }
    }

    #[test]
    fn capacity_touch_that_beats_no_key_carries_every_round() {
        // Resource 1 bottlenecks no round, and at its new capacity its
        // share still beats no logged key: the re-solve is all carry.
        let mut caps = [10.0, 100.0, 50.0];
        let mut arena = FlowArena::new(3);
        arena.add(&[0, 1]);
        arena.add(&[0, 1]);
        arena.add(&[2]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut arena, &mut rates);
        let before = rates.clone();
        caps[1] = 80.0;
        arena.touch_resource(1);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_eq!((solver.last_live_rounds(), solver.last_replayed_rounds()), (0, 2));
        assert_eq!(rates, before);
        assert_warm_matches_cold(&rates, &arena, &caps);
        solver.check_log_invariants(&arena);
    }

    #[test]
    #[should_panic(expected = "shorter than at this solver's previous solve")]
    fn warm_solve_rejects_a_fresh_rate_buffer() {
        let caps = [10.0];
        let mut arena = FlowArena::new(1);
        arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        solver.solve_warm(&caps, &mut arena, &mut Vec::new());
        solver.solve_warm(&caps, &mut arena, &mut Vec::new());
    }

    // ------------------------------------------------- divergence guards

    /// Solver `a` logs `arena`; then a flow crossing `unseen` joins and a
    /// second warm solver closes the dirty window over it, so `a`'s next
    /// warm solve walks a log that misses the flow with nothing seeded.
    fn warm_solve_after_a_foreign_window_close(caps: &[f64], base: &[&[u32]], unseen: &[u32]) {
        let mut arena = FlowArena::new(caps.len());
        for f in base {
            arena.add(f);
        }
        let (mut a, mut b) = (MaxMinSolver::new(), MaxMinSolver::new());
        let (mut rates_a, mut rates_b) = (Vec::new(), Vec::new());
        a.solve_warm(caps, &mut arena, &mut rates_a);
        arena.add(unseen);
        b.solve_warm(caps, &mut arena, &mut rates_b);
        a.solve_warm(caps, &mut arena, &mut rates_a);
    }

    #[test]
    #[should_panic(expected = "carried bottleneck's user count diverged from the log (was this \
                               solver's log recorded against a different arena?)")]
    fn unseen_flow_on_a_carried_bottleneck_trips_the_round_guard() {
        warm_solve_after_a_foreign_window_close(&[10.0, 10.0], &[&[0], &[1]], &[0]);
    }

    #[test]
    #[should_panic(expected = "freeze counts do not sum to the arena's flows (was this solver's \
                               log recorded against a different arena?)")]
    fn unseen_flow_off_every_bottleneck_trips_the_conservation_check() {
        // Resource 1 bottlenecks no round, so every carried round checks
        // out; only the flow count can tell the log missed a flow.
        warm_solve_after_a_foreign_window_close(&[10.0, 100.0], &[&[0, 1]], &[1]);
    }

    #[test]
    #[should_panic(expected = "different arena")]
    fn one_solver_across_two_arenas_trips_the_round_guard() {
        let caps = [10.0, 10.0];
        let (mut one, mut two) = (FlowArena::new(2), FlowArena::new(2));
        for _ in 0..2 {
            one.add(&[0]);
            two.add(&[1]);
        }
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut one, &mut rates);
        solver.solve_warm(&caps, &mut two, &mut rates);
    }

    #[test]
    fn repeated_probes_keep_candidates_independent() {
        let caps = [9.0, 9.0];
        let mut arena = FlowArena::new(2);
        arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        // Three identical candidates: each must see the same what-if world
        // (4.5 each on link 0), not stack on one another.
        for _ in 0..3 {
            let r = solver.probe(&caps, &arena, &[0]);
            assert!(close(r, 4.5), "{r}");
        }
        let idle = solver.probe(&caps, &arena, &[1]);
        assert!(close(idle, 9.0), "a later probe rates the idle link: {idle}");
    }
}
