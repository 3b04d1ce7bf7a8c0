//! The flow set: [`FlowArena`]'s slots, reverse index and dirty windows.

#[cfg(doc)]
use super::MaxMinSolver;

/// Handle to a flow inside a [`FlowArena`].
///
/// Slots are recycled: a handle is valid from [`FlowArena::add`] until the
/// matching [`FlowArena::remove`], after which the arena may reuse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSlot(pub u32);

/// Reverse-index entry: packed `(slot, k)` where `k` is the position of
/// the resource within the slot's resource list.
#[inline]
pub(super) fn pack(slot: u32, k: u32) -> u64 {
    ((slot as u64) << 32) | k as u64
}

#[inline]
pub(super) fn unpack(e: u64) -> (u32, u32) {
    ((e >> 32) as u32, e as u32)
}

/// CSR-style arena of flows over a dense resource id space.
#[derive(Debug, Default, Clone)]
pub struct FlowArena {
    /// Flat storage of resource ids; each slot owns a fixed-capacity block.
    pub(super) pool: Vec<u32>,
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
    pub(super) rev: Vec<Vec<u64>>,
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
    pub(super) dirty_slots: Vec<u32>,
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
    pub(super) fn clear_dirty(&mut self) {
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
    pub(super) fn resources_unchecked(&self, slot: u32) -> &[u32] {
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
