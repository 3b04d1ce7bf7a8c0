//! The one solve engine — the walk over the log, cold or warm — with its
//! indexed heap, and the log-free [`max_min_rates`] oracle it is checked
//! against.

use super::arena::{pack, unpack};
use super::log::{ShareKey, SolveLog, NONE, POS_CREATED};
use super::{grow, FlowArena, FlowSlot};

/// Panic text shared by the warm walk's divergence guards.
const DIVERGED: &str = "was this solver's log recorded against a different arena?";

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
    /// Remaining capacity per resource, meaningful for the perturbed
    /// resources only (a cold solve perturbs every resource).
    slack: Vec<f64>,
    /// Unfrozen flows per resource, meaningful as `slack` is.
    users: Vec<u32>,
    /// Scratch: resources touched by the current freeze round.
    touched: Vec<u32>,
    /// Scratch: per-resource count of flows frozen this round.
    delta: Vec<u32>,
    /// The persistent freeze-round log: written by every walk, emptied
    /// first by `solve_logged`, read by probes.
    pub(super) log: SolveLog,
    /// Walk scratch: is the resource in the perturbation set — off the
    /// logged trajectory, with its live `(slack, users)` materialised?
    /// All-false between solves (reset through `perturbed_list`).
    perturbed: Vec<bool>,
    /// Walk scratch: the perturbation set's members, in join order.
    perturbed_list: Vec<u32>,
    /// Walk scratch: indexed min-heap over the perturbed resources'
    /// current share keys — exactly one entry per tracked resource with
    /// unfrozen flows, updated in place (no stale entries, O(1) min
    /// read). Empty between solves.
    wheap: Vec<u128>,
    /// Walk scratch: resource → position in `wheap` (`WPOS_NONE` when
    /// absent).
    wpos: Vec<u32>,
    /// Walk scratch: per old position, the head of the round's chain in
    /// `chain` (`NONE` for a round that touches no perturbed resource).
    chain_head: Vec<u32>,
    /// Walk scratch: the deltas carried rounds still owe to perturbed
    /// resources, filled as resources join.
    chain: Vec<Link>,
    /// Walk scratch: the position arrays of the log being walked into;
    /// swapped with the log's at the end of the walk.
    next_keys: Vec<u128>,
    next_levels: Vec<f64>,
    next_ids: Vec<u32>,
    /// Walk scratch: ids of the rounds this walk dropped. Recycled only
    /// once it ends — until then a slot of a dropped round still names it
    /// in `round_of`, and must not alias a live round.
    dropped: Vec<u32>,
    /// Observability: freeze rounds the last solve ran live (every round
    /// of a cold solve; the perturbed rounds of a warm one). Never read
    /// by the solve itself.
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
    pub(super) last_probe_replay_rounds: u64,
    /// Observability: probe records the last probe or batch read.
    pub(super) last_probe_records_built: u64,
}

/// `wpos` sentinel: resource has no entry in the warm heap.
const WPOS_NONE: u32 = u32::MAX;

/// Indexed binary min-heap over [`ShareKey`]-packed `u128`s with a
/// resource → slot position map: the walk's live tracking, in cold and
/// warm solves alike. Every tracked resource has exactly one entry,
/// moved in place when its share changes, so the root is always the
/// true minimum and a carried run reads it in O(1). Its pop sequence is
/// the sequence of minima the [`max_min_rates`] oracle finds by scanning.
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
    /// It is the warm walk ([`MaxMinSolver::solve_warm`]) over a
    /// forgotten log with every resource seeded as perturbed: nothing is
    /// carried, so every round runs live, and the walk writes the log and
    /// both its indexes as it goes. Runs in `O((R + Σ_f path_f) · log R)`
    /// and stays allocation-free once the log buffers are warm.
    pub fn solve_logged(&mut self, capacities: &[f64], arena: &FlowArena, rates: &mut Vec<f64>) {
        let nr = arena.n_resources();
        assert!(capacities.len() >= nr, "capacities shorter than resource space");
        self.log.forget(arena);
        rates.clear();
        rates.resize(arena.slot_bound(), 0.0);
        self.walk(capacities, arena, rates, 0..nr as u32);
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
    /// always picking whichever saturates first (exactly what the
    /// [`max_min_rates`] oracle's scan would pick):
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
    ///   unfrozen flows with the full progressive-filling arithmetic, as a new
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
    /// [`MaxMinSolver::solve_logged`] of the same arena, and to the
    /// [`max_min_rates`] oracle. With no valid log to start from, this
    /// *is* a cold `solve_logged`. `capacities` must
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
        self.walk(capacities, arena, rates, arena.dirty_resources().iter().copied());
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

    /// The one solve engine: walk `self.log` — the freeze rounds of the
    /// previous solve, or none for a cold solve — in place, interleaving
    /// live rounds for the perturbed cascade.
    ///
    /// `seeds` must cover every resource whose `(slack, users)` state may
    /// deviate from the log's trajectory (a warm solve passes the arena's
    /// dirty window, a cold one every resource); over-approximation is
    /// always safe. `rates` must hold the logged level of every flow the
    /// log freezes, and `round_of` must name no round for any other slot.
    /// Leaves the log current for `arena`; a warm caller closes the dirty
    /// window.
    fn walk(
        &mut self,
        capacities: &[f64],
        arena: &FlowArena,
        rates: &mut [f64],
        seeds: impl IntoIterator<Item = u32>,
    ) {
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
        for r in seeds {
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
            wheap::insert(&mut self.wheap, &mut self.wpos, ShareKey::of(slack, users, r).0);
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
    /// pops, with the walk's cursor at old position `cur`, and freezes
    /// every unfrozen flow crossing it at its share. Per-resource counts
    /// are accumulated first and applied once (`slack -= count × level`),
    /// so the result does not depend on the reverse index's order. The
    /// only code that freezes a round, cold or warm.
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
        self.next_keys.push(ShareKey::new(level, b as u32).0);
        self.next_levels.push(level);
        self.next_ids.push(id);
    }

    /// Refresh perturbed resource `r2`'s entry in the warm heap after its
    /// `(slack, users)` changed: update in place, insert on first touch,
    /// drop once its last unfrozen flow froze.
    #[inline]
    fn wheap_upsert(&mut self, r2: usize) {
        if self.users[r2] > 0 {
            let key = ShareKey::of(self.slack[r2], self.users[r2], r2 as u32).0;
            if self.wpos[r2] == WPOS_NONE {
                wheap::insert(&mut self.wheap, &mut self.wpos, key);
            } else {
                wheap::update(&mut self.wheap, &mut self.wpos, key);
            }
        } else if self.wpos[r2] != WPOS_NONE {
            wheap::remove(&mut self.wheap, &mut self.wpos, r2);
        }
    }

    /// Would [`MaxMinSolver::solve_warm`] on `arena` fall back to a cold
    /// solve? True with no valid log to replay (or one recorded against a
    /// larger resource space). Observability only — the answer never
    /// changes what the solve computes, just how much of it runs live.
    pub fn will_solve_cold(&self, arena: &FlowArena) -> bool {
        !self.log.valid || self.log.n_resources as usize > arena.n_resources()
    }

    /// Freeze rounds the last solve ran live (all of them for a cold
    /// solve; only the perturbed ones for a warm solve). Diagnostics only.
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
}

/// Compute max-min fair rates from a one-shot flow list.
///
/// The oracle the test suites compare the solver against, not a
/// production entry point: plain progressive filling with no log and no
/// heap. Each round scans the resources that still carry unfrozen flows
/// for the minimum `(share bits, resource id)`, freezes every unfrozen
/// flow crossing it at that share, and applies `slack -= count × level`
/// once per resource — the arithmetic [`MaxMinSolver`]'s walk must
/// reproduce bit for bit. `O(rounds · R + Σ_f path_f)`. Returns one rate
/// per flow, in input order. Anything that mutates a flow set holds an
/// arena and a solver instead.
///
/// * `capacities[r]` — capacity of resource `r` (bits/s, must be > 0).
/// * `flows[f]` — indices of the resources flow `f` traverses (each must
///   be non-empty: a flow that crosses nothing has no bottleneck).
///
/// Input is validated by loading it into a [`FlowArena`], which panics
/// on an empty path or an id `≥ capacities.len()` as the solver's does;
/// the arena plays no part in the filling.
pub fn max_min_rates(capacities: &[f64], flows: &[Vec<u32>]) -> Vec<f64> {
    let mut arena = FlowArena::new(capacities.len());
    for f in flows {
        arena.add(f);
    }
    let nr = capacities.len();
    // The flows crossing each resource, in input order.
    let mut crossing = vec![Vec::new(); nr];
    for (f, path) in flows.iter().enumerate() {
        path.iter().for_each(|&r| crossing[r as usize].push(f));
    }
    let mut slack = capacities.to_vec();
    let mut users: Vec<u32> = crossing.iter().map(|c| c.len() as u32).collect();
    let mut rates = vec![0.0; flows.len()];
    let mut frozen = vec![false; flows.len()];
    let mut delta = vec![0u32; nr];
    // The resources that still carry an unfrozen flow.
    let mut busy: Vec<usize> = (0..nr).filter(|&r| users[r] > 0).collect();
    while let Some((bits, b)) =
        busy.iter().map(|&r| ((slack[r] / users[r] as f64).max(0.0).to_bits(), r)).min()
    {
        let level = f64::from_bits(bits);
        for &f in &crossing[b] {
            if !std::mem::replace(&mut frozen[f], true) {
                rates[f] = level;
                flows[f].iter().for_each(|&r| delta[r as usize] += 1);
            }
        }
        for &r in &busy {
            let d = std::mem::take(&mut delta[r]);
            if d > 0 {
                users[r] -= d;
                slack[r] -= d as f64 * level;
            }
        }
        busy.retain(|&r| users[r] > 0);
    }
    rates
}
