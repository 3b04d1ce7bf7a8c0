//! The solver's persistent freeze-round log: share keys, the rounds and
//! their per-resource and per-slot indexes, compaction, and the log's
//! invariant check.

use super::arena::{pack, unpack};
#[cfg(doc)]
use super::max_min_rates;
use super::{FlowArena, FlowSlot, MaxMinSolver, ProbeRecord};

/// Heap and log key: per-resource fair share packed into one `u128` —
/// `share_bits(64) | resource(32)`, ordered ascending.
///
/// Shares are finite and non-negative, so their raw IEEE-754 bit patterns
/// order exactly like the values; packing them above the resource id
/// yields `(share, resource)` ordering with a single integer compare, and
/// ties freeze the lowest-numbered resource first — the order the
/// [`max_min_rates`] oracle's linear scan picks by. The indexed heap
/// holds one entry per resource, so a key needs no version stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct ShareKey(pub(super) u128);

impl ShareKey {
    #[inline]
    pub(super) fn new(share: f64, res: u32) -> ShareKey {
        debug_assert!(share >= 0.0 && share.is_finite());
        ShareKey(((share.to_bits() as u128) << 32) | res as u128)
    }
    /// The key of `users` flows splitting `slack` on resource `res`.
    #[inline]
    pub(super) fn of(slack: f64, users: u32, res: u32) -> ShareKey {
        ShareKey::new((slack / users as f64).max(0.0), res)
    }
    #[inline]
    pub(super) fn share(self) -> f64 {
        f64::from_bits((self.0 >> 32) as u64)
    }
    #[inline]
    pub(super) fn res(self) -> u32 {
        self.0 as u32
    }
}

/// `round_of` / chain sentinel: no round, end of chain.
pub(super) const NONE: u32 = u32::MAX;

/// `RoundLog::pos` mid-walk: the round was dropped by this walk.
const POS_DROPPED: u32 = u32::MAX;

/// `RoundLog::pos` mid-walk: the round was created by this walk.
pub(super) const POS_CREATED: u32 = u32::MAX - 1;

/// Pool ranges of one freeze round, by round id.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Span {
    t0: u32,
    t_len: u32,
    f0: u32,
    f_len: u32,
}

impl Span {
    /// The round's range in [`RoundLog::touched`].
    pub(super) fn touched(self) -> std::ops::Range<usize> {
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
pub(super) struct RoundLog {
    /// Per position: the bottleneck [`ShareKey`] at pop time.
    /// **Not** monotone: mathematically freeze levels never decrease, but a
    /// resource tied with the popped bottleneck can come out of the round's
    /// `(slack − d·level) / (users − d)` an ulp *below* the level it just
    /// tied at, so the next key may dip under its predecessor. A reader
    /// looking for the first key at or above some key may not bisect
    /// `keys` itself; it may bisect their prefix maxima, which are
    /// monotone, where those decide (see `SolveLog::read_record`).
    pub(super) keys: Vec<u128>,
    /// Per position: the freeze level (the key's share, clamped to ≥ 0).
    pub(super) levels: Vec<f64>,
    /// Per position: the round's id.
    pub(super) ids: Vec<u32>,
    /// Per id: the round's position (`POS_*` sentinels mid-walk only;
    /// stale for free ids).
    pub(super) pos: Vec<u32>,
    /// Per id: the round's pool ranges.
    pub(super) spans: Vec<Span>,
    /// Ids of no round, reusable.
    pub(super) free_ids: Vec<u32>,
    /// Packed `(resource, delta)` entries, one range per round.
    pub(super) touched: Vec<u64>,
    /// Frozen arena slots, one range per round. A round's two ranges are
    /// appended together, so both pools hold the rounds in one order.
    pub(super) freeze: Vec<u32>,
    /// `touched` entries owned by a round still in the log.
    touched_live: usize,
    /// `freeze` entries owned by a round still in the log — the number of
    /// flows the log freezes.
    pub(super) frozen: usize,
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
    pub(super) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The round at position `k`: key, level, packed `(resource, delta)`
    /// entries and frozen slots.
    pub(super) fn round(&self, k: usize) -> (u128, f64, &[u64], &[u32]) {
        let id = self.ids[k];
        (self.keys[k], self.levels[k], self.touched_of(id), self.freeze_of(id))
    }

    fn touched_of(&self, id: u32) -> &[u64] {
        &self.touched[self.spans[id as usize].touched()]
    }

    fn freeze_of(&self, id: u32) -> &[u32] {
        &self.freeze[self.spans[id as usize].freeze()]
    }

    /// An id for a new round (position and ranges still to be set).
    pub(super) fn new_id(&mut self) -> u32 {
        if let Some(id) = self.free_ids.pop() {
            self.recycled_ids += 1;
            return id;
        }
        self.pos.push(NONE);
        self.spans.push(Span::default());
        self.pos.len() as u32 - 1
    }

    /// Give round `id` the pools' tails from `t0` / `f0` on.
    pub(super) fn seal(&mut self, id: u32, t0: usize, f0: usize) {
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
    pub(super) fn release(&mut self, id: u32) {
        let span = self.spans[id as usize];
        self.touched_live -= span.t_len as usize;
        self.frozen -= span.f_len as usize;
        self.pos[id as usize] = POS_DROPPED;
    }

    /// Squeeze the garbage out of both pools, in place, once it outweighs
    /// the live entries. Allocation-free once `order` is warm.
    pub(super) fn compact_if_sparse(&mut self) {
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
pub(super) struct SolveLog {
    pub(super) rounds: RoundLog,
    pub(super) events: Vec<Vec<u64>>,
    pub(super) ev_users: Vec<u32>,
    pub(super) round_of: Vec<u32>,
    /// Per resource: the probe memo, valid while its `epoch` is the
    /// log's. Grown to the resource space by the first probe that needs
    /// it.
    pub(super) records: Vec<ProbeRecord>,
    /// `prefix[p]` = `max(rounds.keys[..=p])`: monotone, unlike the keys.
    /// Rebuilt by the first probe of an epoch.
    pub(super) prefix: Vec<u128>,
    /// The `epoch` `prefix` was built at.
    pub(super) prefix_epoch: u64,
    /// Bumped by [`SolveLog::stamp`], i.e. by every solve: the one thing
    /// that decides whether a record still describes the log.
    pub(super) epoch: u64,
    /// Arena generation the log was recorded against.
    generation: u64,
    /// Resource-space size at record time.
    pub(super) n_resources: u32,
    /// Arena slot bound at record time — the length the caller's rate
    /// buffer had when this log's solve filled it.
    pub(super) slot_bound: u32,
    /// False until the first solve.
    pub(super) valid: bool,
}

impl SolveLog {
    /// Forget every round, keeping the buffers: the log a cold solve
    /// walks. Event lists keep their capacity; `round_of` names no round
    /// for any of `arena`'s slots.
    pub(super) fn forget(&mut self, arena: &FlowArena) {
        self.rounds.clear();
        self.events.iter_mut().for_each(Vec::clear);
        self.round_of.clear();
        self.round_of.resize(arena.slot_bound(), NONE);
    }

    /// Declare the log current for `arena` — the last thing every solve,
    /// cold or warm, does to it. Whatever the solve absorbed (flow churn,
    /// announced capacity changes, a grown resource space), the probe
    /// records read from the log as it was are stale now: the new epoch
    /// drops them all at once, and each is re-read when a probe next
    /// names its resource.
    pub(super) fn stamp(&mut self, arena: &FlowArena) {
        self.generation = arena.generation();
        self.n_resources = arena.n_resources() as u32;
        self.slot_bound = arena.slot_bound() as u32;
        self.valid = true;
        self.epoch += 1;
    }
}

impl MaxMinSolver {
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
            assert_eq!(key, ShareKey::new(level, b).0, "round {k}: key is not (level, res)");
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
}
