//! What-if probes: per-resource records read off the log by a
//! prefix-maximum search, folded along a path, and the full-path walk
//! they are checked against.

use super::arena::unpack;
use super::log::{ShareKey, SolveLog};
use super::{grow, FlowArena, MaxMinSolver};

impl SolveLog {
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
    ShareKey::of(slack, users + 1, r).0
}

impl MaxMinSolver {
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
    pub(crate) fn read_record(
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
