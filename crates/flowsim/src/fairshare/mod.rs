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
//! * [`MaxMinSolver`] — progressive filling over an **indexed min-heap**
//!   of per-resource fair shares, written as it goes into the solver's
//!   **persistent log** (`SolveLog`: rounds with stable ids, their
//!   per-resource deltas and frozen slots in append-only pools, a
//!   per-resource event index and a per-slot round index kept *with* the
//!   log). One walk writes that log. [`MaxMinSolver::solve_warm`] runs it
//!   after arena churn and edits the log in place: rounds the churn left
//!   alone are carried over for one key compare each, and only the
//!   perturbed cascade is re-run live. [`MaxMinSolver::solve_logged`],
//!   the cold solve, runs the same walk over an emptied log with every
//!   resource perturbed, so every round is live. All working state (the
//!   heap, per-resource `slack` / `users`, per-round scratch) is retained
//!   between calls; after the first solve at a given problem size, a
//!   solve allocates nothing. The log also serves the batched what-if
//!   probes (see the crate docs for the cold → logged → warm lifecycle
//!   and the cost model).
//! * [`max_min_rates`] — the log-free oracle: progressive filling by a
//!   linear bottleneck scan over a one-shot flow list. It shares no code
//!   with the walk beyond the arena's input checks, and the test suites
//!   bit-compare every solve against it.
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

mod arena;
mod log;
mod probe;
mod walk;

pub use arena::{FlowArena, FlowSlot};
#[cfg(test)]
pub(crate) use probe::reference;
pub(crate) use probe::{fold_rate, Fold, ProbeRecord};
pub use walk::{max_min_rates, MaxMinSolver};

/// Extend `v` to `n` entries of `fill` (no-op when already that long).
fn grow<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    if v.len() < n {
        v.resize(n, fill);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::log::ShareKey;
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

    /// Reference for a probe: add the candidate for real and read its
    /// rate off the [`max_min_rates`] oracle.
    fn full_solve_probe(caps: &[f64], base: &[Vec<u32>], candidate: &[u32]) -> f64 {
        let mut flows = base.to_vec();
        flows.push(candidate.to_vec());
        max_min_rates(caps, &flows)[base.len()]
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
        assert_matches_oracle(&rates, &arena, caps);
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
                assert_matches_oracle(&rates, &arena, &caps);
                let base: Vec<Vec<u32>> = live.iter().map(|(_, f)| f.clone()).collect();
                let shapes = candidate_shapes(&arena, hosts, &extra);
                check_probes(&mut solver, &caps, &arena, &base, &shapes);
            }
        }
    }

    // ------------------------------------------------- warm-started solves

    /// `arena`'s rates by slot from the [`max_min_rates`] oracle, shaped
    /// like a solve's buffer: one entry per slot, vacant slots 0.
    fn oracle_rates(caps: &[f64], arena: &FlowArena) -> Vec<f64> {
        let flows: Vec<Vec<u32>> = arena.iter().map(|(_, res)| res.to_vec()).collect();
        let mut rates = vec![0.0; arena.slot_bound()];
        let want = max_min_rates(&caps[..arena.n_resources()], &flows);
        for ((slot, _), rate) in arena.iter().zip(want) {
            rates[slot.0 as usize] = rate;
        }
        rates
    }

    /// Bit-compare a solver's rate buffer with the oracle's.
    fn assert_matches_oracle(got: &[f64], arena: &FlowArena, caps: &[f64]) {
        let want = oracle_rates(caps, arena);
        assert_eq!(got.len(), want.len());
        for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "slot {slot}: solver {g} vs oracle {w}");
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
        assert_matches_oracle(&rates, &arena, &caps);
        // Single-flow churn chains warm.
        arena.remove(slots[2]);
        slots[2] = arena.add(&[1, 3, 5]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_matches_oracle(&rates, &arena, &caps);
        // Pure removal.
        arena.remove(slots[4]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_matches_oracle(&rates, &arena, &caps);
        // Pure addition into the recycled slot.
        slots[4] = arena.add(&[0, 2, 4]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_matches_oracle(&rates, &arena, &caps);
        // No-op churn (identical flow set): the whole log is carried.
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_matches_oracle(&rates, &arena, &caps);
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
        assert_matches_oracle(&rates, &arena, &caps);
        // Failure: capacity to (nearly) nothing.
        caps[3] = 1e-3;
        arena.touch_resource(3);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_matches_oracle(&rates, &arena, &caps);
        // Recovery mixed with flow churn in the same dirty window.
        caps[3] = 12.0;
        arena.touch_resource(3);
        arena.remove(slots[1]);
        slots[1] = arena.add(&[1, 4]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_matches_oracle(&rates, &arena, &caps);
        // A touch with no actual change still chains exactly.
        arena.touch_resource(0);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_matches_oracle(&rates, &arena, &caps);
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
        assert_matches_oracle(&rates, &arena, &caps);
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
        assert_matches_oracle(&rates, &arena, &caps);
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
        assert_matches_oracle(&rates, &arena, &caps);
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
        assert_matches_oracle(&rates, &arena, &caps);
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
