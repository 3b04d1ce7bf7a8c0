//! Property-based tests over the core data structures and invariants.

use std::sync::Arc;

use choreo_repro::flowsim::{
    hop_resource, max_min_rates, FlowArena, FlowKey, FlowSim, FlowSlot, FlowStatus, MaxMinSolver,
};
use choreo_repro::lp::{solve_lp, Lp, LpOutcome, Relation};
use choreo_repro::measure::{NetworkSnapshot, RateModel};
use choreo_repro::place::greedy::GreedyPlacer;
use choreo_repro::place::problem::{validate, Machines, NetworkLoad};
use choreo_repro::profile::{
    switch_link_groups, AppPattern, AppProfile, CorrelatedBatchConfig, FlashCrowdConfig,
    NetworkEventKind, NetworkEventStream, NetworkEventStreamConfig, SwitchFailureConfig,
    TenantEventKind, TrafficMatrix, WorkloadStream, WorkloadStreamConfig,
};
use choreo_repro::topology::{
    dumbbell, two_rack, LinkSpec, MultiRootedTreeSpec, RouteTable, Topology, GBIT, MICROS, SECS,
};
use choreo_repro::wire::{ServiceRequest, ServiceResponse};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------- max-min

proptest! {
    #[test]
    fn maxmin_never_exceeds_capacity_and_is_work_conserving(
        caps in prop::collection::vec(1.0f64..1000.0, 1..6),
        flow_paths in prop::collection::vec(prop::collection::vec(0usize..6, 1..4), 1..12),
    ) {
        let nr = caps.len();
        let flows: Vec<Vec<u32>> = flow_paths
            .iter()
            .map(|p| {
                let mut f: Vec<u32> = p.iter().map(|r| (r % nr) as u32).collect();
                f.sort_unstable();
                f.dedup(); // a flow crosses each resource at most once
                f
            })
            .collect();
        let rates = max_min_rates(&caps, &flows);
        // 1. No resource over capacity.
        for (r, cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.contains(&(r as u32)))
                .map(|(_, rate)| *rate)
                .sum();
            prop_assert!(used <= cap + 1e-6, "resource {r}: {used} > {cap}");
        }
        // 2. Every flow gets a strictly positive rate.
        for (i, rate) in rates.iter().enumerate() {
            prop_assert!(*rate > 0.0, "flow {i} starved");
        }
        // 3. Work conservation: every flow crosses at least one saturated
        //    resource (otherwise its rate could grow -> not max-min).
        for (f, rate) in flows.iter().zip(&rates) {
            let bottlenecked = f.iter().any(|&r| {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.contains(&r))
                    .map(|(_, x)| *x)
                    .sum();
                used >= caps[r as usize] - 1e-6
            });
            prop_assert!(bottlenecked, "flow with rate {rate} has slack everywhere");
        }
    }
}

/// Metamorphic relations on the log-free oracle, checked bit for bit:
/// scaling every capacity by 2^k scales every rate by exactly 2^k (IEEE
/// multiplication by a power of two is exact, and the filling only
/// divides by counts, multiplies by counts and subtracts), reversing the
/// flow order reverses the rates, and relabelling the resources changes
/// nothing. None needs a reference model.
#[test]
fn maxmin_oracle_keeps_its_metamorphic_relations() {
    for seed in 0..5_000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let nr = rng.gen_range(1..=7usize);
        let caps: Vec<f64> = (0..nr).map(|_| 10f64.powf(rng.gen_range(0.0..10.0))).collect();
        let flows: Vec<Vec<u32>> = (0..rng.gen_range(1..=15))
            .map(|_| {
                let mut f: Vec<u32> =
                    (0..rng.gen_range(1..=3)).map(|_| rng.gen_range(0..nr as u32)).collect();
                f.sort_unstable();
                f.dedup();
                f
            })
            .collect();
        let rates = max_min_rates(&caps, &flows);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();

        for k in [-2, 1, 10] {
            let scale = 2f64.powi(k);
            let scaled: Vec<f64> = caps.iter().map(|c| c * scale).collect();
            let want: Vec<f64> = rates.iter().map(|r| r * scale).collect();
            assert_eq!(
                bits(&max_min_rates(&scaled, &flows)),
                bits(&want),
                "seed {seed}: capacities x 2^{k}"
            );
        }

        let reversed: Vec<Vec<u32>> = flows.iter().rev().cloned().collect();
        let mut got = max_min_rates(&caps, &reversed);
        got.reverse();
        assert_eq!(bits(&got), bits(&rates), "seed {seed}: flow order reversed");

        // Resource r becomes perm[r].
        let mut perm: Vec<u32> = (0..nr as u32).collect();
        for i in (1..nr).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let mut relabelled_caps = vec![0.0; nr];
        for (r, &c) in caps.iter().enumerate() {
            relabelled_caps[perm[r] as usize] = c;
        }
        let relabelled: Vec<Vec<u32>> =
            flows.iter().map(|f| f.iter().map(|&r| perm[r as usize]).collect()).collect();
        assert_eq!(
            bits(&max_min_rates(&relabelled_caps, &relabelled)),
            bits(&rates),
            "seed {seed}: resources relabelled by {perm:?}"
        );
    }
}

/// `arena`'s rates by slot from the log-free oracle, [`max_min_rates`]
/// (a linear bottleneck scan, no heap and no log), shaped like a solve's
/// buffer: one entry per slot, vacant slots 0. Every solver-vs-cold rate
/// comparison below goes through it, so the solver is never checked
/// against its own walk.
fn oracle_rates(caps: &[f64], arena: &FlowArena) -> Vec<f64> {
    let flows: Vec<Vec<u32>> = arena.iter().map(|(_, res)| res.to_vec()).collect();
    let mut rates = vec![0.0; arena.slot_bound()];
    let want = max_min_rates(&caps[..arena.n_resources()], &flows);
    for ((slot, _), rate) in arena.iter().zip(want) {
        rates[slot.0 as usize] = rate;
    }
    rates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(96)))]
    #[test]
    fn incremental_arena_bitmatches_reference_solve(
        caps in prop::collection::vec(1.0f64..1000.0, 1..7),
        ops in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(0usize..7, 1..5)),
            1..48,
        ),
    ) {
        let nr = caps.len();
        let mut arena = FlowArena::new(nr);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        // Live flows: (slot, resource list), in insertion order.
        let mut live: Vec<(FlowSlot, Vec<u32>)> = Vec::new();
        for (opno, (remove, path)) in ops.iter().enumerate() {
            if *remove && !live.is_empty() {
                let victim = path[0] % live.len();
                let (slot, _) = live.swap_remove(victim);
                arena.remove(slot);
            } else {
                let mut f: Vec<u32> = path.iter().map(|r| (r % nr) as u32).collect();
                f.sort_unstable();
                f.dedup();
                let slot = arena.add(&f);
                live.push((slot, f));
            }
            arena.check_invariants();
            solver.solve_logged(&caps, &arena, &mut rates);
            let reference = oracle_rates(&caps, &arena);
            prop_assert_eq!(rates.len(), reference.len());
            for (slot, (got, want)) in rates.iter().zip(&reference).enumerate() {
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "op {opno}: slot {slot} got {got}, reference {want}"
                );
            }
            // Capacity and max-min sanity on the incremental result.
            for (r, cap) in caps.iter().enumerate() {
                let used: f64 = live
                    .iter()
                    .filter(|(_, f)| f.contains(&(r as u32)))
                    .map(|(s, _)| rates[s.0 as usize])
                    .sum();
                prop_assert!(used <= cap + 1e-6, "resource {r} over capacity: {used}");
            }
            for (s, f) in &live {
                prop_assert!(rates[s.0 as usize] > 0.0, "flow starved");
                let bottlenecked = f.iter().any(|&r| {
                    let used: f64 = live
                        .iter()
                        .filter(|(_, g)| g.contains(&r))
                        .map(|(s2, _)| rates[s2.0 as usize])
                        .sum();
                    used >= caps[r as usize] - 1e-6
                });
                prop_assert!(bottlenecked, "flow could still be raised: not max-min");
            }
        }
    }
}

// ------------------------------------------------- warm-started solves

/// Reference for a what-if probe: add `cand` to a copy of `arena` for
/// real and read its rate off the oracle.
fn full_solve_probe(caps: &[f64], arena: &FlowArena, cand: &[u32]) -> f64 {
    let mut ref_arena = arena.clone();
    let slot = ref_arena.add(cand);
    oracle_rates(caps, &ref_arena)[slot.0 as usize]
}

/// Rate `cands` one after another over `solver`'s current log, sharing
/// its per-resource records, and bit-compare every answer with
/// [`full_solve_probe`]; then once more, which must be served from the
/// records the first pass left (nothing read, nothing walked) and agree.
fn check_probes_bitmatch(
    solver: &mut MaxMinSolver,
    caps: &[f64],
    arena: &FlowArena,
    cands: &[Vec<u32>],
    what: &str,
) {
    let out: Vec<f64> = cands.iter().map(|c| solver.probe(caps, arena, c)).collect();
    for (c, got) in cands.iter().zip(&out) {
        let want = full_solve_probe(caps, arena, c);
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: probe {c:?}: {got} vs {want}");
    }
    let (mut built, mut walked) = (0, 0);
    for (c, got) in cands.iter().zip(&out) {
        let again = solver.probe(caps, arena, c);
        built += solver.last_probe_records_built();
        walked += solver.last_probe_replay_rounds();
        assert_eq!(again.to_bits(), got.to_bits(), "{what}: {c:?}: a record changed");
    }
    assert_eq!(built, 0, "{what}: second pass read a record");
    assert_eq!(walked, 0, "{what}: second pass walked the log");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(96)))]
    #[test]
    fn chained_warm_solves_bitmatch_cold_solves_under_churn(
        caps in prop::collection::vec(1.0f64..1000.0, 2..9),
        ops in prop::collection::vec(
            (0u8..6, prop::collection::vec(0usize..9, 1..5)),
            1..40,
        ),
    ) {
        // One warm-chaining solver rides a mutating arena through adds,
        // removes, replace-style churn (remove-then-re-add recycles the
        // slot), resource-space growth, capacity retuning (the network
        // moved under the flows) and interleaved probes; after every
        // step its output must bit-match the log-free oracle on the same
        // arena. Start with part of the resource space hidden so
        // grow_resources is exercised mid-chain.
        let mut caps = caps;
        let mut nr = caps.len().div_ceil(2);
        let mut arena = FlowArena::new(nr);
        let mut warm = MaxMinSolver::new();
        let mut rates = Vec::new();
        let mut live: Vec<(FlowSlot, Vec<u32>)> = Vec::new();
        let norm = |path: &Vec<usize>, nr: usize| -> Vec<u32> {
            let mut f: Vec<u32> = path.iter().map(|r| (r % nr) as u32).collect();
            f.sort_unstable();
            f.dedup();
            f
        };
        for (opno, (op, path)) in ops.iter().enumerate() {
            match op {
                // Remove (when possible), else add.
                0 if !live.is_empty() => {
                    let victim = path[0] % live.len();
                    let (slot, _) = live.swap_remove(victim);
                    arena.remove(slot);
                }
                // Replace: remove a victim and immediately re-add a
                // different path — the add recycles the vacated slot.
                1 if !live.is_empty() => {
                    let victim = path[0] % live.len();
                    let (slot, _) = live.swap_remove(victim);
                    arena.remove(slot);
                    let f = norm(path, nr);
                    let slot2 = arena.add(&f);
                    prop_assert_eq!(slot2, slot, "recycled slot expected");
                    live.push((slot2, f));
                }
                // Grow the resource id space (no-op once at full size).
                2 => {
                    nr = (nr + 1).min(caps.len());
                    arena.grow_resources(nr);
                }
                // Retune a visible resource's capacity: the dirty
                // capacity window must carry the change into the next
                // warm solve (a missed mark would leave stale rates).
                3 => {
                    let r = path[0] % nr;
                    caps[r] = 1.0 + (path.iter().sum::<usize>() as f64 * 37.0) % 999.0;
                    arena.touch_resource(r as u32);
                }
                // Add a flow.
                _ => {
                    let f = norm(path, nr);
                    let slot = arena.add(&f);
                    live.push((slot, f));
                }
            }
            arena.check_invariants();
            warm.solve_warm(&caps[..nr.max(arena.n_resources())], &mut arena, &mut rates);
            warm.check_log_invariants(&arena);
            let cold_rates = oracle_rates(&caps, &arena);
            prop_assert_eq!(rates.len(), cold_rates.len());
            for (slot, got) in rates.iter().enumerate() {
                prop_assert_eq!(
                    got.to_bits(), cold_rates[slot].to_bits(),
                    "op {opno}: slot {slot} warm {} vs cold {}", got, cold_rates[slot]
                );
            }
            // The warm-maintained log also serves probes — through event
            // lists the warm solve itself just edited: the op's own path,
            // every single resource (each one's whole event list) and the
            // full resource set (all cursors live at once) must bit-match
            // adding the candidate for real.
            let n_res = arena.n_resources() as u32;
            let mut cands = vec![norm(path, nr), (0..n_res).collect()];
            cands.extend((0..n_res).map(|r| vec![r]));
            check_probes_bitmatch(
                &mut warm, &caps[..n_res as usize], &arena, &cands, &format!("op {opno}, warm log"),
            );
        }
    }
}

#[test]
fn one_solver_survives_a_long_warm_chain() {
    // One solver, one persistent log, thousands of dirty windows over a
    // resource space big enough for logs of dozens of rounds: adds,
    // removes, replace-style churn on recycled slots, resource-space
    // growth, capacity retuning, one to four mutations per window, and
    // probes in between. The chain is long enough to cross several pool
    // compactions and to reuse round ids many times over (asserted);
    // after every solve the log's invariants must hold and the rates must
    // bit-match the log-free oracle.
    const OPS: usize = 2400;
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nr = 64;
        let mut caps: Vec<f64> =
            (0..96).map(|_| 1.0 + rng.gen_range(0..999_000) as f64 / 1e3).collect();
        let mut arena = FlowArena::new(nr);
        let mut warm = MaxMinSolver::new();
        let mut rates = Vec::new();
        let mut live: Vec<FlowSlot> = Vec::new();
        let path = |rng: &mut StdRng, nr: usize| -> Vec<u32> {
            let mut f: Vec<u32> =
                (0..1 + rng.gen_range(0..5)).map(|_| rng.gen_range(0..nr) as u32).collect();
            f.sort_unstable();
            f.dedup();
            f
        };
        for opno in 0..OPS {
            for _ in 0..1 + rng.gen_range(0..4) {
                match rng.gen_range(0..10) {
                    0..=2 if live.len() > 40 => {
                        let victim = rng.gen_range(0..live.len());
                        arena.remove(live.swap_remove(victim));
                    }
                    3..=4 if !live.is_empty() => {
                        let victim = rng.gen_range(0..live.len());
                        arena.remove(live[victim]);
                        let slot = arena.add(&path(&mut rng, nr));
                        assert_eq!(slot, live[victim], "recycled slot expected");
                    }
                    5 if nr < caps.len() && rng.gen_range(0..8) == 0 => {
                        nr += 1;
                        arena.grow_resources(nr);
                    }
                    6 => {
                        let r = rng.gen_range(0..nr);
                        caps[r] = 1.0 + rng.gen_range(0..999_000) as f64 / 1e3;
                        arena.touch_resource(r as u32);
                    }
                    _ if live.len() < 160 => live.push(arena.add(&path(&mut rng, nr))),
                    _ => {}
                }
            }
            warm.solve_warm(&caps[..nr], &mut arena, &mut rates);
            warm.check_log_invariants(&arena);
            let cold_rates = oracle_rates(&caps, &arena);
            assert_eq!(rates.len(), cold_rates.len());
            for (slot, (got, want)) in rates.iter().zip(&cold_rates).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "seed {seed} op {opno}: slot {slot} warm {got} vs cold {want}"
                );
            }
            if opno % 16 == 0 {
                let cands =
                    [path(&mut rng, nr), path(&mut rng, nr), vec![rng.gen_range(0..nr) as u32]];
                let what = format!("seed {seed} op {opno}");
                check_probes_bitmatch(&mut warm, &caps[..nr], &arena, &cands, &what);
            }
        }
        let (compactions, recycled_ids) = warm.log_churn();
        assert!(compactions >= 3, "seed {seed}: only {compactions} pool compactions");
        assert!(recycled_ids >= 1000, "seed {seed}: only {recycled_ids} round ids reused");
    }
}

#[test]
fn flowsim_survives_a_long_warm_chain() {
    // The same discipline one level up: a `FlowSim` on a three-pod tree
    // with unique paths (so the test can name every flow's resources)
    // rides starts, stops, link degradations, failures and recoveries,
    // late hoses, several mutations per reallocation and probe batches.
    // After every step every live flow's rate must bit-match a cold solve
    // of the flow set at the simulator's current capacities.
    let topo = Arc::new(
        MultiRootedTreeSpec {
            cores: 1,
            pods: 3,
            aggs_per_pod: 1,
            tors_per_pod: 2,
            hosts_per_tor: 2,
            ..Default::default()
        }
        .build(),
    );
    let routes = Arc::new(RouteTable::new(&topo));
    let hosts = topo.hosts().to_vec();
    let n_links = topo.link_count();
    for seed in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(0xF10 ^ seed);
        let mut sim = FlowSim::new(topo.clone(), routes.clone(), 9);
        let mut n_res = 2 * n_links + hosts.len();
        let mut hoses = Vec::new();
        // Live flows: key plus the resource list the simulator must be using.
        let mut live: Vec<(FlowKey, Vec<u32>)> = Vec::new();
        let mut out = Vec::new();
        for opno in 0..1200u64 {
            for _ in 0..1 + rng.gen_range(0..3) {
                match rng.gen_range(0..10) {
                    0..=2 if live.len() > 12 => {
                        let (key, _) = live.swap_remove(rng.gen_range(0..live.len()));
                        sim.stop_flows_now(&[key]);
                        sim.release_flow(key);
                    }
                    3 => match rng.gen_range(0..3) {
                        0 => sim.degrade_link(
                            rng.gen_range(0..n_links) as u32,
                            0.1 + 0.2 * rng.gen_range(0..4) as f64,
                        ),
                        1 => sim.fail_link(rng.gen_range(0..n_links) as u32),
                        _ => sim.recover_link(rng.gen_range(0..n_links) as u32),
                    },
                    4 if hoses.len() < 4 && rng.gen_range(0..6) == 0 => {
                        hoses.push(sim.add_hose(2.5e8 + 1e6 * rng.gen_range(0..64) as f64));
                        n_res += 1;
                    }
                    5 => {
                        let probes: Vec<_> = (0..3)
                            .map(|_| {
                                (
                                    hosts[rng.gen_range(0..hosts.len())],
                                    hosts[rng.gen_range(0..hosts.len())],
                                    None,
                                )
                            })
                            .collect();
                        sim.probe_rates(&probes, &mut out);
                    }
                    _ if live.len() < 60 => {
                        let (a, b) = (rng.gen_range(0..hosts.len()), rng.gen_range(0..hosts.len()));
                        let hose = (!hoses.is_empty() && a != b && rng.gen_range(0..4) == 0)
                            .then(|| hoses[rng.gen_range(0..hoses.len())]);
                        let mut res: Vec<u32> = if a == b {
                            vec![(2 * n_links + a) as u32]
                        } else {
                            assert_eq!(
                                routes.path_count(hosts[a], hosts[b]),
                                1,
                                "the tree must route uniquely"
                            );
                            routes
                                .path(hosts[a], hosts[b], 0)
                                .hops()
                                .iter()
                                .map(hop_resource)
                                .collect()
                        };
                        res.extend(hose.map(|h| h.0));
                        let key = sim.start_flow_now(hosts[a], hosts[b], None, hose, opno);
                        live.push((key, res));
                    }
                    _ => {}
                }
            }
            sim.run_until(sim.now() + 1000);
            sim.check_invariants();
            let caps: Vec<f64> = (0..n_res as u32).map(|r| sim.capacity(r)).collect();
            let flows: Vec<Vec<u32>> = live.iter().map(|(_, res)| res.clone()).collect();
            let want = max_min_rates(&caps, &flows);
            for ((key, res), want) in live.iter().zip(&want) {
                let got = sim.rate_bps(*key);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "seed {seed} op {opno}: flow over {res:?} got {got}, cold {want}"
                );
            }
        }
        let stats = sim.solve_stats();
        assert!(stats.warm_solves > 200, "the warm route must carry the chain: {stats:?}");
    }
}

// --------------------------------------------------- pod-structured trees

/// The test trees of the `FlowSim`-level properties, from no pod
/// structure to deep: the Fig. 3(a) dumbbell (every host on its own
/// edge, all flows through one shared link), the Fig. 3(b) two-rack
/// cloud (two pods joined by one agg), and the Fig. 5 multi-rooted tree
/// (three pods under two cores, ECMP across them), optionally with the
/// second aggregation tier.
fn pod_structured_tree(kind: u8) -> Topology {
    let edge = LinkSpec::new(GBIT, 5 * MICROS);
    let fabric = LinkSpec::new(10.0 * GBIT, 5 * MICROS);
    match kind % 4 {
        0 => dumbbell(4, edge, LinkSpec::new(GBIT, 20 * MICROS)),
        1 => two_rack(4, edge, fabric),
        k => MultiRootedTreeSpec {
            cores: 2,
            pods: 3,
            aggs_per_pod: 2,
            tors_per_pod: 2,
            hosts_per_tor: 2,
            second_agg_tier: k == 3,
            ..Default::default()
        }
        .build(),
    }
}

// ---------------------------------------------- flow-record recycling

/// FNV-1a fold of one 64-bit word into a running digest.
fn fnv1a(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

proptest! {
    // CI cranks this suite with PROPTEST_CASES (read explicitly, so the
    // override works with real proptest's precedence too: env beats an
    // explicit with_cases only because we ask it to here).
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(16)))]
    #[test]
    fn recycling_trajectory_bitmatches_unbounded_records(
        topo_kind in 0u8..4,
        ops in prop::collection::vec((0u8..4, any::<u16>(), any::<u16>(), 1u64..32), 1..20),
    ) {
        // Two sims replay the same event program: one releases every
        // completed flow's record as soon as it retires (recycling), the
        // other never releases — an append-only record table. FNV-1a
        // digests over every observable (allocated-rate bits after each
        // op, delivered bytes and completion time of every flow when it
        // is harvested) must be identical across the two sims, while the
        // recycling sim's record table must stay at the peak concurrent
        // flow count instead of growing with flow history.
        let topo = Arc::new(pod_structured_tree(topo_kind));
        let routes = Arc::new(RouteTable::new(&topo));
        let hosts = topo.hosts().to_vec();
        let mut recycle = FlowSim::new(topo.clone(), routes.clone(), 42);
        let mut unbounded = FlowSim::new(topo.clone(), routes.clone(), 42);
        // Flows still tracked: (tag, key in recycle, key in unbounded).
        let mut live: Vec<(u64, FlowKey, FlowKey)> = Vec::new();
        let (mut dr, mut du) = (0xcbf29ce484222325u64, 0xcbf29ce484222325u64);
        let mut started = 0usize;
        for (opno, &(op, a, b, n)) in ops.iter().enumerate() {
            let t = (opno as u64 + 1) * 200_000;
            match op {
                // Stop a tracked flow (else fall through to a start).
                2 if !live.is_empty() => {
                    let (_, kr, ku) = live[a as usize % live.len()];
                    recycle.stop_flow_at(kr, recycle.now());
                    unbounded.stop_flow_at(ku, unbounded.now());
                }
                _ => {
                    let src = hosts[a as usize % hosts.len()];
                    let dst = hosts[b as usize % hosts.len()];
                    // op 1 starts an unbounded flow; others are
                    // bounded so they retire mid-run.
                    let bytes = (op != 1).then_some(n * 10_000);
                    let tag = opno as u64;
                    let kr = recycle.start_flow(src, dst, bytes, None, recycle.now(), tag);
                    let ku = unbounded.start_flow(src, dst, bytes, None, unbounded.now(), tag);
                    live.push((tag, kr, ku));
                    started += 1;
                }
            }
            recycle.run_until(t);
            unbounded.run_until(t);
            // Digest the full observable state, then harvest + release
            // retired flows — at the same instant in both sims.
            live.retain(|&(tag, kr, ku)| {
                dr = fnv1a(dr, recycle.rate_bps(kr).to_bits());
                du = fnv1a(du, unbounded.rate_bps(ku).to_bits());
                let done_r = matches!(recycle.status(kr), FlowStatus::Done(_));
                let done_u = matches!(unbounded.status(ku), FlowStatus::Done(_));
                assert_eq!(done_r, done_u, "op {opno}: sims disagree on flow {tag} status");
                if done_r {
                    dr = fnv1a(dr, recycle.delivered_bytes(kr));
                    du = fnv1a(du, unbounded.delivered_bytes(ku));
                    dr = fnv1a(dr, recycle.completion_time(kr).unwrap());
                    du = fnv1a(du, unbounded.completion_time(ku).unwrap());
                    recycle.release_flow(kr);
                }
                !done_r
            });
            prop_assert_eq!(dr, du, "op {}: trajectories diverged", opno);
        }
        // Drain every remaining bounded flow, then harvest the rest.
        let end_r = recycle.run_to_completion();
        let end_u = unbounded.run_to_completion();
        prop_assert_eq!(end_r, end_u, "completion times diverged");
        for &(_, kr, ku) in &live {
            dr = fnv1a(dr, recycle.delivered_bytes(kr));
            du = fnv1a(du, unbounded.delivered_bytes(ku));
        }
        prop_assert_eq!(dr, du, "final digests diverged");
        // The memory claim: the unbounded sim's record table grew
        // with flow history; the recycling sim's stayed at the
        // concurrent population (live + not-yet-released retirees).
        prop_assert!(started > 0);
        prop_assert_eq!(unbounded.flow_records(), started);
        prop_assert!(
            recycle.flow_records() <= 2 * recycle.peak_active_flows().max(1),
            "{} records for peak {} concurrent flows",
            recycle.flow_records(),
            recycle.peak_active_flows()
        );
    }
}

// ------------------------------------------------ slot-indexed columns

/// One flow as the pre-column engine kept it: its byte counter and
/// remaining budget live in the record and every advance touches it.
struct RefFlow {
    key: FlowKey,
    delivered: f64,
    remaining: Option<f64>,
    done_at: Option<u64>,
}

/// Advance `sim` to `t` while integrating `flows` the per-record way:
/// sample each live flow's allocated rate, find the earliest completion
/// among the bounded ones, add `rate * secs / 8.0` to every live record
/// up to that instant (or `t`), retire the records whose budget is
/// spent, repeat. The engine walks the same instants on its own; this
/// is the arithmetic it used to do record by record.
fn advance_with_reference(sim: &mut FlowSim, flows: &mut [RefFlow], t: u64) {
    const DONE_EPS: f64 = 0.5;
    loop {
        let now = sim.now();
        let rates: Vec<f64> = flows
            .iter()
            .map(|f| if f.done_at.is_none() { sim.rate_bps(f.key) } else { 0.0 })
            .collect();
        let mut next_done: Option<f64> = None;
        for (f, &rate) in flows.iter().zip(&rates) {
            let (None, Some(rem)) = (f.done_at, f.remaining) else { continue };
            if rate > 0.0 {
                let dt = rem.max(0.0) * 8.0 / rate * 1e9;
                next_done = Some(next_done.map_or(dt, |b| b.min(dt)));
            } else if rem <= DONE_EPS {
                next_done = Some(0.0);
            }
        }
        let target = next_done.map_or(t, |dt| t.min(now + dt.ceil() as u64));
        let secs = (target - now) as f64 / 1e9;
        for (f, &rate) in flows.iter_mut().zip(&rates) {
            if f.done_at.is_none() && rate > 0.0 && target > now {
                let bytes = rate * secs / 8.0;
                f.delivered += bytes;
                if let Some(rem) = &mut f.remaining {
                    *rem -= bytes;
                }
            }
        }
        sim.run_until(target);
        sim.check_invariants();
        for f in flows.iter_mut() {
            if f.done_at.is_none() && f.remaining.is_some_and(|rem| rem <= DONE_EPS) {
                f.done_at = Some(target);
            }
        }
        if target == t {
            return;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(32)))]
    #[test]
    fn slot_columns_match_per_record_reference_under_recycling(
        topo_kind in 0u8..4,
        ops in prop::collection::vec((0u8..5, any::<u16>(), any::<u16>(), 1u64..40), 1..30),
    ) {
        // Immediate starts (bounded and unbounded), immediate stops and
        // record releases at step boundaries, bounded completions in
        // between: after every step each tracked flow — live or retired —
        // must report the bytes and the completion time a per-record
        // integrator arrives at, and the engine's column invariants must
        // hold after every advance.
        let topo = Arc::new(pod_structured_tree(topo_kind));
        let routes = Arc::new(RouteTable::new(&topo));
        let hosts = topo.hosts().to_vec();
        let mut sim = FlowSim::new(topo.clone(), routes, 42);
        let mut flows: Vec<RefFlow> = Vec::new();
        for (opno, &(op, a, b, n)) in ops.iter().enumerate() {
            let live: Vec<usize> =
                (0..flows.len()).filter(|&i| flows[i].done_at.is_none()).collect();
            match op {
                // Stop a live flow on the spot.
                3 if !live.is_empty() => {
                    let f = &mut flows[live[a as usize % live.len()]];
                    sim.stop_flows_now(&[f.key]);
                    f.done_at = Some(sim.now());
                }
                // Harvest done: release every retired record for reuse.
                4 => {
                    let retired: Vec<FlowKey> =
                        flows.iter().filter(|f| f.done_at.is_some()).map(|f| f.key).collect();
                    sim.release_flows(&retired);
                    flows.retain(|f| f.done_at.is_none());
                }
                // Start a flow now: odd ops bounded, even unbounded.
                _ => {
                    let src = hosts[a as usize % hosts.len()];
                    let dst = hosts[b as usize % hosts.len()];
                    let bytes = (op % 2 == 1).then_some(n * 20_000);
                    let key = sim.start_flow_now(src, dst, bytes, None, opno as u64);
                    let remaining = bytes.map(|b| b as f64);
                    flows.push(RefFlow { key, delivered: 0.0, remaining, done_at: None });
                }
            }
            sim.check_invariants();
            advance_with_reference(&mut sim, &mut flows, (opno as u64 + 1) * 300_000);
            for f in &flows {
                prop_assert_eq!(sim.delivered_bytes(f.key), f.delivered as u64, "op {}", opno);
                prop_assert_eq!(sim.completion_time(f.key), f.done_at, "op {}", opno);
                if f.done_at.is_some() {
                    prop_assert_eq!(sim.rate_bps(f.key), 0.0, "retired flows read no rate");
                }
            }
        }
    }
}

// --------------------------------------------------- when a solve runs

/// Apply mutation `kind` (parametrised by `a`, `b`, `n`) to `sim`,
/// returning the key of a flow it created.
fn mutate(
    sim: &mut FlowSim,
    keys: &[FlowKey],
    kind: u8,
    a: u16,
    b: u16,
    n: u64,
) -> Option<FlowKey> {
    let hosts = sim.topology().hosts().to_vec();
    let links = sim.topology().link_count() as u32;
    let (src, dst) = (hosts[a as usize % hosts.len()], hosts[b as usize % hosts.len()]);
    let link = b as u32 % links;
    match kind {
        0 => return Some(sim.start_flow_now(src, dst, None, None, n)),
        1 => return Some(sim.start_flow_now(src, dst, Some(n * 20_000), None, n)),
        2 => {
            let bytes = (a % 2 == 1).then_some(n * 20_000);
            return Some(sim.start_flow(src, dst, bytes, None, sim.now() + n * 20_000, n));
        }
        3 if !keys.is_empty() => sim.stop_flows_now(&[keys[a as usize % keys.len()]]),
        4 => sim.degrade_link(link, f64::from(a % 9 + 1) / 10.0),
        5 => sim.fail_link(link),
        _ => sim.recover_link(link),
    }
    None
}

/// Read a live flow's rate, which solves any pending reallocation on the
/// spot.
fn solve_now(sim: &mut FlowSim, keys: &[FlowKey]) {
    if let Some(&k) = keys.iter().find(|&&k| sim.status(k) == FlowStatus::Active) {
        sim.rate_bps(k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(32)))]
    #[test]
    fn solve_timing_never_changes_a_trajectory(
        topo_kind in 0u8..4,
        steps in prop::collection::vec(
            prop::collection::vec((0u8..7, 0u8..4, any::<u16>(), any::<u16>(), 1u64..40), 1..4),
            1..25,
        ),
    ) {
        // Two simulators replay one program of flow starts (immediate and
        // scheduled, with and without byte budgets), immediate stops,
        // link degradations, failures and recoveries, each followed by
        // same-instant and advancing `run_until`s. `lazy` solves where
        // the engine reads a rate; `eager` also reads a live flow's rate
        // after every call, so it solves at once whenever anything
        // changed — the schedule of an engine that solved on every
        // advance. After every step, every flow's rate, bytes and
        // completion time and the clock must agree to the bit.
        let topo = Arc::new(pod_structured_tree(topo_kind));
        let routes = Arc::new(RouteTable::new(&topo));
        let mut lazy = FlowSim::new(topo.clone(), routes.clone(), 42);
        let mut eager = FlowSim::new(topo.clone(), routes.clone(), 42);
        let mut keys: Vec<FlowKey> = Vec::new();
        for (stepno, step) in steps.iter().enumerate() {
            for &(kind, adv, a, b, n) in step {
                let made = mutate(&mut lazy, &keys, kind, a, b, n);
                prop_assert_eq!(made, mutate(&mut eager, &keys, kind, a, b, n));
                keys.extend(made);
                solve_now(&mut eager, &keys);
                let later = lazy.now() + n * 50_000;
                let targets: &[u64] = match adv {
                    0 => &[lazy.now()],
                    1 => &[lazy.now(); 3],
                    2 => &[later],
                    _ => &[lazy.now(), later],
                };
                for &t in targets {
                    lazy.run_until(t);
                    eager.run_until(t);
                    solve_now(&mut eager, &keys);
                }
            }
            prop_assert_eq!(lazy.now(), eager.now(), "step {}", stepno);
            for &k in &keys {
                prop_assert_eq!(
                    lazy.rate_bps(k).to_bits(),
                    eager.rate_bps(k).to_bits(),
                    "step {}: rate of {:?}",
                    stepno,
                    k
                );
                prop_assert_eq!(lazy.delivered_bytes(k), eager.delivered_bytes(k), "step {}", stepno);
                prop_assert_eq!(lazy.completion_time(k), eager.completion_time(k), "step {}", stepno);
            }
            if stepno % 3 == 2 {
                lazy.check_rates_against_cold();
                eager.check_rates_against_cold();
            }
        }
    }
}

// ------------------------------------------------- batched what-if probes

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(96)))]
    #[test]
    fn batched_probes_bitmatch_per_candidate_solves_under_churn(
        caps in prop::collection::vec(1.0f64..1000.0, 1..7),
        ops in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(0usize..7, 1..5)),
            1..32,
        ),
        candidate_paths in prop::collection::vec(
            prop::collection::vec(0usize..7, 1..5),
            1..12,
        ),
    ) {
        let nr = caps.len();
        let norm = |path: &Vec<usize>| -> Vec<u32> {
            let mut f: Vec<u32> = path.iter().map(|r| (r % nr) as u32).collect();
            f.sort_unstable();
            f.dedup();
            f
        };
        // Build a churned arena (exercising slot/block recycling) so the
        // batch is evaluated against a non-trivial internal layout.
        let mut arena = FlowArena::new(nr);
        let mut live: Vec<(FlowSlot, Vec<u32>)> = Vec::new();
        for (remove, path) in &ops {
            if *remove && !live.is_empty() {
                let victim = path[0] % live.len();
                let (slot, _) = live.swap_remove(victim);
                arena.remove(slot);
            } else {
                let f = norm(path);
                let slot = arena.add(&f);
                live.push((slot, f));
            }
        }
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        let out: Vec<f64> =
            candidate_paths.iter().map(|c| solver.probe(&caps, &arena, &norm(c))).collect();
        solver.check_log_invariants(&arena);
        // Reference: each candidate joins the flow set for real.
        for (c, got) in candidate_paths.iter().zip(&out) {
            let want = full_solve_probe(&caps, &arena, &norm(c));
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "candidate {:?}: batched {} vs from-scratch {}", c, got, want
            );
        }
        // The batch left the arena untouched: the base solution still
        // bit-matches the oracle on the same flow set.
        let check = oracle_rates(&caps, &arena);
        for (slot, (got, want)) in rates.iter().zip(&check).enumerate() {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "slot {}", slot);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(64)))]
    #[test]
    fn overlapping_probes_bitmatch_per_candidate_solves_under_warm_churn(
        caps in prop::collection::vec(1.0f64..1000.0, 4..12),
        hosts in 2usize..5,
        ops in prop::collection::vec(
            (0u8..8, prop::collection::vec(0usize..12, 1..5), 1.0f64..1000.0),
            1..24,
        ),
    ) {
        // The scheduler's batch on a small scale: every ordered pair of a
        // "host" set, host `i` owning access resources `2i` (up) and
        // `2i + 1` (down), all pairs crossing the last resource as their
        // fabric when it is nobody's access resource — a dozen candidates
        // over a handful of distinct resources, so most of a batch is
        // served from records its first few candidates read. One
        // warm-chaining solver rides adds, removes, capacity retuning and
        // resource-space growth; after every warm solve (a fresh record
        // epoch) the batch, every resource alone, the idle resources and
        // the step's own path are rated twice and compared with adding
        // each candidate for real.
        let mut caps = caps;
        let mut arena = FlowArena::new(caps.len());
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        let mut live: Vec<FlowSlot> = Vec::new();
        for (opno, (op, path, cap)) in ops.iter().enumerate() {
            let nr = arena.n_resources() as u32;
            let mut own: Vec<u32> = path.iter().map(|&r| r as u32 % nr).collect();
            own.sort_unstable();
            own.dedup();
            match op {
                0..=2 => live.push(arena.add(&own)),
                3 | 4 if !live.is_empty() => arena.remove(live.swap_remove(path[0] % live.len())),
                5 | 6 => {
                    caps[own[0] as usize] = *cap;
                    arena.touch_resource(own[0]);
                }
                _ => {
                    arena.grow_resources(nr as usize + 1);
                    caps.push(*cap);
                }
            }
            solver.solve_warm(&caps, &mut arena, &mut rates);
            let nr = arena.n_resources() as u32;
            let hosts = (hosts as u32).min(nr / 2);
            let fabric = (nr > 2 * hosts).then_some(nr - 1);
            let mut cands = vec![own];
            for i in 0..hosts {
                for j in (0..hosts).filter(|&j| j != i) {
                    cands.push([2 * i].into_iter().chain(fabric).chain([2 * j + 1]).collect());
                }
            }
            cands.extend((0..nr).map(|r| vec![r]));
            let idle: Vec<u32> = (0..nr).filter(|&r| arena.users(r) == 0).collect();
            if !idle.is_empty() {
                cands.push(idle);
            }
            check_probes_bitmatch(&mut solver, &caps, &arena, &cands, &format!("op {opno}"));
        }
    }
}

// ------------------------------------------------------------- placement

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn greedy_placements_are_always_valid(
        n_tasks in 2usize..7,
        n_vms in 2usize..6,
        seed in 0u64..500,
        demands in prop::collection::vec(1u32..=8, 2..7),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = TrafficMatrix::zeros(n_tasks);
        for i in 0..n_tasks {
            for j in 0..n_tasks {
                if i != j && rng.gen_bool(0.5) {
                    m.set(i, j, rng.gen_range(1..1_000_000_000));
                }
            }
        }
        let cpu: Vec<f64> = (0..n_tasks)
            .map(|t| 0.5 * demands[t % demands.len()] as f64)
            .collect();
        let app = AppProfile::new("prop", cpu, m, 0);
        let machines = Machines::uniform(n_vms, 4.0);
        let mut rates = vec![0.0; n_vms * n_vms];
        for v in rates.iter_mut() {
            *v = rng.gen_range(1e8..4e9);
        }
        let model = if seed % 2 == 0 { RateModel::Hose } else { RateModel::Pipe };
        let snap = NetworkSnapshot::from_rates(n_vms, rates, model);
        match GreedyPlacer.place(&app, &machines, &snap, &NetworkLoad::new(n_vms)) {
            Ok(p) => {
                prop_assert!(validate(&app, &machines, &p).is_ok());
                prop_assert_eq!(p.assignment.len(), n_tasks);
            }
            Err(_) => {
                // Only acceptable when demand genuinely cannot fit.
                let total: f64 = app.cpu.iter().sum();
                let biggest = app.cpu.iter().cloned().fold(0.0, f64::max);
                prop_assert!(
                    total > n_vms as f64 * 4.0 || biggest > 4.0 ||
                    // or bin-packing fragmentation, which we accept
                    total > n_vms as f64 * 4.0 * 0.5,
                    "greedy failed on an easy instance: total {total}"
                );
            }
        }
    }
}

// ------------------------------------------------------------ wire format

/// The `k`-th tag of the 21 tried: the request tags `0x0f..=0x19`, the
/// response tags `0x8f..=0x97` (each range one past the defined tags on
/// both sides) and the response error tag `0xff`.
fn service_tag(k: u8) -> u8 {
    match k {
        0..=10 => 0x0f + k,
        11..=19 => 0x8f + (k - 11),
        _ => 0xff,
    }
}

proptest! {
    #[test]
    fn service_codec_survives_arbitrary_bodies(
        tag in 0u8..21,
        rest in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut body = vec![service_tag(tag)];
        body.extend_from_slice(&rest);
        // Every prefix, so each field boundary is cut at least once.
        for cut in 0..=body.len() {
            if let Ok(req) = ServiceRequest::decode(&body[..cut]) {
                prop_assert_eq!(ServiceRequest::decode(&req.encode()[4..]), Ok(req));
            }
            if let Ok(resp) = ServiceResponse::decode(&body[..cut]) {
                prop_assert_eq!(ServiceResponse::decode(&resp.encode()[4..]), Ok(resp));
            }
        }
        // Framed, the readers agree with the decoders.
        let mut framed = (body.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(&body);
        let read = ServiceRequest::read_from(&mut std::io::Cursor::new(&framed));
        prop_assert_eq!(read.ok(), ServiceRequest::decode(&body).ok());
        let read = ServiceResponse::read_from(&mut std::io::Cursor::new(&framed));
        prop_assert_eq!(read.ok(), ServiceResponse::decode(&body).ok());
        // Unframed, the tag and the next three bytes are read as a length.
        let _ = ServiceRequest::read_from(&mut std::io::Cursor::new(&body));
        let _ = ServiceResponse::read_from(&mut std::io::Cursor::new(&body));
    }
}

// -------------------------------------------------------------- topology

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn tree_hop_counts_are_one_or_even(
        cores in 1usize..3,
        pods in 1usize..3,
        aggs in 1usize..3,
        tors in 1usize..3,
        hosts in 1usize..4,
        deep in any::<bool>(),
    ) {
        let spec = MultiRootedTreeSpec {
            cores,
            pods,
            aggs_per_pod: aggs,
            tors_per_pod: tors,
            hosts_per_tor: hosts,
            second_agg_tier: deep,
            ..Default::default()
        };
        let topo = spec.build();
        let routes = RouteTable::new(&topo);
        for &a in topo.hosts() {
            for &b in topo.hosts() {
                if a != b {
                    let h = routes.hop_count(a, b);
                    prop_assert!(h.is_multiple_of(2) && (2..=8).contains(&h), "hops {h}");
                }
            }
        }
    }
}

// ------------------------------------------------------------------- lp

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn lp_optimum_is_feasible_and_no_worse_than_origin(
        n in 1usize..5,
        objs in prop::collection::vec(-5.0f64..5.0, 1..5),
        rhs in prop::collection::vec(0.5f64..20.0, 1..4),
    ) {
        // Box-constrained LPs with <=-constraints through the origin:
        // always feasible (x = 0), never unbounded (finite boxes).
        let mut lp = Lp::new(n);
        for v in 0..n {
            lp.set_objective(v, objs[v % objs.len()]);
            lp.set_bounds(v, 0.0, 3.0);
        }
        for (k, r) in rhs.iter().enumerate() {
            let coeffs: Vec<(usize, f64)> =
                (0..n).map(|v| (v, ((v + k) % 3) as f64)).collect();
            lp.add_constraint(coeffs, Relation::Le, *r);
        }
        match solve_lp(&lp) {
            LpOutcome::Optimal(s) => {
                prop_assert!(lp.is_feasible(&s.x, 1e-6));
                prop_assert!(s.objective <= 1e-9, "origin is feasible with objective 0");
            }
            other => prop_assert!(false, "expected optimal, got {other:?}"),
        }
    }
}

// --------------------------------------------------------------- matrix

proptest! {
    #[test]
    fn traffic_matrix_transfer_order_is_total_and_descending(
        entries in prop::collection::vec((0usize..6, 0usize..6, 1u64..1_000_000), 0..20),
    ) {
        let mut m = TrafficMatrix::zeros(6);
        for (i, j, b) in entries {
            m.add(i, j, b);
        }
        let t = m.transfers_desc();
        for w in t.windows(2) {
            prop_assert!(w[0].2 >= w[1].2, "descending bytes");
        }
        let total: u64 = t.iter().map(|&(_, _, b)| b).sum();
        prop_assert_eq!(total, m.total_bytes());
        for &(i, j, b) in &t {
            prop_assert!(i != j && b > 0);
            prop_assert_eq!(m.bytes(i, j), b);
        }
    }
}

// ----------------------------------------------- adversarial shapes

/// A `WorkloadStreamConfig` with one adversarial shape switched on
/// (0 = heavy-tailed tenants, 1 = flash crowds, 2 = correlated batches,
/// 3 = cross-pod placement pattern) — the stream-level twin of the
/// scheduler-level shape suite in `tests/online.rs`.
fn shaped_stream_config(shape: u8) -> WorkloadStreamConfig {
    let mut cfg = WorkloadStreamConfig::default();
    cfg.gen.tasks_min = 2;
    cfg.gen.tasks_max = 6;
    cfg.gen.mean_interarrival = 5 * SECS;
    match shape {
        0 => {
            cfg.gen.tasks_max = 12;
            cfg.gen.heavy_tail = true;
        }
        1 => {
            cfg.gen.flash_crowd = Some(FlashCrowdConfig {
                mean_time_between: 60 * SECS,
                peak_multiplier: 10.0,
                onset: 2 * SECS,
                decay: 20 * SECS,
            });
        }
        2 => {
            cfg.gen.correlated_batches = Some(CorrelatedBatchConfig {
                mean_time_between: 45 * SECS,
                size_min: 4,
                size_max: 9,
                window: 2 * SECS,
            });
        }
        _ => cfg.gen.patterns = vec![AppPattern::CrossPod],
    }
    cfg
}

proptest! {
    // CI cranks the shape suites with PROPTEST_CASES (chaos job).
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(8)))]
    #[test]
    fn shaped_tenant_streams_are_ordered_wellformed_and_deterministic(
        seed in any::<u64>(),
        shape in 0u8..4,
    ) {
        let events: Vec<_> =
            WorkloadStream::new(shaped_stream_config(shape), seed).take(300).collect();
        let twin: Vec<_> =
            WorkloadStream::new(shaped_stream_config(shape), seed).take(300).collect();
        prop_assert_eq!(&events, &twin, "equal (config, seed) must replay bit-identically");
        // Every shape must keep the stream's safety contract: time-ordered
        // events, dense ascending tenant ids, and per-tenant lifecycles of
        // Arrive … intensity changes … Depart, with in-range draws.
        let mut last = 0;
        let mut live: Vec<bool> = Vec::new();
        for e in &events {
            prop_assert!(e.at >= last, "time-ordered stream");
            last = e.at;
            let id = e.tenant as usize;
            match &e.kind {
                TenantEventKind::Arrive { app } => {
                    prop_assert_eq!(id, live.len(), "tenant ids are dense and ascending");
                    live.push(true);
                    prop_assert!(
                        (2..=12).contains(&app.n_tasks()),
                        "task counts respect the configured (and heavy-tail-clamped) bounds"
                    );
                    prop_assert!(app.total_bytes() > 0, "profiles carry traffic");
                }
                TenantEventKind::SetIntensity { intensity } => {
                    prop_assert_eq!(live.get(id).copied(), Some(true),
                        "intensity changes only hit live tenants");
                    prop_assert!((1..=3).contains(intensity));
                }
                TenantEventKind::Depart => {
                    prop_assert_eq!(live.get(id).copied(), Some(true),
                        "exactly one Depart, after Arrive");
                    live[id] = false;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(8)))]
    #[test]
    fn switch_failure_streams_stay_link_consistent_and_deterministic(
        seed in any::<u64>(),
        switch_prob in 0.0f64..=1.0,
    ) {
        let topo = MultiRootedTreeSpec::default().build();
        let groups = switch_link_groups(&topo, 2);
        prop_assert!(!groups.is_empty(), "the default tree has agg/core switches");
        let cfg = NetworkEventStreamConfig {
            n_links: topo.link_count() as u32,
            mean_time_between_incidents: 10 * SECS,
            switch_failures: Some(SwitchFailureConfig { groups, switch_prob }),
        };
        let events: Vec<_> = NetworkEventStream::new(cfg.clone(), seed).take(200).collect();
        let twin: Vec<_> = NetworkEventStream::new(cfg, seed).take(200).collect();
        prop_assert_eq!(&events, &twin, "equal (config, seed) must replay bit-identically");
        // Correlated switch bursts must not break per-link sanity: an
        // incident only opens on a free link, a recovery only closes an
        // open incident, and time never runs backwards.
        let mut last = 0;
        let mut busy = vec![false; topo.link_count()];
        for e in &events {
            prop_assert!(e.at >= last, "time-ordered stream");
            last = e.at;
            let l = e.link as usize;
            prop_assert!(l < busy.len(), "link ids stay in range");
            match e.kind {
                NetworkEventKind::LinkFail
                | NetworkEventKind::LinkDegrade { .. }
                | NetworkEventKind::DrainStart { .. } => {
                    prop_assert!(!busy[l], "incidents only open on free links");
                    busy[l] = true;
                }
                NetworkEventKind::LinkRecover | NetworkEventKind::DrainEnd => {
                    prop_assert!(busy[l], "recoveries only close open incidents");
                    busy[l] = false;
                }
            }
            if let NetworkEventKind::LinkDegrade { fraction }
            | NetworkEventKind::DrainStart { fraction } = e.kind
            {
                prop_assert!(fraction > 0.0 && fraction < 1.0);
            }
        }
    }
}
