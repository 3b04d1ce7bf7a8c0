//! Steady-state reallocation performs **zero heap allocation**.
//!
//! A counting global allocator wraps the system allocator; after warming
//! the arena's free lists and the solver's scratch buffers, a sustained
//! churn of flow replacements plus reallocations — warm-started delta
//! solves included — and the engine's what-if probe path must not
//! allocate at all. This pins down the tentpole guarantee:
//! `reallocate_if_dirty` (arena maintenance + a warm solve straight into
//! the slot-indexed rate column) does no per-call `Vec` construction —
//! and neither does anything above it on the advance path: `run_until`
//! across bounded completions, and `OnlineScheduler::advance_to` across
//! a drift epoch and a migration tick. A placement attempt
//! (`OnlineScheduler::try_place`) allocates the placement it returns and
//! nothing else.
//!
//! Kept in its own integration-test binary with a single `#[test]` so no
//! concurrent test pollutes the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use choreo_repro::flowsim::{FlowArena, FlowSim, FlowSlot, MaxMinSolver};
use choreo_repro::online::{
    DriftConfig, MigrationConfig, OnlineConfig, PlacementPolicy, SchedulerBuilder,
};
use choreo_repro::profile::{AppProfile, TenantEvent, TenantEventKind, TrafficMatrix};
use choreo_repro::topology::route::splitmix64;
use choreo_repro::topology::{
    dumbbell, LinkSpec, MultiRootedTreeSpec, RouteTable, GBIT, MICROS, SECS,
};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_reallocation_allocates_nothing() {
    // ---------------------------------------------------- solver + arena
    let spec = MultiRootedTreeSpec {
        cores: 2,
        pods: 4,
        aggs_per_pod: 2,
        tors_per_pod: 4,
        hosts_per_tor: 4,
        ..Default::default()
    };
    let topo = spec.build();
    let routes = RouteTable::new(&topo);
    let caps: Vec<f64> =
        topo.links().iter().flat_map(|l| [l.spec.rate_bps, l.spec.rate_bps]).collect();
    let hosts = topo.hosts();
    let pair_of = |id: u64| {
        let a = hosts[(splitmix64(id) % hosts.len() as u64) as usize];
        let mut b = hosts[(splitmix64(id ^ 0xBEEF) % hosts.len() as u64) as usize];
        if a == b {
            b = hosts[(hosts.iter().position(|&x| x == a).unwrap() + 1) % hosts.len()];
        }
        (a, b)
    };
    let path_of = |id: u64| -> Vec<u32> {
        let (a, b) = pair_of(id);
        routes
            .path_for_flow(a, b, splitmix64(id.wrapping_mul(0x9E37)))
            .hops()
            .iter()
            .map(choreo_repro::flowsim::hop_resource)
            .collect()
    };
    let n_flows = 220u64;
    let churn: Vec<Vec<u32>> = (0..n_flows + 400).map(path_of).collect();
    let mut arena = FlowArena::new(caps.len());
    let mut slots: Vec<_> = churn[..n_flows as usize].iter().map(|p| arena.add(p)).collect();
    let mut solver = MaxMinSolver::new();
    let mut rates = Vec::new();
    // Warm-up: run the exact churn pattern measured below once, so every
    // free list, reverse-index list and scratch buffer reaches its
    // steady-state footprint (a different event mix could legitimately
    // nudge one reverse-index list past its previous high-water mark).
    for round in 0..3 {
        for (i, arrival) in churn[n_flows as usize..].iter().enumerate() {
            let k = (i + round) % slots.len();
            arena.remove(slots[k]);
            slots[k] = arena.add(arrival);
            solver.solve_logged(&caps, &arena, &mut rates);
        }
    }
    let before = alloc_count();
    let mut checksum = 0.0f64;
    for round in 0..3 {
        for (i, arrival) in churn[n_flows as usize..].iter().enumerate() {
            let k = (i + round) % slots.len();
            arena.remove(slots[k]);
            slots[k] = arena.add(arrival);
            solver.solve_logged(&caps, &arena, &mut rates);
            checksum += rates[slots[k].0 as usize];
        }
    }
    let solver_allocs = alloc_count() - before;
    assert!(checksum > 0.0, "solves produced rates");
    assert_eq!(solver_allocs, 0, "steady-state arena churn + reallocation must not allocate");

    // ------------------------------------------------------ route lookups
    // A path comes back by value with its hops inline: resolving a pair
    // nobody asked about before — its first path or a flow's ECMP pick —
    // allocates nothing.
    let before = alloc_count();
    let mut hops = 0;
    for id in 10_000..12_000u64 {
        let (a, b) = pair_of(id);
        hops += routes.path(a, b, 0).len() + routes.path_for_flow(a, b, splitmix64(id)).len();
    }
    let route_allocs = alloc_count() - before;
    assert!(hops >= 4 * 2_000, "every pair is at least two hops apart");
    assert_eq!(route_allocs, 0, "path / path_for_flow must not allocate");

    // ------------------------------------------------ warm-started solves
    // A warm solve edits the solver's persistent freeze-round log in
    // place: carried rounds keep their ids and pool ranges, dropped rounds
    // leave garbage in the append-only pools until a compaction squeezes
    // it out, their ids are recycled, and the per-resource event lists of
    // the perturbed resources are rebuilt within the capacity of the
    // arena's own reverse lists. The log's indexes are current when the
    // solve returns, so a probe batch straight after has nothing to
    // rebuild. One pass of a placement-style loop — remove, re-solve,
    // score a candidate batch, add, re-solve, score, retune a capacity,
    // re-solve — warms every buffer; the measured pass retraces it, must
    // cross pool compactions and id recycling (asserted), and must not
    // allocate at all.
    let mut warm_solver = MaxMinSolver::new();
    let mut warm_rates = Vec::new();
    let mut warm_caps = caps.clone();
    // A batch of 32 candidates, rated one probe after another off one solve.
    let batch = |solver: &mut MaxMinSolver, caps: &[f64], arena: &FlowArena| -> f64 {
        churn[..32].iter().map(|c| solver.probe(caps, arena, c)).sum()
    };
    warm_solver.solve_warm(&warm_caps, &mut arena, &mut warm_rates);
    let mut warm_pass =
        |warm_solver: &mut MaxMinSolver, arena: &mut FlowArena, slots: &mut [FlowSlot]| -> f64 {
            let mut sum = 0.0;
            for round in 0..3 {
                for (i, arrival) in churn[n_flows as usize..].iter().enumerate() {
                    let k = (i + round) % slots.len();
                    arena.remove(slots[k]);
                    warm_solver.solve_warm(&warm_caps, arena, &mut warm_rates);
                    sum += batch(warm_solver, &warm_caps, arena);
                    slots[k] = arena.add(arrival);
                    warm_solver.solve_warm(&warm_caps, arena, &mut warm_rates);
                    sum += batch(warm_solver, &warm_caps, arena) + warm_rates[slots[k].0 as usize];
                    // A link on the new flow's path degrades, then recovers.
                    let link = arrival[i % arrival.len()] as usize;
                    warm_caps[link] =
                        if warm_caps[link] == caps[link] { caps[link] / 2.0 } else { caps[link] };
                    arena.touch_resource(link as u32);
                    warm_solver.solve_warm(&warm_caps, arena, &mut warm_rates);
                }
            }
            sum
        };
    warm_pass(&mut warm_solver, &mut arena, &mut slots);
    let churn_before = warm_solver.log_churn();
    let before = alloc_count();
    let warm_checksum = warm_pass(&mut warm_solver, &mut arena, &mut slots);
    let warm_allocs = alloc_count() - before;
    let churn_after = warm_solver.log_churn();
    assert!(warm_checksum > 0.0, "warm solves and probe batches produced rates");
    assert!(churn_after.0 > churn_before.0, "measured pass crossed no pool compaction");
    assert!(churn_after.1 > churn_before.1, "measured pass recycled no round id");
    assert_eq!(warm_allocs, 0, "steady-state warm re-solve → probe batch must not allocate");

    // ------------------------------------------------- engine what-if path
    // A one-candidate probe batch into a reused buffer: the log read, the
    // record and walk memos and the fold, exercised through FlowSim, also
    // allocation-free once warm.
    let t =
        Arc::new(dumbbell(4, LinkSpec::new(GBIT, 5 * MICROS), LinkSpec::new(GBIT, 20 * MICROS)));
    let r = Arc::new(RouteTable::new(&t));
    let mut sim = FlowSim::new(t.clone(), r, 7);
    let h = sim.topology().hosts().to_vec();
    for i in 0..4 {
        sim.start_flow(h[i], h[4 + i], None, None, 0, i as u64);
    }
    sim.run_until(SECS);
    let mut one = Vec::new();
    sim.probe_rates(&[(h[0], h[4], None)], &mut one); // warm the probe scratch and the buffer
    let before = alloc_count();
    let mut acc = 0.0;
    for _ in 0..100 {
        sim.probe_rates(&[(h[0], h[4], None)], &mut one);
        acc += one[0];
        sim.probe_rates(&[(h[1], h[5], None)], &mut one);
        acc += one[0];
    }
    let probe_allocs = alloc_count() - before;
    assert!(acc > 0.0);
    assert_eq!(probe_allocs, 0, "a warm one-candidate probe batch must not allocate");

    // ------------------------------------------------ batched what-if path
    // Batched candidate scoring reuses the probe batch and the caller's
    // output buffer: once warm, an entire batch per call allocates nothing.
    let probes = [(h[0], h[4], None), (h[1], h[5], None), (h[2], h[6], None), (h[3], h[7], None)];
    let mut out = Vec::new();
    sim.probe_rates(&probes, &mut out); // warm the batch + output buffers
    let before = alloc_count();
    let mut acc = 0.0;
    for _ in 0..100 {
        sim.probe_rates(&probes, &mut out);
        acc += out.iter().sum::<f64>();
    }
    let batch_allocs = alloc_count() - before;
    assert!(acc > 0.0);
    assert_eq!(batch_allocs, 0, "warm probe_rates (batched what-if) must not allocate");

    // ------------------------------------- batches over never-probed pairs
    // The engine splices each probe's path 0 from its two host ends and a
    // fold of the walk between their ToRs, memoised per solve in a table
    // the first probe sizes to the route table. One warm-up batch of
    // inter-pod (longest-path) pairs sizes the record table, the walk memo
    // and the output buffer; after it, batches over pairs no earlier call
    // touched allocate nothing.
    let tree = Arc::new(spec.build());
    let tree_routes = Arc::new(RouteTable::new(&tree));
    let mut tree_sim = FlowSim::new(tree, tree_routes, 7);
    for id in 0..40 {
        let (a, b) = pair_of(id);
        tree_sim.start_flow(a, b, None, None, 0, id);
    }
    tree_sim.run_until(SECS);
    let per_pod = hosts.len() / spec.pods;
    let far: Vec<_> = (0..16).map(|i| (hosts[i], hosts[per_pod + i], None)).collect();
    let mut fresh = far.clone();
    tree_sim.probe_rates(&far, &mut out);
    let before = alloc_count();
    let mut acc = 0.0;
    for round in 0..100u64 {
        for (i, probe) in fresh.iter_mut().enumerate() {
            let (a, b) = pair_of(20_000 + 16 * round + i as u64);
            *probe = (a, b, None);
        }
        tree_sim.probe_rates(&fresh, &mut out);
        acc += out.iter().sum::<f64>();
    }
    let fresh_allocs = alloc_count() - before;
    assert!(acc > 0.0);
    assert_eq!(fresh_allocs, 0, "probe_rates over fresh pairs must not allocate");

    // ------------------------------------- batches over never-probed walks
    // Each round below first replaces a resident flow — a new solve, for
    // which no record has been read and no walk folded — then rates
    // sixteen pairs drawn from a seed range no earlier call used. The
    // warm-up pass replaces the
    // resident flows exactly as the measured pass does, so the arena and
    // the solve log reach the footprint that churn needs, but rates other
    // pairs: the measured pass reads records and folds walks it has never
    // seen, and allocates nothing.
    let mut resident = tree_sim.start_flow_now(hosts[1], hosts[2], None, None, 77);
    let mut fresh_rounds = |sim: &mut FlowSim, seeds: u64| {
        let (walked, mut acc) = (sim.solve_stats().probe_replay_rounds, 0.0);
        for round in 0..100u64 {
            // Rack neighbours have one path: no ECMP draw, so the second
            // pass replaces resident flows exactly as the first did.
            let a = (round * 7 % 64) as usize;
            sim.stop_flows_now(&[resident]);
            sim.release_flow(resident);
            resident = sim.start_flow_now(hosts[a], hosts[a ^ 1], None, None, 77);
            for (i, probe) in fresh.iter_mut().enumerate() {
                let (a, b) = pair_of(seeds + 16 * round + i as u64);
                *probe = (a, b, None);
            }
            sim.probe_rates(&fresh, &mut out);
            acc += out.iter().sum::<f64>();
        }
        assert!(acc > 0.0 && sim.solve_stats().probe_replay_rounds > walked);
    };
    fresh_rounds(&mut tree_sim, 30_000);
    let before = alloc_count();
    fresh_rounds(&mut tree_sim, 40_000);
    let walk_allocs = alloc_count() - before;
    assert_eq!(walk_allocs, 0, "probe_rates over never-probed walks must not allocate");
    tree_sim.stop_flows_now(&[resident]);

    // ------------------------------- overlapping batches, record by record
    // The scheduler's first-transfer batch — all 240 ordered pairs of 16
    // candidate hosts — names each access direction 15 times over. The
    // solver walks its log once per distinct resource into a record table
    // it keeps across solves, so a placement-style round — one flow
    // replaces another, warm re-solve, the batch, the same batch again
    // (served from the records), and once more mapped from candidate
    // indices to hosts into scratch the caller lends, as `try_place`'s
    // rate closure does — allocates nothing once the table spans the
    // resource space. A hose grows that space: the round after sizes the
    // table again, and the rounds after that, rating hose-capped
    // candidates, are back to zero.
    let subset: Vec<u32> = (0..16).map(|i| i * 4).collect();
    let mut local_pairs = Vec::new();
    for m in 0..16u32 {
        local_pairs.extend((0..16).filter(|&n| n != m).map(|n| (m, n)));
    }
    let mut overlapping: Vec<_> = local_pairs
        .iter()
        .map(|&(m, n)| {
            (hosts[subset[m as usize] as usize], hosts[subset[n as usize] as usize], None)
        })
        .collect();
    assert_eq!(overlapping.len(), 240);
    let (mut lent, mut what_if) = (Vec::new(), Vec::new());
    let mut resident = tree_sim.start_flow_now(hosts[1], hosts[2], None, None, 77);
    let mut placement_rounds = |sim: &mut FlowSim, batch: &[_], ids: std::ops::Range<u64>| {
        let (walked, mut sum) = (sim.solve_stats().probe_replay_rounds, 0.0);
        let mut served = walked;
        for id in ids {
            // Rack neighbours have one path: no ECMP draw, so a second
            // pass over the same ids retraces the first exactly.
            let a = (id * 7 % 64) as usize;
            sim.stop_flows_now(&[resident]);
            sim.release_flow(resident);
            resident = sim.start_flow_now(hosts[a], hosts[a ^ 1], None, None, 77);
            sim.probe_rates(batch, &mut out);
            served = sim.solve_stats().probe_replay_rounds;
            sim.probe_rates(batch, &mut out);
            lent.clear();
            lent.extend(local_pairs.iter().map(|&(m, n)| {
                (hosts[subset[m as usize] as usize], hosts[subset[n as usize] as usize], None)
            }));
            sim.probe_rates(&lent, &mut what_if);
            assert_eq!(sim.solve_stats().probe_replay_rounds, served, "a repeat walked the log");
            sum += out.iter().chain(&what_if).sum::<f64>();
        }
        assert!(served > walked && sum > 0.0, "the rounds re-solved and rated");
    };
    // Warm-up runs the measured rounds, as above: the arena's reverse
    // lists reach the footprint this very churn needs.
    placement_rounds(&mut tree_sim, &overlapping, 0..50);
    let before = alloc_count();
    placement_rounds(&mut tree_sim, &overlapping, 0..50);
    let record_allocs = alloc_count() - before;
    assert_eq!(record_allocs, 0, "re-solve → overlapping batch → same batch must not allocate");
    let hose = tree_sim.add_hose(0.3 * GBIT);
    for probe in overlapping.iter_mut().step_by(5) {
        probe.2 = Some(hose);
    }
    placement_rounds(&mut tree_sim, &overlapping, 0..1);
    let before = alloc_count();
    placement_rounds(&mut tree_sim, &overlapping, 1..50);
    let hose_allocs = alloc_count() - before;
    assert_eq!(hose_allocs, 0, "one round after a hose grew the resource space: no allocation");

    // ----------------------------------------- flow-record recycling churn
    // A sustained arrive → retire → release → re-arrive cycle through the
    // engine: record slots (and their generation stamps) recycle through
    // the free list, and the event heap and arena churn in retained
    // buffers. Steady state must allocate nothing — and the
    // record table must not grow by even one entry.
    let ms = SECS / 1000;
    let mut t_now = sim.now();
    // Each cycle also runs a pair of equal bounded flows on one path, so
    // `run_until` crosses a two-flow completion instant and the engine's
    // finished-slot scratch is exercised (and reused) every time.
    let cycle = |sim: &mut FlowSim, t_now: &mut u64, i: u64| -> f64 {
        *t_now += 5 * ms;
        let key = sim.start_flow(h[0], h[4], Some(10_000), None, *t_now, 90 + (i % 4));
        let twins = [
            sim.start_flow(h[1], h[5], Some(20_000), None, *t_now, 94),
            sim.start_flow(h[1], h[5], Some(20_000), None, *t_now, 94),
        ];
        *t_now += 5 * ms;
        sim.run_until(*t_now); // 10–20 kB at ≥ a fair share: long done by now
        assert_eq!(sim.completion_time(twins[0]), sim.completion_time(twins[1]));
        let delivered = sim.delivered_bytes(key) as f64 + sim.delivered_bytes(twins[1]) as f64;
        sim.release_flow(key);
        sim.release_flows(&twins);
        delivered
    };
    for i in 0..100 {
        cycle(&mut sim, &mut t_now, i);
    }
    let records = sim.flow_records();
    let before = alloc_count();
    let mut acc = 0.0;
    for i in 0..100 {
        acc += cycle(&mut sim, &mut t_now, i);
    }
    let recycle_allocs = alloc_count() - before;
    assert!(acc > 0.0);
    assert_eq!(sim.flow_records(), records, "record table grew under release churn");
    assert_eq!(recycle_allocs, 0, "steady-state recycling churn must not allocate");

    // ------------------------------- scheduler advance: epochs and ticks
    // `OnlineScheduler::advance_to` over a drift re-measurement epoch and
    // a migration tick that moves nobody: every networked tenant is
    // scored in place (no flow-list clones), the drift check reads the
    // epoch window without building a series, the planner finds nothing
    // degraded, and the pass's one decision lands in the reused outcome
    // buffer. Once warm, a whole cadence period allocates nothing.
    let topo = Arc::new(spec.build());
    let routes = Arc::new(RouteTable::new(&topo));
    let cfg = OnlineConfig {
        migration: MigrationConfig { cadence: Some(SECS) },
        drift: DriftConfig { cadence: Some(SECS) },
        ..OnlineConfig::default()
    };
    let mut sched = SchedulerBuilder::new(topo, routes).config(cfg).seed(7).build();
    for tenant in 0..6u64 {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 1_000_000_000);
        m.set(1, 2, 500_000_000);
        // One 4-core task per host: every tenant is networked.
        let app = Box::new(AppProfile::new("steady", vec![4.0; 3], m, 0));
        sched.step(&TenantEvent { at: tenant, tenant, kind: TenantEventKind::Arrive { app } });
    }
    assert_eq!(sched.active_tenants(), 6);
    let mut epoch = 0u64;
    let mut advance = |sched: &mut choreo_repro::online::OnlineScheduler, periods: u64| {
        for _ in 0..periods {
            epoch += 1;
            sched.advance_to(epoch * SECS + SECS / 2);
        }
    };
    advance(&mut sched, 8);
    let passes = (sched.stats().measurement_passes, sched.stats().migration_passes);
    let before = alloc_count();
    advance(&mut sched, 8);
    let advance_allocs = alloc_count() - before;
    assert_eq!(sched.stats().measurement_passes, passes.0 + 8, "one drift epoch per period");
    assert_eq!(sched.stats().migration_passes, passes.1 + 8, "one migration tick per period");
    assert_eq!(sched.stats().migrations, 0, "a settled cluster moves nobody");
    assert_eq!(advance_allocs, 0, "advance_to across epochs and no-move ticks must not allocate");
    sched.check_invariants();

    // ------------------------------------------------ a placement attempt
    // `try_place` as an arrival makes it: the candidate ranking, the
    // CPU-packing pre-check, then Algorithm 1 in the scratch the scheduler
    // lends it, rating each transfer's candidates as one probe batch. A
    // link under the running tenants degrades or recovers before every
    // attempt, so each one rates against a fresh solve — records read,
    // walks folded — and ranks nothing new (the CPU ledger holds still).
    // Warmed, an attempt allocates exactly one block: the assignment of
    // the placement it returns.
    let mut m = TrafficMatrix::zeros(3);
    m.set(0, 1, 1_000_000_000);
    m.set(1, 2, 500_000_000);
    let app = AppProfile::new("candidate", vec![4.0; 3], m, 0);
    let link = sched.sim_mut().topology().links().len() as u32 / 2;
    let attempts = |sched: &mut choreo_repro::online::OnlineScheduler| {
        let walked = sched.sim_mut().solve_stats().probe_replay_rounds;
        for i in 0..50 {
            sched.sim_mut().degrade_link(link, if i % 2 == 0 { 0.5 } else { 1.0 });
            let placed = sched.try_place(&app, PlacementPolicy::Greedy);
            assert_eq!(placed.map(|p| p.assignment.len()), Some(3), "attempt {i} placed");
        }
        assert!(sched.sim_mut().solve_stats().probe_replay_rounds > walked, "attempts rated");
    };
    attempts(&mut sched);
    let before = alloc_count();
    attempts(&mut sched);
    let attempt_allocs = alloc_count() - before;
    assert_eq!(attempt_allocs, 50, "a warmed attempt allocates its placement and nothing else");
}
