//! Sharded solve wiring and degenerate partitions.
//!
//! The property suite (`tests/props.rs`) pins bit-identity under
//! randomized churn; this file pins the **shapes**: single-pod
//! topologies (no parallelism to extract — `FlowSim` falls back),
//! all-flows-cross-pod worst cases (the dumbbell, whose partition
//! degenerates to singleton pods), empty shards, and the end-to-end
//! engine wiring (`FlowSim::set_solver_mode` must never change a
//! simulation's trajectory, only its wall-clock).

use std::sync::Arc;

use choreo_repro::flowsim::{
    FlowArena, FlowSim, MaxMinSolver, ResourcePartition, ShardedSolver, SolverMode,
};
use choreo_repro::topology::{
    dumbbell, two_rack, LinkSpec, MultiRootedTreeSpec, RouteTable, GBIT, MBIT, MICROS, MILLIS, SECS,
};

fn assert_bits_match_cold(caps: &[f64], arena: &mut FlowArena, part: &ResourcePartition) {
    for workers in [1usize, 2, 8] {
        let mut sharded = ShardedSolver::new(workers);
        let mut main = MaxMinSolver::new();
        let mut rates = Vec::new();
        sharded.solve_sharded(caps, arena, part, &mut main, &mut rates);
        let mut cold = MaxMinSolver::new();
        let mut cold_rates = Vec::new();
        cold.solve_logged(caps, arena, &mut cold_rates);
        assert_eq!(rates.len(), cold_rates.len());
        for (slot, (a, b)) in rates.iter().zip(&cold_rates).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{workers} workers, slot {slot}: sharded {a} vs cold {b}"
            );
        }
    }
}

/// Flow paths between host pair `(i, j)` of `topo`, as engine resources.
fn path(
    topo: &choreo_repro::topology::Topology,
    routes: &RouteTable,
    i: usize,
    j: usize,
) -> Vec<u32> {
    let h = topo.hosts();
    routes.paths(h[i], h[j])[0].hops.iter().map(choreo_repro::flowsim::hop_resource).collect()
}

#[test]
fn single_pod_topology_solves_without_pod_structure() {
    // One pod under the cores: the partition finds exactly one pod, the
    // whole flow set is local to it, and the merged log is that single
    // shard's log verbatim — still bit-exact, just with nothing to fan
    // out. (FlowSim falls back to warm solves for this shape; see
    // flowsim_falls_back_below_two_pods.)
    let spec = MultiRootedTreeSpec { pods: 1, ..Default::default() };
    let topo = spec.build();
    let routes = RouteTable::new(&topo);
    let part = ResourcePartition::for_topology(&topo);
    assert_eq!(part.n_pods(), 1);
    let caps: Vec<f64> =
        topo.links().iter().flat_map(|l| [l.spec.rate_bps, l.spec.rate_bps]).collect();
    let mut arena = FlowArena::new(caps.len());
    for (i, j) in [(0, 1), (0, 4), (2, 7), (5, 3), (6, 1)] {
        arena.add(&path(&topo, &routes, i, j));
    }
    assert_bits_match_cold(&caps, &mut arena, &part);
    let mut sharded = ShardedSolver::new(2);
    let mut main = MaxMinSolver::new();
    let mut rates = Vec::new();
    sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
    assert_eq!(sharded.view().n_boundary(), 0, "nothing crosses pods");
    assert_eq!(sharded.view().n_local(), 5);
}

#[test]
fn all_flows_cross_pod_worst_case_reconciles_live() {
    // Dumbbell: both ToRs are the spine tier, every host is a singleton
    // pod and every link touches the spine — the partition exists
    // (n_pods ≥ 2) but classifies every flow as boundary, so the
    // reconciliation pass does all the freezing live. Must not panic or
    // diverge.
    let topo = dumbbell(4, LinkSpec::new(GBIT, 5 * MICROS), LinkSpec::new(GBIT, 20 * MICROS));
    let routes = RouteTable::new(&topo);
    let part = ResourcePartition::for_topology(&topo);
    assert_eq!(part.n_pods(), 8, "every host its own pod");
    let caps: Vec<f64> =
        topo.links().iter().flat_map(|l| [l.spec.rate_bps, l.spec.rate_bps]).collect();
    let mut arena = FlowArena::new(caps.len());
    for (i, j) in [(0, 4), (1, 5), (2, 6), (3, 7), (0, 5), (4, 1)] {
        arena.add(&path(&topo, &routes, i, j));
    }
    let mut sharded = ShardedSolver::new(2);
    let mut main = MaxMinSolver::new();
    let mut rates = Vec::new();
    sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
    assert_eq!(sharded.view().n_local(), 0, "no flow fits inside a singleton pod");
    assert_eq!(sharded.view().n_boundary(), 6);
    assert_bits_match_cold(&caps, &mut arena, &part);
}

#[test]
fn empty_shards_and_empty_arenas_are_fine() {
    // Two racks, flows only in rack 0: rack 1's shard solves an empty
    // sub-arena and contributes an empty log. Also: a fully empty arena.
    let topo = two_rack(4, LinkSpec::new(GBIT, 5 * MICROS), LinkSpec::new(10.0 * GBIT, 5 * MICROS));
    let routes = RouteTable::new(&topo);
    let part = ResourcePartition::for_topology(&topo);
    assert_eq!(part.n_pods(), 2, "one pod per rack");
    let caps: Vec<f64> =
        topo.links().iter().flat_map(|l| [l.spec.rate_bps, l.spec.rate_bps]).collect();
    let mut arena = FlowArena::new(caps.len());
    assert_bits_match_cold(&caps, &mut arena, &part); // no flows at all
    for (i, j) in [(0, 1), (1, 2), (3, 0)] {
        arena.add(&path(&topo, &routes, i, j)); // rack-0 only
    }
    let mut sharded = ShardedSolver::new(2);
    let mut main = MaxMinSolver::new();
    let mut rates = Vec::new();
    sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
    assert_eq!(sharded.view().n_local(), 3);
    assert_eq!(sharded.view().n_boundary(), 0);
    assert_bits_match_cold(&caps, &mut arena, &part);
}

/// Build twin simulators over the same multi-rooted tree with the same
/// seed; `sharded_workers` enables the sharded path on the second.
fn twin_sims(sharded_workers: usize) -> (FlowSim, FlowSim) {
    let spec = MultiRootedTreeSpec {
        cores: 2,
        pods: 3,
        aggs_per_pod: 2,
        tors_per_pod: 2,
        hosts_per_tor: 2,
        ..Default::default()
    };
    let topo = Arc::new(spec.build());
    let routes = Arc::new(RouteTable::new(&topo));
    let loopback = LinkSpec::new(4.2 * GBIT, 20 * MICROS);
    let plain = FlowSim::new(topo.clone(), routes.clone(), loopback, 42);
    let mut sharded = FlowSim::new(topo, routes, loopback, 42);
    let prev = sharded.set_solver_mode(SolverMode::sharded(sharded_workers));
    assert!(!prev.is_sharded(), "a fresh sim starts warm");
    assert_eq!(sharded.sharded_pods(), Some(3));
    (plain, sharded)
}

#[test]
fn flowsim_sharded_trajectory_is_bit_identical() {
    // The same event script — bounded flows, co-located traffic, a hose
    // cap (a spine resource the partition never saw), ON-OFF background,
    // probes — must produce the exact same trajectory with and without
    // sharding: rates, delivered bytes and completion times all match.
    let (mut a, mut b) = twin_sims(2);
    let script = |s: &mut FlowSim| -> (Vec<f64>, Vec<u64>, u64) {
        let h = s.topology().hosts().to_vec();
        let hose = s.add_hose(300.0 * MBIT);
        let f0 = s.start_flow(h[0], h[5], Some(40_000_000), None, 0, 1);
        let f1 = s.start_flow(h[1], h[9], Some(60_000_000), None, 0, 1);
        let f2 = s.start_flow(h[2], h[2], None, Some(hose), 0, 2); // loopback
        let f3 = s.start_flow(h[3], h[10], None, Some(hose), 10 * MILLIS, 2);
        s.add_onoff(h[4], h[8], None, 50 * MILLIS, 50 * MILLIS, 0);
        let mut rates = Vec::new();
        let mut delivered = Vec::new();
        for step in 1..=20u64 {
            s.run_until(step * 50 * MILLIS);
            for &f in &[f0, f1, f2, f3] {
                rates.push(s.rate_bps(f));
                delivered.push(s.delivered_bytes(f));
            }
            rates.push(s.probe_rate(h[0], h[11], None));
            rates.push(s.probe_rate(h[6], h[6], None));
        }
        s.stop_flow_at(f2, 2 * SECS);
        s.stop_flow_at(f3, 2 * SECS);
        let end = s.run_to_completion();
        (rates, delivered, end)
    };
    let (ra, da, ea) = script(&mut a);
    let (rb, db, eb) = script(&mut b);
    assert_eq!(ea, eb, "completion times diverged");
    assert_eq!(da, db, "delivered bytes diverged");
    assert_eq!(ra.len(), rb.len());
    for (i, (x, y)) in ra.iter().zip(&rb).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "sample {i}: plain {x} vs sharded {y}");
    }
}

#[test]
fn flowsim_falls_back_without_real_pod_structure() {
    // Two shapes where the event loop must keep the warm path: a
    // single-pod tree (one pod, nothing to fan out) and a dumbbell
    // (2·N singleton-host pods, but none owning an intra-pod link —
    // `ResourcePartition::link_pods() == 0`, so sharding it would make
    // every churn event a full live reconciliation). Either way the
    // simulation must behave identically to an unsharded twin.
    let run = |s: &mut FlowSim| -> Vec<u64> {
        let h = s.topology().hosts().to_vec();
        let f0 = s.start_flow(h[0], h[7], Some(25_000_000), None, 0, 1);
        let f1 = s.start_flow(h[1], h[6], Some(25_000_000), None, 0, 1);
        s.run_to_completion();
        vec![s.completion_time(f0).unwrap(), s.completion_time(f1).unwrap()]
    };
    let spec = MultiRootedTreeSpec { pods: 1, ..Default::default() };
    let topo = Arc::new(spec.build());
    let routes = Arc::new(RouteTable::new(&topo));
    let loopback = LinkSpec::new(4.2 * GBIT, 20 * MICROS);
    let mut plain = FlowSim::new(topo.clone(), routes.clone(), loopback, 7);
    let mut sharded = FlowSim::new(topo, routes, loopback, 7);
    sharded.set_solver_mode(SolverMode::sharded(2));
    assert_eq!(sharded.sharded_pods(), Some(1), "single pod found");
    assert_eq!(run(&mut plain), run(&mut sharded));
    // Toggling the mode back to warm mid-life is allowed too.
    let prev = sharded.set_solver_mode(SolverMode::Warm);
    assert!(prev.is_sharded(), "the detached mode reports what ran before");
    assert_eq!(sharded.sharded_pods(), None);

    let topo = Arc::new(dumbbell(4, LinkSpec::new(GBIT, 5 * MICROS), LinkSpec::new(GBIT, MICROS)));
    let part = ResourcePartition::for_topology(&topo);
    assert_eq!(part.n_pods(), 8);
    assert_eq!(part.link_pods(), 0, "singleton pods own no links");
    let routes = Arc::new(RouteTable::new(&topo));
    let mut plain = FlowSim::new(topo.clone(), routes.clone(), loopback, 11);
    let mut sharded = FlowSim::new(topo, routes, loopback, 11);
    sharded.set_solver_mode(SolverMode::sharded(2));
    assert_eq!(sharded.sharded_pods(), Some(8), "eight singleton pods");
    assert_eq!(run(&mut plain), run(&mut sharded));
}

#[test]
fn one_warm_pool_serves_two_sims_sequentially() {
    // The persistent worker pool outlives the sim that spawned it: run
    // sim A sharded, detach its solver (`set_solver_mode(Warm)` returns
    // the previous mode with the solver — workers *and* warm pool — in
    // its `pool` field), hand it to sim B on a different topology
    // (attaching via `SolverMode::Sharded { pool: Some(..) }` resets the
    // solver, forcing a full re-split against B's arena), and B's
    // trajectory must still bit-match an unsharded twin while the same
    // worker threads keep executing jobs (`pool_jobs_executed` strictly
    // grows across the hand-off).
    let run = |s: &mut FlowSim| -> Vec<u64> {
        let h = s.topology().hosts().to_vec();
        let mut out = Vec::new();
        let mut keys = Vec::new();
        for i in 0..3 * h.len() {
            let f = s.start_flow(
                h[i % h.len()],
                h[(i * 7 + 3) % h.len()],
                Some(10_000_000 + 1_000_000 * i as u64),
                None,
                0,
                i as u64,
            );
            keys.push(f);
        }
        for step in 1..=8u64 {
            s.run_until(step * 10 * MILLIS);
            for &f in &keys {
                out.push(s.rate_bps(f).to_bits());
            }
        }
        s.run_to_completion();
        for &f in &keys {
            out.push(s.completion_time(f).unwrap());
        }
        out
    };
    let (mut plain_a, mut sharded_a) = twin_sims(2);
    assert_eq!(run(&mut plain_a), run(&mut sharded_a), "sim A diverged");
    let SolverMode::Sharded { pool: Some(solver), .. } =
        sharded_a.set_solver_mode(SolverMode::Warm)
    else {
        panic!("solver attached")
    };
    assert_eq!(sharded_a.sharded_pods(), None, "detach disables the sharded path");
    let executed_a = solver.pool_jobs_executed();
    assert!(executed_a > 0, "sim A never dispatched to the 2-worker pool");

    // Sim B: a different pod count, so the inherited view is useless
    // until the reset re-splits it.
    let spec = MultiRootedTreeSpec {
        cores: 2,
        pods: 4,
        aggs_per_pod: 2,
        tors_per_pod: 2,
        hosts_per_tor: 2,
        ..Default::default()
    };
    let topo = Arc::new(spec.build());
    let routes = Arc::new(RouteTable::new(&topo));
    let loopback = LinkSpec::new(4.2 * GBIT, 20 * MICROS);
    let mut plain_b = FlowSim::new(topo.clone(), routes.clone(), loopback, 7);
    let mut sharded_b = FlowSim::new(topo, routes, loopback, 7);
    let workers = solver.workers();
    sharded_b.set_solver_mode(SolverMode::Sharded { workers, pool: Some(solver) });
    assert_eq!(sharded_b.sharded_pods(), Some(4), "four pods after the hand-off");
    assert_eq!(run(&mut plain_b), run(&mut sharded_b), "sim B diverged on the inherited solver");
    let SolverMode::Sharded { pool: Some(solver), .. } =
        sharded_b.set_solver_mode(SolverMode::Warm)
    else {
        panic!("solver attached")
    };
    assert!(
        solver.pool_jobs_executed() > executed_a,
        "sim B never reused the inherited pool ({} jobs, sim A already ran {executed_a})",
        solver.pool_jobs_executed()
    );
}
