//! Batched what-if candidate scoring vs one solve per candidate.
//!
//! Drives the workload the greedy placer's candidate enumeration puts on
//! the flow engine — score every ordered host pair ("where could this
//! transfer land?") against a 64-host multi-rooted tree carrying ≥250
//! concurrent flows — and compares:
//!
//! * **baseline** — the pre-batch path: each candidate joins the arena,
//!   the persistent [`MaxMinSolver`] runs a full solve, the candidate's
//!   rate is read and it leaves again (what `probe_rate` did before the
//!   batch API, and the best the per-candidate interface allows);
//! * **batched** — one [`MaxMinSolver::solve_batch`]: a single logged
//!   solve whose frozen freeze-round prefix is replayed per candidate in
//!   `O(rounds + events on its path)` with early exit.
//!
//! The two sides must agree **bit for bit** on every candidate (asserted
//! per run). A [`ScenarioPool`] section additionally reports the parallel
//! fan-out of whole candidate sweeps across hypothetical background
//! scenarios — the pool sizes itself to the machine
//! (`std::thread::available_parallelism`), each worker chains
//! warm-started solves across its scenario sequence, and the honest
//! worker count is recorded. One pool instance per side is reused across
//! all best-of-3 rounds (the persistent worker threads spawn once, on
//! the first sweep), so the timings measure steady-state dispatch, not
//! thread spawn; on a single-core runner the pool-speedup
//! comparison is skipped (`pool_speedup: null`) rather than reporting a
//! meaningless ≈1× figure. Emits `BENCH_placement.json`; the acceptance
//! target for the batched path is ≥3× (CI gates at a conservative 2×
//! floor).

use std::time::Instant;

use choreo_bench::JsonReport;
use choreo_flowsim::{FlowArena, MaxMinSolver, ProbeBatch, ScenarioPool};
use choreo_topology::route::splitmix64;
use choreo_topology::{MultiRootedTreeSpec, RouteTable, Topology};

/// Deterministic background flow path between two hosts, in engine
/// resource ids (same generator as `bench_fairshare`).
fn flow_resources(topo: &Topology, routes: &RouteTable, flow_id: u64) -> Vec<u32> {
    let h = topo.hosts();
    let a = h[(splitmix64(flow_id) % h.len() as u64) as usize];
    let mut b = h[(splitmix64(flow_id ^ 0xDEAD) % h.len() as u64) as usize];
    if a == b {
        b = h[(h.iter().position(|&x| x == a).unwrap() + 1) % h.len()];
    }
    let path = routes.path_for_flow(a, b, splitmix64(flow_id.wrapping_mul(0x9E37)));
    path.hops.iter().map(choreo_flowsim::hop_resource).collect()
}

struct Workload {
    capacities: Vec<f64>,
    /// Background flow set (the committed network state).
    flows: Vec<Vec<u32>>,
    /// Candidate paths to score: first ECMP path of every ordered host pair.
    candidates: Vec<Vec<u32>>,
    hosts: usize,
}

fn build_workload(flows: usize) -> Workload {
    // 4 pods × 4 ToRs × 4 hosts = 64 hosts, two cores.
    let spec = MultiRootedTreeSpec {
        cores: 2,
        pods: 4,
        aggs_per_pod: 2,
        tors_per_pod: 4,
        hosts_per_tor: 4,
        ..Default::default()
    };
    let topo = spec.build();
    assert!(topo.hosts().len() >= 64, "need ≥64 hosts");
    let routes = RouteTable::new(&topo);
    let capacities: Vec<f64> =
        topo.links().iter().flat_map(|l| [l.spec.rate_bps, l.spec.rate_bps]).collect();
    let flows: Vec<Vec<u32>> =
        (0..flows).map(|i| flow_resources(&topo, &routes, i as u64)).collect();
    let hosts = topo.hosts();
    let mut candidates = Vec::with_capacity(hosts.len() * (hosts.len() - 1));
    for &a in hosts {
        for &b in hosts {
            if a == b {
                continue;
            }
            let path = &routes.paths(a, b)[0];
            candidates.push(path.hops.iter().map(choreo_flowsim::hop_resource).collect());
        }
    }
    Workload { capacities, flows, candidates, hosts: hosts.len() }
}

/// Baseline: one full solve per candidate (add → solve → read → remove).
fn run_per_candidate(w: &Workload, arena: &mut FlowArena) -> (Vec<u64>, u128) {
    let mut solver = MaxMinSolver::new();
    let mut rates = Vec::new();
    solver.solve(&w.capacities, arena, &mut rates); // warm scratch
    let mut out = Vec::with_capacity(w.candidates.len());
    let start = Instant::now();
    for cand in &w.candidates {
        let probe = arena.add(cand);
        solver.solve(&w.capacities, arena, &mut rates);
        out.push(rates[probe.0 as usize].to_bits());
        arena.remove(probe);
    }
    (out, start.elapsed().as_nanos())
}

/// Batched: one logged solve, then a frozen-prefix replay per candidate.
fn run_batched(w: &Workload, arena: &FlowArena) -> (Vec<u64>, u128) {
    let mut solver = MaxMinSolver::new();
    let mut rates = Vec::new();
    let mut out = Vec::new();
    let mut batch = ProbeBatch::new();
    for cand in &w.candidates {
        batch.push(cand);
    }
    solver.solve(&w.capacities, arena, &mut rates); // warm scratch
    let start = Instant::now();
    solver.solve_batch(&w.capacities, arena, &batch, &mut rates, &mut out);
    (out.iter().map(|r| r.to_bits()).collect(), start.elapsed().as_nanos())
}

fn main() {
    let n_flows = 250usize;
    let w = build_workload(n_flows);
    let mut arena = FlowArena::new(w.capacities.len());
    for f in &w.flows {
        arena.add(f);
    }
    let n_cand = w.candidates.len();
    // Interleave three rounds and keep the best of each side, shielding
    // the ratio from one-off scheduler noise.
    let mut base_best = u128::MAX;
    let mut batch_best = u128::MAX;
    for _ in 0..3 {
        let (base_rates, base_ns) = run_per_candidate(&w, &mut arena);
        let (batch_rates, batch_ns) = run_batched(&w, &arena);
        assert_eq!(base_rates, batch_rates, "batched scoring must bit-match per-candidate solves");
        base_best = base_best.min(base_ns);
        batch_best = batch_best.min(batch_ns);
    }
    let speedup = base_best as f64 / batch_best as f64;
    let base_c = base_best as f64 / n_cand as f64;
    let batch_c = batch_best as f64 / n_cand as f64;

    // Parallel scenario fan-out: score the full candidate sweep under 16
    // hypothetical extra background flows, serial vs pooled. Each worker
    // chains warm solves across its scenario sequence: the warm solve
    // replays the freeze rounds the previous scenario's solve validated,
    // and the probe batch rides the warm-maintained log.
    let hypos: Vec<Vec<u32>> = (0..16u64)
        .map(|i| w.flows[(splitmix64(i ^ 0xF00) % w.flows.len() as u64) as usize].clone())
        .collect();
    let sweep = |ctx: &mut choreo_flowsim::ScenarioCtx, hypo: &Vec<u32>| {
        let bg = ctx.arena.add(hypo);
        let mut batch = ProbeBatch::new();
        for cand in &w.candidates {
            batch.push(cand);
        }
        let mut out = Vec::new();
        ctx.solve(&w.capacities);
        ctx.solver.probe_batch(&w.capacities, &ctx.arena, &batch, &mut out);
        ctx.arena.remove(bg);
        out.iter().map(|r| r.to_bits()).fold(0u64, |acc, b| acc.wrapping_add(b))
    };
    // One pool per side, reused across every round: the worker threads
    // spawn on the first `evaluate` and all later rounds ride the warm
    // pool (`pool_reuse` below), so the timed figure is steady-state
    // dispatch cost, not thread spawn.
    let serial_pool = ScenarioPool::new(1);
    let pooled_pool = ScenarioPool::default();
    // The pool sizes itself to the machine; report the honest worker
    // count, and skip the speedup comparison entirely on a single-core
    // runner — a "parallel" run there measures nothing but noise.
    let workers = pooled_pool.workers();
    let mut serial_best = u128::MAX;
    let mut pool_best = u128::MAX;
    let mut serial_digest = None;
    for _ in 0..3 {
        let t = Instant::now();
        let serial = serial_pool.evaluate(&arena, &hypos, sweep);
        serial_best = serial_best.min(t.elapsed().as_nanos());
        if let Some(prev) = serial_digest.replace(serial.clone()) {
            assert_eq!(prev, serial, "serial sweep must be deterministic across rounds");
        }
        if workers > 1 {
            let t = Instant::now();
            let pooled = pooled_pool.evaluate(&arena, &hypos, sweep);
            pool_best = pool_best.min(t.elapsed().as_nanos());
            assert_eq!(
                serial_digest.as_ref().unwrap(),
                &pooled,
                "scenario pool must be bit-identical to serial"
            );
        }
    }
    let pool_speedup = (workers > 1).then(|| serial_best as f64 / pool_best as f64);

    println!(
        "# placement candidate scoring: {n_cand} candidates, {n_flows} flows, {} hosts",
        w.hosts
    );
    println!("per-candidate\t{base_c:.0} ns/candidate");
    println!("batched\t\t{batch_c:.0} ns/candidate");
    println!("speedup\t\t{speedup:.2}x");
    match pool_speedup {
        Some(s) => println!("scenario pool\t{workers} workers\t{s:.2}x on 16 scenario sweeps"),
        None => println!("scenario pool\t1 worker\tspeedup comparison skipped (single core)"),
    }
    JsonReport::new("placement_candidate_batch")
        .int("hosts", w.hosts as u64)
        .int("flows", n_flows as u64)
        .int("candidates", n_cand as u64)
        .num("per_candidate_ns", base_c, 1)
        .num("batched_ns", batch_c, 1)
        .num("speedup", speedup, 3)
        .num("target_speedup", 3.0, 1)
        .int("pool_workers", workers as u64)
        .bool("pool_reuse", true)
        .opt_num("pool_speedup", pool_speedup, 3)
        .bool("pass", speedup >= 3.0)
        .write("BENCH_placement.json");
}
