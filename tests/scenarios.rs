//! Whole-service robustness scenarios, asserted on simulated outcomes
//! only: link and switch failover recovery, the offered-load rejection
//! knee, the adversarial workload shapes against the nominal stream,
//! a 2 048-host cluster whose route table has to fit, what a 240-pair
//! probe batch on 512 hosts costs in solve-log rounds, and how many of
//! the rounds a warm solve carries have work to do. Fixed
//! topologies, streams and seeds; determinism across repeats is
//! `tests/online.rs`'s job, timing is the perf ledger's
//! (`BENCHMARK.json`).
//!
//! The failover and warm-solve scenarios run the saturated golden's
//! tenant stream (`tests/harness/saturated.rs`) on trees of their own;
//! every stream is built and replayed by `tests/harness/run.rs`.

#[path = "harness/run.rs"]
mod run;
#[path = "harness/saturated.rs"]
mod saturated;

use std::sync::Arc;

use choreo_repro::flowsim::FlowSim;
use choreo_repro::online::{DriftConfig, OnlineConfig, OnlineScheduler, SchedulerBuilder};
use choreo_repro::profile::{
    switch_link_groups, AppPattern, FlashCrowdConfig, NetworkEvent, NetworkEventKind, ServiceEvent,
    WorkloadGenConfig, WorkloadStreamConfig,
};
use choreo_repro::topology::{MultiRootedTreeSpec, NodeId, RouteTable, Topology, SECS};
use run::{merged, replay};

/// `pods` × 4 ToRs × 4 hosts under two cores: 8 pods is the 128-host
/// service cluster, 2 pods the 32-host one the load scenarios squeeze.
fn tree(pods: usize) -> Arc<Topology> {
    let spec = MultiRootedTreeSpec {
        cores: 2,
        pods,
        aggs_per_pod: 2,
        tors_per_pod: 4,
        hosts_per_tor: 4,
        ..Default::default()
    };
    let topo = spec.build();
    assert_eq!(topo.hosts().len(), pods * 16);
    Arc::new(topo)
}

fn service(topo: &Arc<Topology>, cfg: OnlineConfig) -> OnlineScheduler {
    let routes = Arc::new(RouteTable::new(topo));
    SchedulerBuilder::new(Arc::clone(topo), routes).config(cfg).seed(42).build()
}

/// The first `n` events of the saturated golden's tenant stream.
fn steady(n: usize) -> Vec<ServiceEvent> {
    merged(saturated::stream(), 7, n, None)
}

/// Drift re-measurement every 5 s, so three epochs fall inside a 16 s
/// outage.
fn failover_cfg() -> OnlineConfig {
    OnlineConfig { drift: DriftConfig { cadence: Some(5 * SECS) }, ..Default::default() }
}

fn set_links(svc: &mut OnlineScheduler, at: u64, links: &[u32], kind: NetworkEventKind) {
    for &link in links {
        svc.network_step(&NetworkEvent { at, link, kind });
    }
}

/// The shared tail of both failover scenarios: repair `links` a second
/// after the outage window closed, let re-measurement epochs settle,
/// and require the drift detector plus forced migration passes to have
/// carried the tenants back to at least half their pre-failure mean
/// networked rate.
fn recover_and_check(svc: &mut OnlineScheduler, t0: u64, links: &[u32], prefail: f64) {
    svc.advance_to(t0 + 16 * SECS);
    set_links(svc, t0 + 17 * SECS, links, NetworkEventKind::LinkRecover);
    svc.advance_to(t0 + 60 * SECS);
    let recovered = svc.mean_networked_score().expect("tenants still running");
    assert!(
        recovered / prefail >= 0.5,
        "tenants recovered only {:.2}x of their pre-failure rate (need >= 0.5x)",
        recovered / prefail
    );
    assert!(svc.stats().failure_migrations >= 1, "no forced migration answered the outage");
}

#[test]
fn link_failover_recovers_half_the_prefailure_rate() {
    let topo = tree(8);
    let mut svc = service(&topo, failover_cfg());
    replay(&mut svc, &steady(2_500), |_, _, _| {});
    let t0 = svc.now();
    let prefail = svc.mean_networked_score().expect("networked tenants running");
    let failed: Vec<u32> = (0..topo.links().len() as u32).step_by(4).collect();
    set_links(&mut svc, t0 + SECS, &failed, NetworkEventKind::LinkFail);
    recover_and_check(&mut svc, t0, &failed, prefail);
    assert!(svc.stats().drift_detected >= 1, "the drift detector never fired");
}

#[test]
fn switch_outage_under_tenant_churn_recovers_and_stays_consistent() {
    let topo = tree(8);
    let group = switch_link_groups(&topo, 4)
        .into_iter()
        .max_by_key(Vec::len)
        .expect("the tree has core switches");
    let mut svc = service(&topo, failover_cfg());
    let events = steady(3_000);
    replay(&mut svc, &events[..2_500], |_, _, _| {});
    let t0 = svc.now();
    let prefail = svc.mean_networked_score().expect("networked tenants running");
    set_links(&mut svc, t0, &group, NetworkEventKind::LinkFail);
    // Tenant events keep landing while the switch is dark.
    let dark = &events[2_500..];
    let dark = &dark[..dark.partition_point(|ev| ev.at() <= t0 + 16 * SECS)];
    assert!(dark.len() < 500, "the outage outlasts the generated stream");
    replay(&mut svc, dark, |_, _, _| {});
    recover_and_check(&mut svc, t0, &group, prefail);
    svc.check_invariants();
}

/// The load scenarios' base stream: nominal is one arrival per 30 s
/// against the 32-host cluster.
fn load_cfg() -> WorkloadStreamConfig {
    WorkloadStreamConfig {
        gen: WorkloadGenConfig {
            tasks_min: 4,
            tasks_max: 8,
            mean_interarrival: 30 * SECS,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// 2 000 events of `cfg` (stream seed 13) through a fresh 32-host
/// service whose wait queue holds 8, so pressure shows up in the
/// queue/reject counters instead of disappearing into slack.
fn run_squeezed(topo: &Arc<Topology>, cfg: WorkloadStreamConfig) -> OnlineScheduler {
    let mut svc = service(topo, OnlineConfig { queue_capacity: 8, ..Default::default() });
    replay(&mut svc, &merged(cfg, 13, 2_000, None), |_, _, _| {});
    svc
}

#[test]
fn offered_load_sweep_finds_a_rejection_knee_above_nominal() {
    let topo = tree(2);
    let rejected: Vec<(u64, u64)> = [1u64, 2, 4, 8]
        .into_iter()
        .map(|mult| {
            let mut cfg = load_cfg();
            cfg.gen.mean_interarrival = 30 * SECS / mult;
            (mult, run_squeezed(&topo, cfg).stats().rejected)
        })
        .collect();
    assert_eq!(rejected[0].1, 0, "nominal load must be rejection-free");
    let knee = rejected.iter().find(|(_, r)| *r > 0).map(|(mult, _)| *mult);
    assert!(knee.is_some_and(|mult| mult > 1), "no rejection knee above nominal: {rejected:?}");
}

#[test]
fn workload_shapes_spend_the_headroom_nominal_load_keeps() {
    let topo = tree(2);
    let nominal = run_squeezed(&topo, load_cfg());
    assert_eq!(nominal.stats().rejected, 0, "nominal shape baseline must be rejection-free");
    assert!(nominal.stats().mean_departed_rate_bps().is_some(), "nominal saw no departures");

    let mut heavy_tail = load_cfg();
    heavy_tail.gen.tasks_max = 16;
    heavy_tail.gen.heavy_tail = true;
    let heavy_tail = run_squeezed(&topo, heavy_tail);
    assert!(
        heavy_tail.stats().queued >= nominal.stats().queued,
        "heavy-tailed tenants queued less than nominal — shape not biting"
    );

    let flash_knee = [2u64, 4, 8, 16].into_iter().find(|&peak| {
        let mut cfg = load_cfg();
        cfg.gen.flash_crowd = Some(FlashCrowdConfig {
            mean_time_between: 1200 * SECS,
            peak_multiplier: peak as f64,
            onset: 5 * SECS,
            decay: 180 * SECS,
        });
        run_squeezed(&topo, cfg).stats().rejected > 0
    });
    assert!(flash_knee.is_some(), "the peak sweep must locate a flash-crowd rejection knee");

    let mut cross_pod = load_cfg();
    cross_pod.gen.patterns = vec![AppPattern::CrossPod];
    let cross_pod = run_squeezed(&topo, cross_pod);
    assert!(cross_pod.stats().mean_departed_rate_bps().is_some(), "cross-pod saw no departures");
}

/// How much of a warm solve's walk a perturbation touches. The walk
/// carries every logged round, but only the rounds that hold a chain of
/// deltas for a perturbed resource do work there; the clean rest is a
/// compare and a copy. The split is a pure function of the stream, so
/// it is pinned here to the round.
#[test]
fn warm_solves_carry_mostly_clean_rounds() {
    let topo = tree(2);
    let st =
        replay(&mut service(&topo, OnlineConfig::default()), &steady(1_000), |_, _, _| {}).solve;
    let split = (st.warm_solves, st.replayed_rounds, st.chained_rounds);
    assert_eq!(split, (272, 5_458, 2_019), "{st:?}");
    assert!(2 * st.chained_rounds < st.replayed_rounds, "{st:?}");
}

#[test]
fn a_2048_host_cluster_fits_and_schedules() {
    let spec = MultiRootedTreeSpec {
        cores: 8,
        pods: 16,
        aggs_per_pod: 4,
        tors_per_pod: 16,
        hosts_per_tor: 8,
        ..Default::default()
    };
    let topo = Arc::new(spec.build());
    assert_eq!(topo.hosts().len(), 2048);
    let routes = Arc::new(RouteTable::with_max_paths(&topo, 4));
    assert!(
        routes.heap_bytes() <= 16 << 20,
        "route table holds {} bytes for 2 048 hosts",
        routes.heap_bytes()
    );
    let run = || {
        let mut svc =
            SchedulerBuilder::new(Arc::clone(&topo), Arc::clone(&routes)).seed(42).build();
        let cfg = WorkloadStreamConfig {
            gen: WorkloadGenConfig {
                tasks_min: 3,
                tasks_max: 6,
                mean_interarrival: SECS / 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = replay(&mut svc, &merged(cfg, 7, 3_000, None), |svc, i, _| {
            if i % 64 == 0 {
                svc.check_invariants();
            }
        });
        svc.check_invariants();
        // The engine's per-walk probe memo: one 32-byte record per
        // ordered pair of the 256 ToRs.
        let memo = svc.sim_mut().walk_memo_bytes();
        assert!(memo <= 4 << 20, "walk memo holds {memo} bytes for 2 048 hosts");
        assert_eq!(memo, 32 * 256 * 256);
        run
    };
    let first = run();
    assert_eq!(first, run(), "two identical runs diverged");
    // `[admitted, queued, queue_admitted, rejected, ..]`.
    let admitted = first.counters[0] + first.counters[2];
    assert!(admitted >= 400, "only {admitted} tenants admitted");
    assert_eq!(first.counters[3], 0, "a 2 048-host cluster at this load rejects nobody");
}

#[test]
fn a_probe_batch_walks_the_log_once_per_distinct_resource() {
    // The scheduler's first-transfer batch on the 512-host tree: all 240
    // ordered pairs of 16 candidate hosts, against 300 running flows.
    let topo = tree(32);
    let routes = Arc::new(RouteTable::new(&topo));
    let hosts = topo.hosts().to_vec();
    // Flows run between odd hosts, candidates are even ones: like the
    // scheduler's pick (most free CPU), idle — their shares stay above
    // most logged levels, so a walk goes deep into the log.
    let flows: Vec<(NodeId, NodeId)> =
        (0..300).map(|i| (hosts[(i * 37 % 512) | 1], hosts[((i * 101 + 7) % 512) | 1])).collect();
    let sim_with = |flows: &[(NodeId, NodeId)]| {
        let mut sim = FlowSim::new(Arc::clone(&topo), Arc::clone(&routes), 42);
        for (tag, &(src, dst)) in flows.iter().enumerate() {
            sim.start_flow_now(src, dst, None, None, tag as u64);
        }
        sim
    };
    let cand: Vec<NodeId> = (0..16).map(|i| hosts[i * 32]).collect();
    let extra = (cand[0], cand[1]);
    let mut batch = Vec::new();
    for &src in &cand {
        batch.extend(cand.iter().filter(|&&dst| dst != src).map(|&dst| (src, dst, None)));
    }
    assert_eq!(batch.len(), 240);
    let mut named = Vec::new();
    for &(src, dst, _) in &batch {
        named.extend(routes.path(src, dst, 0).hops().iter().map(|hop| hop.index()));
    }
    named.sort_unstable();
    named.dedup();
    // Hosts in 16 different racks: two access directions each, plus the
    // fabric links their first equal-cost paths cross.
    assert!(named.len() * 2 < batch.len(), "240 pairs name {} resources", named.len());

    let mut sim = sim_with(&flows);
    sim.check_rates_against_cold();
    let solved = sim.solve_stats();
    let rounds = solved.live_rounds + solved.replayed_rounds;
    assert_eq!((solved.cold_solves + solved.warm_solves, rounds > 40), (1, true), "{solved:?}");

    // One walk per distinct resource, whatever the candidate count (a
    // walk per candidate would be 240 × `rounds` here)...
    let (mut first, mut again) = (Vec::new(), Vec::new());
    sim.probe_rates(&batch, &mut first);
    let walked = sim.solve_stats().probe_replay_rounds;
    assert!(walked > 0 && walked <= named.len() as u64 * rounds, "{walked} of {rounds} rounds");
    // ...and none when nothing was solved in between.
    sim.probe_rates(&batch, &mut again);
    assert_eq!(sim.solve_stats().probe_replay_rounds, walked, "the repeat walked the log");
    assert_eq!(sim.solve_stats().probes, 480);
    assert_eq!(first, again);

    // A flow start re-solves (warm): the records go with the old log,
    // the batch walks the new one, and says what a simulator that
    // cold-solved the same flow set says to each pair alone.
    sim.start_flow_now(extra.0, extra.1, None, None, 300);
    sim.probe_rates(&batch, &mut again);
    let rewalked = sim.solve_stats().probe_replay_rounds - walked;
    assert!(rewalked > 0, "stale records served a new log");
    assert_eq!(sim.solve_stats().warm_solves, solved.warm_solves + 1);
    let mut cold = sim_with(&[&flows[..], &[extra]].concat());
    let mut alone = Vec::new();
    for (&(src, dst, _), got) in batch.iter().zip(&again) {
        cold.probe_rates(&[(src, dst, None)], &mut alone);
        let want = alone[0];
        assert_eq!(got.to_bits(), want.to_bits(), "{src:?} -> {dst:?}: {got} vs cold {want}");
    }
    assert_eq!(cold.solve_stats().cold_solves, 1, "{:?}", cold.solve_stats());
    assert_ne!(first, again, "the new flow moved no candidate's rate");
}
