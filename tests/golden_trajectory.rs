//! Pinned trajectories: the `FlowSim` engine's and the
//! `OnlineScheduler`'s.
//!
//! For the engine, one seeded program mixes every way a flow enters and leaves the
//! engine — scheduled bounded and unbounded flows, ON–OFF background
//! sources, `start_flow_now` / `stop_flows_now` / `release_flows` tenant
//! churn, a timed stop, and two bounded flows that finish in the same
//! instant — and folds every observable (`completion_time`,
//! `delivered_bytes`, `rate_bps` bits, and the recycled `FlowKey`s
//! themselves) into one FNV-1a digest. The constant was recorded before
//! the engine's per-flow state moved into slot-indexed columns; any
//! change to integration arithmetic, completion detection, rate
//! read-out or record recycling moves it. (The order simultaneous
//! completions retire in is pinned by a unit test beside the engine:
//! it decides slot reuse, which no public observable shows.)
//!
//! For the scheduler, each of the four runs `tests/harness` names as a
//! [`Golden`] — its tree, configuration and merged event stream at stream
//! seed 7 and network seed 11 — is replayed and its [`RunSummary`]
//! pinned.

mod harness;

use std::sync::Arc;

use choreo_repro::flowsim::{FlowKey, FlowSim, FlowStatus};
use choreo_repro::profile::ServiceEvent;
use choreo_repro::topology::route::splitmix64;
use choreo_repro::topology::{LinkSpec, MultiRootedTreeSpec, RouteTable, GBIT, MBIT, MICROS};
use harness::run::{replay, RunSummary};
use harness::Golden;

const MILLIS: u64 = 1_000_000;

fn fnv1a(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Fold everything the public API says about `key` right now.
fn observe(sim: &mut FlowSim, digest: u64, key: FlowKey) -> u64 {
    let mut d = fnv1a(digest, key.0 as u64);
    d = fnv1a(d, sim.completion_time(key).unwrap_or(u64::MAX));
    d = fnv1a(d, sim.delivered_bytes(key));
    fnv1a(d, sim.rate_bps(key).to_bits())
}

#[test]
fn seeded_mixed_traffic_trajectory_is_pinned() {
    let topo = Arc::new(
        MultiRootedTreeSpec {
            cores: 2,
            pods: 2,
            aggs_per_pod: 2,
            tors_per_pod: 2,
            hosts_per_tor: 3,
            ..Default::default()
        }
        .build(),
    );
    let routes = Arc::new(RouteTable::new(&topo));
    let mut sim = FlowSim::new(topo.clone(), routes, LinkSpec::new(4.2 * GBIT, 20 * MICROS), 7);
    let h = topo.hosts().to_vec();
    let n = h.len() as u64;
    let hose = sim.add_hose(300.0 * MBIT);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;

    // Background: two ON–OFF sources and a hosed unbounded flow that a
    // timed stop retires mid-run.
    sim.add_onoff(h[1], h[8], None, 30 * MILLIS, 20 * MILLIS, 0);
    sim.add_onoff(h[4], h[10], Some(hose), 15 * MILLIS, 25 * MILLIS, 5 * MILLIS);
    let timed = sim.start_flow(h[2], h[9], None, Some(hose), 3 * MILLIS, 500);
    sim.stop_flow_at(timed, 140 * MILLIS);

    // Two equal bounded flows between two hosts of one rack (one path, so
    // identical resource lists), started in the same instant: max-min
    // gives them the same rate through every reallocation, so they drain
    // in lockstep and finish in the same instant.
    let twin_a = sim.start_flow(h[0], h[1], Some(3_000_000), None, 0, 600);
    let twin_b = sim.start_flow(h[0], h[1], Some(3_000_000), None, 0, 601);

    // Tracked flows, harvested and released once they retire.
    let mut scheduled: Vec<FlowKey> = vec![timed, twin_a, twin_b];
    // Tenant-style flow sets driven through the immediate hooks.
    let mut tenants: Vec<Vec<FlowKey>> = Vec::new();

    for step in 0..120u64 {
        let r = splitmix64(0xC0FFEE ^ step);
        let (a, b) = (h[(r % n) as usize], h[((r >> 8) % n) as usize]);
        match (r >> 16) % 6 {
            // A scheduled bounded flow, a little in the future.
            0 | 1 => {
                let bytes = 20_000 + (r >> 24) % 2_000_000;
                let at = sim.now() + (r >> 48) % (3 * MILLIS);
                scheduled.push(sim.start_flow(a, b, Some(bytes), None, at, step));
            }
            // A tenant arrives: two or three immediate flows (one of them
            // bounded), all in one dirty window.
            2 | 3 => {
                let c = h[((r >> 32) % n) as usize];
                let mut set = vec![
                    sim.start_flow_now(a, b, None, None, 1_000 + step),
                    sim.start_flow_now(b, c, None, Some(hose), 1_000 + step),
                ];
                if r & 1 == 1 {
                    set.push(sim.start_flow_now(c, a, Some(400_000), None, 1_000 + step));
                }
                tenants.push(set);
            }
            // A tenant departs: observe, stop, observe again, release.
            4 if !tenants.is_empty() => {
                let set = tenants.remove((r >> 40) as usize % tenants.len());
                for &k in &set {
                    digest = observe(&mut sim, digest, k);
                }
                sim.stop_flows_now(&set);
                for &k in &set {
                    digest = observe(&mut sim, digest, k);
                }
                sim.release_flows(&set);
            }
            _ => {}
        }
        sim.run_until((step + 1) * 2 * MILLIS);
        for set in &tenants {
            for &k in set {
                digest = observe(&mut sim, digest, k);
            }
        }
        scheduled.retain(|&k| {
            digest = observe(&mut sim, digest, k);
            let done = matches!(sim.status(k), FlowStatus::Done(_));
            if done && k != twin_a && k != twin_b {
                sim.release_flow(k);
            }
            !done || k == twin_a || k == twin_b
        });
        digest = fnv1a(digest, sim.active_flows() as u64);
    }

    // Drain the bounded stragglers (tenants' unbounded flows and the
    // ON–OFF sources keep running underneath).
    let end = sim.run_to_completion();
    digest = fnv1a(digest, end);
    for &k in scheduled.iter().chain(tenants.iter().flatten()) {
        digest = observe(&mut sim, digest, k);
    }
    digest = fnv1a(digest, sim.flow_records() as u64);
    digest = fnv1a(digest, sim.peak_active_flows() as u64);

    let (ta, tb) = (sim.completion_time(twin_a), sim.completion_time(twin_b));
    assert!(ta.is_some() && ta == tb, "the twins must finish in the same instant: {ta:?} {tb:?}");
    assert_eq!(sim.delivered_bytes(twin_a), sim.delivered_bytes(twin_b));
    assert_eq!(digest, GOLDEN, "trajectory digest moved: {digest:#018x}");
}

/// Recorded at commit 7196337 (PR 13), the last with per-record `rate` /
/// `delivered` fields and all-slot scans.
const GOLDEN: u64 = 0x96d6_8730_6f98_01a9;

/// Assert a golden run's digest, mean departed rate and counters.
fn assert_pinned(run: &RunSummary, digest: u64, rate_bits: u64, counters: [u64; 8]) {
    let hash = run.trace_hash;
    assert_eq!(hash, digest, "scheduler digest moved: {hash:#018x}");
    assert_eq!(run.rate_bits, Some(rate_bits), "mean departed rate moved: {:x?}", run.rate_bits);
    assert_eq!(run.counters, counters, "counters moved: {:?}", run.counters);
}

/// The service golden: the 16-host tree of `tests/online.rs`, its tenant
/// stream merged with link incidents, and every scheduler path live
/// (admission, the wait queue, rejection, cadence and failure migration,
/// drift re-measurement). The digest folds every placement the greedy
/// placer makes against the live network, so a change to how candidate
/// pairs map to hosts, which direction they are rated in, or how the
/// placer memoises and combines rates moves it — none of which the
/// determinism and invariant suites can see.
#[test]
fn seeded_service_trajectory_is_pinned() {
    let run = replay(&mut Golden::Service.scheduler(), &Golden::Service.events(7, 11), |_, _| {});
    assert_pinned(&run, SERVICE_GOLDEN, SERVICE_RATE_BITS, SERVICE_COUNTERS);
}

/// Recorded at commit d77d9d0 (PR 24).
const SERVICE_GOLDEN: u64 = 0x4f9b_cecc_ee1f_6c68;
/// `mean_departed_rate_bps` bits of the same run.
const SERVICE_RATE_BITS: u64 = 0x41d4_c6fc_b664_5ac2;
/// `[admitted, queued, queue_admitted, rejected, migrations,
/// failure_migrations, network_events, drift_detected]` of the same run.
const SERVICE_COUNTERS: [u64; 8] = [12, 16, 13, 1, 5, 3, 42, 3];

/// The saturated golden, in the regime of the ledger's `steady-sim`. The
/// queue stays long, so every departure retries dozens of tenants, most
/// of which cannot fit — the path a change to how retries are skipped or
/// candidates are ranked takes.
#[test]
fn saturated_queue_trajectory_is_pinned() {
    let mut svc = Golden::Saturated.scheduler();
    let run = replay(&mut svc, &Golden::Saturated.events(7, 11), |_, _| {});
    assert_pinned(&run, SATURATED_GOLDEN, SATURATED_RATE_BITS, SATURATED_COUNTERS);
    // Four in five of the 1 112 attempts cannot be packed onto the
    // candidates' free CPU at all: the pre-check turns each back before
    // any rating, and never runs out of budget doing so.
    let attempts = svc.metrics().placement_latency.count();
    let pruned = (svc.stats().unpackable_skips, svc.stats().pack_undecided);
    assert_eq!(pruned, (892, 0), "unpackable and undecided of {attempts} attempts");
}

/// Recorded at commit d48c337, before the CPU-packing pre-check.
const SATURATED_GOLDEN: u64 = 0xd5c1_e2ab_d708_b24e;
/// `mean_departed_rate_bps` bits of the same run.
const SATURATED_RATE_BITS: u64 = 0x41d1_06c4_a984_9916;
/// The counters of [`SERVICE_COUNTERS`], for the same run.
const SATURATED_COUNTERS: [u64; 8] = [17, 117, 33, 0, 9, 2, 14, 2];

/// The failover golden, in the shape of the ledger's `failover-sim`. Most
/// events are network events, and whole switches fail and recover in one
/// instant, so this is the path a change to when a capacity change is
/// solved, or to how a `LinkFail` picks the tenants it forces into a
/// migration pass, takes.
#[test]
fn failover_trajectory_is_pinned() {
    let events = Golden::Failover.events(7, 11);
    // Network events that land in the same instant as the one before
    // them: a switch failing or recovering all its links at once.
    let same_instant = events
        .windows(2)
        .filter(
            |w| matches!(w, [ServiceEvent::Network(a), ServiceEvent::Network(b)] if a.at == b.at),
        )
        .count();
    assert_eq!(same_instant, FAILOVER_SAME_INSTANT, "same-instant network events");
    let run = replay(&mut Golden::Failover.scheduler(), &events, |_, _| {});
    assert_pinned(&run, FAILOVER_GOLDEN, FAILOVER_RATE_BITS, FAILOVER_COUNTERS);
    // A burst of capacity changes at one instant is solved once, by
    // whoever reads a rate next, not once per event.
    let warm = run.solve.warm_solves;
    assert_eq!(warm, FAILOVER_WARM_SOLVES, "warm solves");
    assert!(warm < FAILOVER_WARM_SOLVES_EAGER, "{warm} warm solves");
}

/// The 512-host golden, in the shape of the ledger's `scale-512`. The
/// only golden with more than four pods or four paths, so the only one
/// whose probes name many distinct racks and walk a deep solve log: the
/// path a change to how a probe resolves its route or finds its
/// bottleneck records takes. The probe counts pin that such a change
/// does the same work, not just that it answers the same.
#[test]
fn scale_512_trajectory_is_pinned() {
    let run = replay(&mut Golden::Scale512.scheduler(), &Golden::Scale512.events(7, 11), |_, _| {});
    assert_pinned(&run, SCALE_512_GOLDEN, SCALE_512_RATE_BITS, SCALE_512_COUNTERS);
    let p = run.solve;
    let probes = [p.probes, p.probe_batches, p.probe_replay_rounds];
    assert_eq!(probes, SCALE_512_PROBES, "probes, batches, replay rounds: {probes:?}");
}

/// Recorded at commit 07d1f4e.
const SCALE_512_GOLDEN: u64 = 0x2ba9_aac1_319f_fa43;
/// `mean_departed_rate_bps` bits of the same run.
const SCALE_512_RATE_BITS: u64 = 0x41cf_3154_3358_fab1;
/// The counters of [`SERVICE_COUNTERS`], for the same run.
const SCALE_512_COUNTERS: [u64; 8] = [156, 0, 0, 0, 0, 0, 0, 0];
/// `solve_stats()`' `[probes, probe_batches, probe_replay_rounds]` of the
/// same run.
const SCALE_512_PROBES: [u64; 3] = [25_468, 193, 851_700];

/// Recorded at commit 987edc3.
const FAILOVER_GOLDEN: u64 = 0xbdca_ebe7_9b6e_8b9d;
/// `mean_departed_rate_bps` bits of the same run.
const FAILOVER_RATE_BITS: u64 = 0x41cf_fdf6_aebb_ed73;
/// The counters of [`SERVICE_COUNTERS`], for the same run.
const FAILOVER_COUNTERS: [u64; 8] = [11, 97, 34, 0, 17, 17, 1_307, 45];
/// Same-instant network events in the stream.
const FAILOVER_SAME_INSTANT: usize = 341;
/// Warm solves of the same run, solving only where a rate is read.
const FAILOVER_WARM_SOLVES: u64 = 1_243;
/// Warm solves of the same run at commit 987edc3, where every advance
/// solved, whether or not the clock moved.
const FAILOVER_WARM_SOLVES_EAGER: u64 = 1_411;
