//! Property tests for the online placement service: whole service runs
//! are deterministic (bit-identical across repeats), admission never
//! violates the capacity / queue / validity invariants at any point of
//! any run, and every 16th event the simulator's rates are bit-checked
//! against a from-scratch cold solve.
//!
//! Every stream here is the service golden's (`tests/harness/service.rs`:
//! its tree, tenant stream, link incidents and configuration) at other
//! seeds, shapes and configurations, built and replayed by
//! `tests/harness/run.rs`.

#[path = "harness/run.rs"]
mod run;
#[path = "harness/service.rs"]
mod service;

use std::sync::Arc;

use choreo_repro::metrics::parse::parse;
use choreo_repro::metrics::span::{self, RegistrySpans};
use choreo_repro::metrics::Registry;
use choreo_repro::online::{
    DriftConfig, OnlineConfig, OnlineScheduler, PlacementPolicy, SchedulerBuilder, ServiceStats,
};
use choreo_repro::profile::{
    switch_link_groups, AppPattern, AppProfile, CorrelatedBatchConfig, FlashCrowdConfig,
    HeavyTailConfig, NetworkEventStreamConfig, ServiceEvent, SwitchFailureConfig, TenantEvent,
    TenantEventKind, TrafficMatrix,
};
use choreo_repro::topology::{RouteTable, SECS};
use proptest::prelude::*;
use run::{merged, replay, RunSummary};

/// A scheduler on the service golden's 16-host tree.
fn builder(cfg: OnlineConfig, seed: u64) -> SchedulerBuilder {
    let topo = Arc::new(service::tree());
    let routes = Arc::new(RouteTable::new(&topo));
    SchedulerBuilder::new(topo, routes).config(cfg).seed(seed)
}

/// `n` events of the service golden's tenant stream at `seed`, without
/// link incidents.
fn tenants(seed: u64, n: usize) -> Vec<ServiceEvent> {
    merged(service::stream(), seed, n, None)
}

/// The service golden's configuration under `policy`, without drift
/// re-measurement.
fn service_cfg(policy: PlacementPolicy) -> OnlineConfig {
    OnlineConfig { policy, drift: DriftConfig::default(), ..service::config() }
}

/// Events between two `FlowSim::check_rates_against_cold` calls in the
/// checked runs.
const COLD_CHECK_EVERY: usize = 16;

/// The per-event checks of every checked run: the scheduler's safety
/// invariants, and on every [`COLD_CHECK_EVERY`]th event the simulator's
/// warm-chained rates against the cold reference solve.
fn check_after_event(svc: &mut OnlineScheduler, i: usize) {
    svc.check_invariants();
    if i.is_multiple_of(COLD_CHECK_EVERY) {
        svc.sim_mut().check_rates_against_cold();
    }
}

/// Replay `evs` through a fresh scheduler, checking the safety invariants
/// after every event.
fn run_checked(cfg: OnlineConfig, seed: u64, evs: &[ServiceEvent]) -> RunSummary {
    replay(&mut builder(cfg, seed).build(), evs, check_after_event)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn service_runs_are_deterministic_and_safe(
        stream_seed in 0u64..1000,
        sim_seed in 0u64..1000,
    ) {
        let evs = tenants(stream_seed, 250);
        // Admission invariants hold after every event, and a repeat of
        // the run lands on the identical trajectory.
        let a = run_checked(service_cfg(PlacementPolicy::Greedy), sim_seed, &evs);
        let b = run_checked(service_cfg(PlacementPolicy::Greedy), sim_seed, &evs);
        prop_assert_eq!(a, b, "same stream + seed must replay bit-identically");
    }
}

/// Reads one [`ServiceStats`] counter.
type StatsField = fn(&ServiceStats) -> u64;

/// Every counter the scheduler exports, with the [`ServiceStats`] field
/// it must equal.
const EXPORTED_COUNTERS: [(&str, StatsField); 14] = [
    ("choreo_service_events_total", |s| s.events),
    ("choreo_admitted_total", |s| s.admitted),
    ("choreo_queued_total", |s| s.queued),
    ("choreo_queue_admitted_total", |s| s.queue_admitted),
    ("choreo_rejected_total", |s| s.rejected),
    ("choreo_duplicate_arrivals_total", |s| s.duplicate_arrivals),
    ("choreo_departures_total", |s| s.departures),
    ("choreo_intensity_changes_total", |s| s.intensity_changes),
    ("choreo_migration_passes_total", |s| s.migration_passes),
    ("choreo_migrations_total", |s| s.migrations),
    ("choreo_link_events_total", |s| s.network_events),
    ("choreo_drift_detected_total", |s| s.drift_detected),
    ("choreo_failure_migrations_total", |s| s.failure_migrations),
    ("choreo_failure_rejected_total", |s| s.failure_rejections),
];

/// Parse `registry`'s exposition and check its unlabeled
/// `choreo_*_total` counters against the ledger: exactly the
/// [`EXPORTED_COUNTERS`] are exported, each equal to its field.
fn assert_counters_match(registry: &Registry, stats: &ServiceStats, after: &str) {
    let families = parse(&registry.render()).expect("the exposition parses");
    let mut exported: Vec<(&str, f64)> = families
        .iter()
        .filter(|f| {
            f.kind == "counter" && f.name.starts_with("choreo_") && f.name.ends_with("_total")
        })
        .flat_map(|f| f.samples.iter().filter(|s| s.labels.is_empty()))
        .map(|s| (s.name.as_str(), s.value))
        .collect();
    exported.sort_by_key(|&(name, _)| name);
    let mut expected: Vec<(&str, f64)> =
        EXPORTED_COUNTERS.iter().map(|&(name, field)| (name, field(stats) as f64)).collect();
    expected.sort_by_key(|&(name, _)| name);
    assert_eq!(exported, expected, "exported counters against the ledger after {after}");
}

/// Like [`run_checked`], but with the whole observability stack live:
/// registered metric families behind a real [`Registry`], the
/// solver-phase span recorder installed, and the decision trace
/// rendered to JSONL both mid-run and at the end. Each event is driven
/// as the service and the perf ledger drive it, `advance_to` and then
/// the event, plus a forced migration pass after every `force_every`th
/// event when given. After each of those public calls every exported
/// counter must equal its [`ServiceStats`] field. Every piece is
/// observational-only, so a run without forced passes must match the
/// bare run's summary bit for bit.
fn run_instrumented(
    cfg: OnlineConfig,
    seed: u64,
    evs: &[ServiceEvent],
    force_every: Option<usize>,
) -> (RunSummary, ServiceStats) {
    let registry = Arc::new(Registry::new());
    span::install(RegistrySpans::new(Arc::clone(&registry)));
    let mut svc = builder(cfg, seed).metrics_registry(&registry).build();
    let advance = |svc: &mut OnlineScheduler, i: usize| {
        svc.advance_to(evs[i].at());
        assert_counters_match(&registry, svc.stats(), &format!("advance_to before event {i}"));
    };
    advance(&mut svc, 0);
    let run = replay(&mut svc, evs, |svc, i| {
        assert_counters_match(&registry, svc.stats(), &format!("event {i}"));
        if force_every.is_some_and(|k| i % k == k - 1) {
            svc.force_migration_pass();
            assert_counters_match(&registry, svc.stats(), &format!("a pass after event {i}"));
        }
        check_after_event(svc, i);
        if i % 64 == 0 {
            // Exporting mid-run must not perturb the trajectory either.
            let _ = svc.stats().decisions().to_jsonl(16);
        }
        if i + 1 < evs.len() {
            advance(svc, i + 1);
        }
    });
    span::uninstall();
    let trace = svc.stats().decisions().to_jsonl(usize::MAX);
    assert!(!trace.is_empty(), "a busy run must leave a decision trace");
    (run, svc.stats().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn instrumentation_never_changes_the_trajectory(
        stream_seed in 0u64..1000,
        sim_seed in 0u64..1000,
    ) {
        let evs = tenants(stream_seed, 250);
        let bare = run_checked(service_cfg(PlacementPolicy::Greedy), sim_seed, &evs);
        // Live recorder + families + trace export: the digest may never
        // move.
        let (instr, _) =
            run_instrumented(service_cfg(PlacementPolicy::Greedy), sim_seed, &evs, None);
        prop_assert_eq!(bare, instr, "instrumented run diverged");
    }
}

/// A fault-laden service stream: the service golden's tenant and link
/// incident streams at the given seeds.
fn fault_events(stream_seed: u64, net_seed: u64, n: usize) -> Vec<ServiceEvent> {
    let network = service::network(&service::tree());
    merged(service::stream(), stream_seed, n, Some((network, net_seed)))
}

proptest! {
    // The chaos suite: CI re-runs it at PROPTEST_CASES=256.
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(6)))]
    #[test]
    fn fault_laden_runs_are_deterministic_and_safe(
        stream_seed in 0u64..1000,
        net_seed in 0u64..1000,
    ) {
        let evs = fault_events(stream_seed, net_seed, 200);
        // The stream must actually carry faults, or the property is
        // vacuous.
        prop_assert!(evs.iter().any(|e| matches!(e, ServiceEvent::Network(_))));
        // Invariants hold after every tenant AND network event, and the
        // whole fault-laden trajectory replays bit-identically.
        let a = run_checked(service::config(), 7, &evs);
        let b = run_checked(service::config(), 7, &evs);
        prop_assert_eq!(a, b, "same streams + seed must replay bit-identically");
        prop_assert!(a.counters[6] > 0, "network events must have been consumed");
    }
}

#[test]
fn exported_counters_equal_the_ledger_after_every_call() {
    // A fault-laden stream with drift re-measurement on, about one
    // arrival in seven delivered twice, a one-slot wait queue and a
    // forced pass every 40 events, so that every exported counter moves:
    // the check after each call must see each one published, not merely
    // present.
    let mut evs = Vec::new();
    for (i, ev) in fault_events(3, 5, 1000).into_iter().enumerate() {
        let resend = match &ev {
            ServiceEvent::Tenant(t) if matches!(t.kind, TenantEventKind::Arrive { .. }) => {
                (i % 7 == 0).then(|| ev.clone())
            }
            _ => None,
        };
        evs.push(ev);
        evs.extend(resend);
    }
    let cfg = OnlineConfig { queue_capacity: 1, ..service::config() };
    let (_, s) = run_instrumented(cfg, 7, &evs, Some(40));
    for (name, field) in EXPORTED_COUNTERS {
        assert!(field(&s) > 0, "{name} never moved, so its check proves nothing");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn random_baseline_is_also_deterministic_and_safe(
        stream_seed in 0u64..1000,
    ) {
        let evs = tenants(stream_seed, 200);
        let a = run_checked(service_cfg(PlacementPolicy::Random(5)), 1, &evs);
        let b = run_checked(service_cfg(PlacementPolicy::Random(5)), 1, &evs);
        prop_assert_eq!(a, b);
        // A different placement seed is a genuinely different service.
        let c = run_checked(service_cfg(PlacementPolicy::Random(6)), 1, &evs);
        prop_assert!(a.trace_hash != c.trace_hash, "random seed must matter");
    }
}

// ------------------------------------------------------ hostile shapes

/// The adversarial stream shapes, by index: heavy-tailed tenant sizes,
/// flash-crowd surges, correlated arrival batches, correlated
/// switch-level failures, and the cross-pod adversarial pattern.
const N_SHAPES: u8 = 5;

/// A fault-laden stream of [`fault_events`] in one adversarial shape.
/// Shapes 0–2 and 4 reshape the tenant stream; shape 3 keeps nominal
/// tenants and turns the network stream into correlated whole-switch
/// incidents.
fn shape_events(shape: u8, stream_seed: u64, net_seed: u64, n: usize) -> Vec<ServiceEvent> {
    let mut stream = service::stream();
    let gen = &mut stream.gen;
    match shape {
        0 => {
            gen.tasks_max = 12;
            gen.heavy_tail = Some(HeavyTailConfig::default());
        }
        1 => {
            gen.flash_crowd = Some(FlashCrowdConfig {
                mean_time_between: 120 * SECS,
                peak_multiplier: 10.0,
                onset: 2 * SECS,
                decay: 30 * SECS,
            });
        }
        2 => {
            gen.correlated_batches = Some(CorrelatedBatchConfig {
                mean_time_between: 60 * SECS,
                size_min: 5,
                size_max: 9,
                window: 2 * SECS,
            });
        }
        3 => {}
        4 => {
            gen.patterns = vec![AppPattern::CrossPod];
        }
        _ => unreachable!("shape index"),
    }
    let topo = service::tree();
    let network = NetworkEventStreamConfig {
        switch_failures: (shape == 3).then(|| SwitchFailureConfig {
            groups: switch_link_groups(&topo, 2),
            switch_prob: 0.7,
        }),
        ..service::network(&topo)
    };
    merged(stream, stream_seed, n, Some((network, net_seed)))
}

proptest! {
    // The hostile-shape chaos suite: every adversarial stream shape
    // must keep the safety invariants after every event and replay
    // bit-identically. CI re-runs it at PROPTEST_CASES=256.
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(5)))]
    #[test]
    fn shape_runs_are_deterministic_and_safe(
        shape in 0u8..N_SHAPES,
        stream_seed in 0u64..1000,
        net_seed in 0u64..1000,
    ) {
        let evs = shape_events(shape, stream_seed, net_seed, 150);
        let a = run_checked(service::config(), 7, &evs);
        let b = run_checked(service::config(), 7, &evs);
        prop_assert_eq!(a, b, "shape {} must replay bit-identically", shape);
    }
}

#[test]
fn every_shape_smokes_through_a_long_run() {
    // One deterministic longer run per shape: the stream must survive
    // end to end with invariants intact, and the shape must actually
    // fire (arrivals happen, and for shape 3 correlated incidents hit).
    for shape in 0..N_SHAPES {
        let evs = shape_events(shape, 11, 13, 400);
        let run = run_checked(service::config(), 5, &evs);
        assert_ne!(run.trace_hash, 0, "shape {shape} produced a trajectory");
        if shape == 3 {
            assert!(run.counters[6] > 0, "switch-failure shape must hit the network");
            // Correlated incident: at least one instant with 2+ fails.
            let fails: Vec<_> = evs
                .iter()
                .filter_map(|e| match e {
                    ServiceEvent::Network(n)
                        if matches!(n.kind, choreo_repro::profile::NetworkEventKind::LinkFail) =>
                    {
                        Some(n.at)
                    }
                    _ => None,
                })
                .collect();
            assert!(
                fails.windows(2).any(|w| w[0] == w[1]),
                "at least one correlated multi-link incident in the stream"
            );
        }
    }
}

// ------------------------------------------- satellite-bug regressions

/// An application no host can run: per-task CPU above the per-host
/// capacity, so placement always fails and the tenant queues/rejects.
fn infeasible_app(name: &str) -> AppProfile {
    let mut m = TrafficMatrix::zeros(2);
    m.set(0, 1, 1_000_000);
    AppProfile::new(name, vec![64.0, 64.0], m, 0)
}

#[test]
fn depart_after_reject_is_not_counted_as_a_departure() {
    // Regression (PR 9): `depart` used to bump `stats.departures` and
    // the metric counter before discovering the tenant had been
    // rejected at arrival, so rejected tenants' Depart events
    // overcounted departures against admissions.
    let mut svc = builder(service_cfg(PlacementPolicy::Greedy), 1).build();
    let cap = svc.config().queue_capacity as u64;
    // Fill the wait queue with unplaceable tenants, then overflow it.
    for id in 0..=cap {
        svc.step(&TenantEvent {
            at: 10 + id,
            tenant: id,
            kind: TenantEventKind::Arrive { app: Box::new(infeasible_app("stuck")) },
        });
    }
    let s = svc.stats();
    assert_eq!((s.queued, s.rejected), (cap, 1), "queue full, last arrival rejected");
    // Depart of the REJECTED tenant: nothing was ever admitted or
    // queued for it, so nothing departs.
    svc.step(&TenantEvent { at: 100, tenant: cap, kind: TenantEventKind::Depart });
    assert_eq!(svc.stats().departures, 0, "depart-after-reject is a no-op");
    // Depart of a QUEUED tenant is a real teardown (queued-drop).
    svc.step(&TenantEvent { at: 110, tenant: 0, kind: TenantEventKind::Depart });
    assert_eq!(svc.stats().departures, 1, "queued-drop counts");
    svc.check_invariants();
    // The no-op is still digested: a run with the phantom Depart and a
    // run without it must not collide on the same trajectory hash.
    let run = |with_phantom: bool| {
        let mut svc = builder(service_cfg(PlacementPolicy::Greedy), 1).build();
        for id in 0..=cap {
            svc.step(&TenantEvent {
                at: 10 + id,
                tenant: id,
                kind: TenantEventKind::Arrive { app: Box::new(infeasible_app("stuck")) },
            });
        }
        if with_phantom {
            svc.step(&TenantEvent { at: 100, tenant: cap, kind: TenantEventKind::Depart });
        }
        svc.stats().trace_hash()
    };
    assert_ne!(run(true), run(false), "phantom departs stay visible to the digest");
}

#[test]
fn queued_tenant_intensity_survives_to_queue_admit() {
    // Regression (PR 9): `set_intensity` silently dropped the event for
    // tenants waiting in the queue and `admit` hard-coded intensity 1,
    // so a tenant admitted via retry ran at the wrong intensity for its
    // whole life (the stream never resends the change).
    let cfg = OnlineConfig { candidate_hosts: 16, queue_capacity: 4, ..Default::default() };
    let mut svc = builder(cfg, 1).build();
    let cores = svc.machines().cpu[0];
    let n_hosts = svc.machines().len();
    // Tenant 0 fills every core of every host.
    let mut m = TrafficMatrix::zeros(n_hosts);
    m.set(0, 1, 1_000_000);
    let filler = AppProfile::new("filler", vec![cores; n_hosts], m, 0);
    svc.step(&TenantEvent {
        at: 10,
        tenant: 0,
        kind: TenantEventKind::Arrive { app: Box::new(filler) },
    });
    assert_eq!(svc.active_tenants(), 1, "filler admitted");
    // Tenant 1 cannot fit and queues; its two tasks need separate hosts
    // once admitted (per-task CPU = a whole host), so its transfer is
    // networked and the intensity is observable as a flow count.
    let mut m = TrafficMatrix::zeros(2);
    m.set(0, 1, 5_000_000);
    let waiter = AppProfile::new("waiter", vec![cores, cores], m, 0);
    svc.step(&TenantEvent {
        at: 20,
        tenant: 1,
        kind: TenantEventKind::Arrive { app: Box::new(waiter) },
    });
    assert_eq!(svc.queue_len(), 1, "waiter queued");
    // The intensity change lands while tenant 1 is still waiting.
    svc.step(&TenantEvent {
        at: 30,
        tenant: 1,
        kind: TenantEventKind::SetIntensity { intensity: 3 },
    });
    assert_eq!(svc.tenant_intensity(1), None, "still queued, not running");
    // Departure frees the cluster; the retry admits tenant 1 — at the
    // intensity it asked for, not the hard-coded 1.
    svc.step(&TenantEvent { at: 40, tenant: 0, kind: TenantEventKind::Depart });
    assert_eq!(svc.queue_len(), 0, "waiter admitted on retry");
    assert_eq!(svc.tenant_intensity(1), Some(3), "queued intensity applied at QueueAdmit");
    // check_invariants asserts every networked transfer carries exactly
    // `intensity` flows — the round trip is structurally consistent.
    svc.check_invariants();
    let placement = svc.tenant_placement(1).expect("running");
    assert_ne!(
        placement.assignment[0], placement.assignment[1],
        "waiter's transfer is networked, so the intensity was observable"
    );
}

#[test]
fn long_run_reaches_steady_state_churn() {
    // One longer deterministic run as a smoke test that all lifecycle
    // paths (admission, queueing, departure retries, intensity changes,
    // migration passes) actually fire under the default stream.
    let mut svc = builder(service_cfg(PlacementPolicy::Greedy), 3).build();
    replay(&mut svc, &tenants(11, 900), |_, _| {});
    svc.check_invariants();
    let s = svc.stats();
    assert_eq!(s.events, 900);
    assert!(s.admitted > 20, "admissions: {}", s.admitted);
    assert!(s.departures > 20, "departures: {}", s.departures);
    assert!(s.queued > 0, "the saturated cluster must exercise the wait queue");
    assert!(s.intensity_changes > 20, "intensity changes: {}", s.intensity_changes);
    assert!(s.migration_passes > 10, "migration passes: {}", s.migration_passes);
    assert!(s.departed > 0 && s.mean_departed_rate_bps().unwrap() > 0.0);
}
