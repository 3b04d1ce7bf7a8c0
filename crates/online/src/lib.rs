//! The always-on, multi-tenant placement service.
//!
//! The paper's workflow (measure → profile → place, §2) is framed per
//! application, but its evaluation world is a shared cloud under churn.
//! This crate is that world's control plane: a deterministic,
//! long-running service that consumes a stream of tenant events —
//! arrival with a profiled traffic matrix, intensity changes, departure
//! (see [`choreo_profile::stream`]) — and keeps a live
//! [`choreo_flowsim::FlowSim`] cluster placed well over time.
//!
//! Three cooperating pieces:
//!
//! * **[`OnlineScheduler`]** — the event loop. Arrivals are placed by
//!   Algorithm 1 over **live batched what-if probes**
//!   ([`choreo_flowsim::FlowSim::probe_rates`], one batch per transfer),
//!   never a measured snapshot, within the
//!   [`OnlineConfig::candidate_hosts`] hosts that have the most free
//!   CPU — the power-of-k-choices trick that bounds per-arrival latency
//!   on large clusters. Admitted tenants' heaviest transfers run as
//!   real simulated flows; departures tear them down in one arena dirty
//!   window ([`choreo_flowsim::FlowSim::stop_flows_now`]) so the next
//!   reallocation is a single warm delta solve.
//! * **Admission control** — CPU feasibility is checked against a
//!   global ledger; arrivals that do not fit wait in a bounded FIFO
//!   queue that is retried whenever a departure frees capacity, and are
//!   rejected once the queue is full. The ledger, the queue bound and
//!   placement validity are service invariants
//!   ([`OnlineScheduler::check_invariants`], property-tested).
//! * **The migration planner** ([`migrate`]) — §2.4's single-app
//!   re-evaluation generalized into a cadence-driven cluster-wide pass:
//!   scan for degraded tenants, price candidate moves with probe
//!   batches, execute the best improvements under a per-pass budget
//!   with hysteresis and cooldowns (the decision rule is shared with
//!   `core`'s [`choreo::migrate::improves_enough`]).
//!
//! Schedulers are constructed through the [`SchedulerBuilder`]
//! (topology + routes, then chained config/seed/registry setters). The
//! settable knobs are [`OnlineConfig`]'s; the values every caller left
//! alone are named constants in [`config`]. Every decision is counted
//! once, in [`ServiceStats`], and recorded in its bounded per-decision
//! [`TraceRing`]. A scheduler
//! given a [`choreo_metrics::Registry`] publishes those counts as
//! `choreo_*_total` counters at the end of every public call that can
//! move one, next to
//! the [`metrics`] gauges and latency histogram (a [`ServiceMetrics`]
//! set), for prometheus text exposition. Both views are observational
//! only — nothing reads them back into placement.
//!
//! # Network drift and failures
//!
//! The network under the service is not frozen
//! ([`choreo_profile::netstream`]): link failures, degradations and
//! maintenance drains arrive as [`choreo_profile::NetworkEvent`]s,
//! `(at)`-merged with the tenant stream (tenants win ties), and flow
//! through [`OnlineScheduler::network_step`] into the simulator's
//! runtime-capacity path ([`choreo_flowsim::FlowSim::set_capacity`]).
//! The adaptation loop closes in three stages:
//!
//! 1. **inject** — the event cuts or restores capacity in the arena's
//!    dirty window; the next rate read re-solves bit-identical to a cold
//!    solve at the new capacities, once for however many events landed
//!    in the same instant;
//! 2. **detect** — a re-measurement cadence ([`DriftConfig`]) refreshes
//!    every running tenant's service score, keeping the last one as the
//!    next epoch's reference; an epoch-over-epoch relative error
//!    `|cur − prev| / cur` above the paper's §4.1 stability envelope
//!    (6 %) is *drift* — the network moved under the tenant.
//!    Link failures additionally score every running tenant on the spot
//!    for the ones the failure stranded;
//! 3. **migrate** — drifted and failure-stranded tenants are forced
//!    into the migration planner ahead of its cadence (cooldown and
//!    degradation arming bypassed; the hysteresis bar still gates every
//!    move). Admission degrades gracefully through the same queue, and
//!    rejections during a failure epoch are counted separately
//!    (`choreo_failure_rejected_total`).
//!
//! Whole service runs are **reproducible bit-for-bit**: the same event
//! stream, seed and config give the same trajectory digest
//! ([`ServiceStats::trace_hash`]) — network events are digested like
//! any other decision, so fault-laden runs replay exactly.
//! `crates/service` wraps this scheduler in a networked request loop
//! and re-asserts the same digest equality through its simulated
//! transport. The perf ledger (`BENCHMARK.json`,
//! `benchmark/`) measures the service's throughput and latency on 128-
//! and 512-host topologies and compares mean tenant service rates
//! against the random-placement baseline (`rate_gain`).

pub mod builder;
pub mod config;
pub mod metrics;
pub mod migrate;
pub mod scheduler;
pub mod stats;

pub use builder::SchedulerBuilder;
pub use config::{DriftConfig, MigrationConfig, OnlineConfig, PlacementPolicy};
pub use metrics::{ServiceMetrics, TENANT_BUCKETS};
pub use scheduler::OnlineScheduler;
pub use stats::{Cause, Decision, DecisionKind, RejectReason, ServiceStats, TraceRing};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use choreo_profile::{TenantEvent, TenantEventKind};
    use choreo_topology::{two_rack, LinkSpec, RouteTable, GBIT, MICROS, SECS};

    use super::config::MIGRATION_COOLDOWN;
    use super::*;

    fn service(cfg: OnlineConfig) -> OnlineScheduler {
        let topo = Arc::new(two_rack(
            4,
            LinkSpec::new(GBIT, 5 * MICROS),
            LinkSpec::new(2.0 * GBIT, 20 * MICROS),
        ));
        let routes = Arc::new(RouteTable::new(&topo));
        SchedulerBuilder::new(topo, routes).config(cfg).seed(7).build()
    }

    fn pair_app(name: &str, cpu: f64) -> choreo_profile::AppProfile {
        let mut m = choreo_profile::TrafficMatrix::zeros(2);
        m.set(0, 1, 1_000_000_000);
        choreo_profile::AppProfile::new(name, vec![cpu, cpu], m, 0)
    }

    /// `n` tasks of `cpu` cores each, one heavy 0→1 transfer.
    fn fat_app(name: &str, n: usize, cpu: f64) -> choreo_profile::AppProfile {
        let mut m = choreo_profile::TrafficMatrix::zeros(n);
        m.set(0, 1, 1_000_000_000);
        choreo_profile::AppProfile::new(name, vec![cpu; n], m, 0)
    }

    fn arrive(at: u64, tenant: u64, app: choreo_profile::AppProfile) -> TenantEvent {
        TenantEvent { at, tenant, kind: TenantEventKind::Arrive { app: Box::new(app) } }
    }

    #[test]
    fn admits_and_departs_a_tenant() {
        let mut s = service(OnlineConfig::default());
        s.step(&arrive(0, 0, pair_app("a", 1.0)));
        assert_eq!(s.active_tenants(), 1);
        assert_eq!(s.stats().admitted, 1);
        s.check_invariants();
        // Greedy co-locates the chatty pair on a 4-core host: no flows.
        let p = s.tenant_placement(0).expect("admitted");
        assert_eq!(p.assignment[0], p.assignment[1], "chatty pair co-locates");
        s.step(&TenantEvent { at: SECS, tenant: 0, kind: TenantEventKind::Depart });
        assert_eq!(s.active_tenants(), 0);
        assert_eq!(s.stats().departed, 1);
        s.check_invariants();
    }

    #[test]
    fn queue_fills_retries_and_rejects() {
        let cfg = OnlineConfig { queue_capacity: 1, ..OnlineConfig::default() };
        let mut s = service(cfg);
        // 8 hosts × 4 cores = 32 cores; each tenant takes 16 (4 tasks ×
        // 4 cores), so two tenants fill the cluster.
        s.step(&arrive(0, 0, fat_app("big0", 4, 4.0)));
        s.step(&arrive(1, 1, fat_app("big1", 4, 4.0)));
        assert_eq!(s.active_tenants(), 2);
        // Full: the next waits, the one after is rejected.
        s.step(&arrive(2, 2, fat_app("wait", 4, 4.0)));
        assert_eq!(s.queue_len(), 1);
        s.step(&arrive(3, 3, fat_app("reject", 4, 4.0)));
        assert_eq!(s.stats().rejected, 1);
        s.check_invariants();
        // A departure frees capacity and admits the waiter.
        s.step(&TenantEvent { at: SECS, tenant: 0, kind: TenantEventKind::Depart });
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.stats().queue_admitted, 1);
        assert_eq!(s.active_tenants(), 2);
        s.check_invariants();
        // A queued tenant can also depart before being admitted.
        s.step(&arrive(2 * SECS, 4, fat_app("wait2", 4, 4.0)));
        assert_eq!(s.queue_len(), 1);
        s.step(&TenantEvent { at: 3 * SECS, tenant: 4, kind: TenantEventKind::Depart });
        assert_eq!(s.queue_len(), 0);
        s.check_invariants();
    }

    #[test]
    fn a_failed_attempt_leaves_its_probe_records_to_the_next() {
        let mut s = service(OnlineConfig::default());
        s.step(&arrive(0, 0, fat_app("running", 4, 4.0)));
        assert_eq!(s.sim.active_flows(), 1, "one live flow, so the solve log has a round");
        // 16 of 32 cores are left, on four idle 4-core hosts. These six
        // tasks pack (1+3, 1+3, 4, 4), but Algorithm 1 co-locates the
        // heavy 1-core pair, rates host pairs for the 3-core pair, which
        // cannot share the rest of that host, and strands the second
        // 4-core task — what a queued tenant does on every retry.
        let mut m = choreo_profile::TrafficMatrix::zeros(6);
        m.set(0, 1, 1_000_000_000);
        m.set(2, 3, 1_000_000);
        let app =
            choreo_profile::AppProfile::new("stranding", vec![1.0, 1.0, 3.0, 3.0, 4.0, 4.0], m, 0);
        let t0 = s.sim.solve_stats();
        assert!(s.try_place(&app, PlacementPolicy::Greedy).is_none());
        let t1 = s.sim.solve_stats();
        assert!(t1.probes > t0.probes, "the attempt rated candidates: {t1:?}");
        assert!(t1.probe_replay_rounds > t0.probe_replay_rounds, "and walked the log: {t1:?}");
        // Nothing changed in between: the same candidates again, every
        // resource they name already on record.
        assert!(s.try_place(&app, PlacementPolicy::Greedy).is_none());
        let t2 = s.sim.solve_stats();
        assert_eq!(t2.probes - t1.probes, t1.probes - t0.probes);
        assert_eq!(t2.probe_replay_rounds, t1.probe_replay_rounds, "second attempt walked");
        assert_eq!((t2.warm_solves, t2.cold_solves), (t1.warm_solves, t1.cold_solves));
        assert_eq!(s.stats().unpackable_skips, 0, "a packable app is never pruned");
    }

    #[test]
    fn an_unpackable_attempt_rates_nothing() {
        let mut s = service(OnlineConfig::default());
        s.step(&arrive(0, 0, fat_app("running", 4, 4.0)));
        // Five 3-core tasks on four idle 4-core hosts: 15 of 16 free
        // cores, but no host takes two of them. The pre-check proves it
        // before the placer asks for a single rate.
        let app = fat_app("too lumpy", 5, 3.0);
        let attempts = s.metrics.placement_latency.count();
        let t0 = s.sim.solve_stats();
        assert!(s.try_place(&app, PlacementPolicy::Greedy).is_none());
        let t1 = s.sim.solve_stats();
        assert_eq!((t1.probes, t1.probe_batches), (t0.probes, t0.probe_batches), "{t1:?}");
        assert_eq!((t1.warm_solves, t1.cold_solves), (t0.warm_solves, t0.cold_solves));
        assert_eq!(s.stats().unpackable_skips, 1);
        assert_eq!(s.metrics.placement_latency.count(), attempts + 1, "still one attempt");
    }

    #[test]
    fn random_placement_is_never_pruned() {
        // Nine 3-core tasks on eight idle 4-core hosts: no packing, but
        // the random placer draws a host for each of the first eight
        // before it runs out — and later placements depend on those
        // draws, so the attempt must run.
        let cfg = OnlineConfig { policy: PlacementPolicy::Random(3), ..OnlineConfig::default() };
        let (mut tried, mut fresh) = (service(cfg.clone()), service(cfg));
        assert!(tried.try_place(&fat_app("too lumpy", 9, 3.0), tried.cfg.policy).is_none());
        assert_eq!(tried.stats().unpackable_skips, 0);
        let app = fat_app("small", 4, 1.0);
        let after = tried.try_place(&app, tried.cfg.policy).expect("fits");
        let first = fresh.try_place(&app, fresh.cfg.policy).expect("fits");
        assert_ne!(after, first, "the failed attempt drew from the placer's RNG");
    }

    #[test]
    fn intensity_changes_scale_flow_counts() {
        // Two 4-core tasks fill two hosts, so the pair runs a network flow.
        let mut s = service(OnlineConfig::default());
        s.step(&arrive(0, 0, pair_app("a", 4.0)));
        assert_eq!(s.sim_mut().active_flows(), 1);
        s.step(&TenantEvent {
            at: SECS,
            tenant: 0,
            kind: TenantEventKind::SetIntensity { intensity: 3 },
        });
        assert_eq!(s.sim_mut().active_flows(), 3);
        s.check_invariants();
        s.step(&TenantEvent {
            at: 2 * SECS,
            tenant: 0,
            kind: TenantEventKind::SetIntensity { intensity: 2 },
        });
        assert_eq!(s.sim_mut().active_flows(), 2);
        s.check_invariants();
        s.step(&TenantEvent { at: 3 * SECS, tenant: 0, kind: TenantEventKind::Depart });
        assert_eq!(s.sim_mut().active_flows(), 0);
        s.check_invariants();
    }

    #[test]
    fn intensity_bump_alone_does_not_trigger_migration() {
        // A tenant that triples its own connection count sees its
        // per-connection score drop by construction; on an otherwise
        // idle network that self-induced drop must not read as network
        // degradation (the baseline re-anchors on the new layout, and
        // move predictions divide the single-connection probe by the
        // intensity). The pass runs after the cooldown, so the tenant is
        // scanned.
        let cfg = OnlineConfig {
            migration: MigrationConfig { cadence: None },
            ..OnlineConfig::default()
        };
        let mut s = service(cfg);
        s.step(&arrive(0, 0, pair_app("a", 4.0)));
        s.step(&TenantEvent {
            at: SECS,
            tenant: 0,
            kind: TenantEventKind::SetIntensity { intensity: 3 },
        });
        s.sim_mut().run_until(MIGRATION_COOLDOWN + 2 * SECS);
        s.force_migration_pass();
        assert_eq!(s.stats().migrations, 0, "self-induced sharing is not degradation");
        s.check_invariants();
    }

    #[test]
    fn planner_moves_a_degraded_tenant() {
        // 4-core tasks: tasks spread, flows are real. Disable the
        // cadences; drive the pass by hand, each one past the cooldown.
        let cfg = OnlineConfig {
            migration: MigrationConfig { cadence: None },
            drift: DriftConfig { cadence: None },
            ..OnlineConfig::default()
        };
        let mut s = service(cfg);
        s.step(&arrive(0, 0, pair_app("victim", 4.0)));
        let before = s.tenant_placement(0).expect("admitted").clone();
        s.check_invariants();
        // Congest the victim's path with 7 background flows.
        let (a, b) = (before.assignment[0] as usize, before.assignment[1] as usize);
        let hosts = s.sim_mut().topology().hosts().to_vec();
        let keys: Vec<_> = (0..7)
            .map(|_| s.sim_mut().start_flow_now(hosts[a], hosts[b], None, None, u64::MAX))
            .collect();
        s.sim_mut().run_until(MIGRATION_COOLDOWN + SECS);
        s.force_migration_pass();
        assert_eq!(s.stats().migrations, 1, "degraded tenant moved");
        let after = s.tenant_placement(0).expect("still running").clone();
        assert_ne!(before, after, "placement changed");
        s.check_invariants();
        // The next pass that may look at the tenant must not flap.
        s.sim_mut().run_until(2 * (MIGRATION_COOLDOWN + SECS));
        s.force_migration_pass();
        assert_eq!(s.stats().migrations, 1, "no flapping");
        s.sim_mut().stop_flows_now(&keys);
        s.step(&TenantEvent {
            at: 3 * (MIGRATION_COOLDOWN + SECS),
            tenant: 0,
            kind: TenantEventKind::Depart,
        });
        s.check_invariants();
    }

    #[test]
    fn forced_pass_bypasses_cooldown_and_counts_failure_migrations() {
        // Same setup as the planner test, but the pass runs inside the
        // cooldown, so the cadence scan must skip the victim; only the
        // forced route (drift/failure) may move it.
        let cfg = OnlineConfig {
            migration: MigrationConfig { cadence: None },
            drift: DriftConfig { cadence: None },
            ..OnlineConfig::default()
        };
        let mut s = service(cfg);
        s.step(&arrive(0, 0, pair_app("victim", 4.0)));
        let before = s.tenant_placement(0).expect("admitted").clone();
        let (a, b) = (before.assignment[0] as usize, before.assignment[1] as usize);
        let hosts = s.sim_mut().topology().hosts().to_vec();
        for _ in 0..7 {
            s.sim_mut().start_flow_now(hosts[a], hosts[b], None, None, u64::MAX);
        }
        s.sim_mut().run_until(SECS);
        s.force_migration_pass();
        assert_eq!(s.stats().migrations, 0, "cooldown holds the cadence scan back");
        s.migration_pass_forced(&[0]);
        assert_eq!(s.stats().migrations, 1, "forced tenant moved");
        assert_eq!(s.stats().failure_migrations, 1, "counted as a forced migration");
        assert!(
            s.stats()
                .decisions()
                .recent()
                .iter()
                .any(|d| d.kind == DecisionKind::ForcedMigration && d.tenant == 0),
            "trace explains the forced move"
        );
        s.check_invariants();
    }

    #[test]
    fn pod_gauges_hold_the_bits_of_the_from_scratch_breakdown() {
        use choreo_profile::{NetworkEvent, NetworkEventKind};
        use choreo_topology::{MultiRootedTreeSpec, PodPartition};
        // The gauges refresh off precomputed link buckets; after every
        // event they must read exactly what a from-scratch per-pod sum
        // over the simulator's capacities gives.
        let topo = Arc::new(MultiRootedTreeSpec { pods: 3, ..Default::default() }.build());
        let routes = Arc::new(RouteTable::new(&topo));
        let mut s = SchedulerBuilder::new(topo.clone(), routes).build();
        let pods = PodPartition::of(&topo);
        let kinds = [
            NetworkEventKind::LinkDegrade { fraction: 0.3 },
            NetworkEventKind::LinkFail,
            NetworkEventKind::DrainStart { fraction: 0.7 },
            NetworkEventKind::LinkRecover,
        ];
        // Per bucket (each pod, then the spine): lost over nominal
        // capacity of its links, both directions, summed in link order.
        let from_scratch = |sim: &choreo_flowsim::FlowSim| -> Vec<f64> {
            let n = pods.n_pods() + 1;
            let (mut nominal, mut current) = (vec![0.0; n], vec![0.0; n]);
            for (l, link) in sim.topology().links().iter().enumerate() {
                let bucket = pods.pod_of_link(link).map_or(n - 1, |p| p as usize);
                let l = l as u32;
                nominal[bucket] += 2.0 * link.spec.rate_bps;
                current[bucket] += sim.capacity(2 * l) + sim.capacity(2 * l + 1);
            }
            (0..n)
                .map(|b| {
                    if nominal[b] <= 0.0 {
                        0.0
                    } else {
                        ((nominal[b] - current[b]) / nominal[b]).max(0.0)
                    }
                })
                .collect()
        };
        let mut expect = Vec::new();
        for (i, link) in (0..topo.links().len() as u32).step_by(3).enumerate() {
            let kind = kinds[i % kinds.len()];
            s.network_step(&NetworkEvent { at: i as u64, link, kind });
            expect = from_scratch(s.sim_mut());
            assert_eq!(s.metrics().pod_capacity_lost.len(), expect.len());
            for (bucket, (gauge, lost)) in
                s.metrics().pod_capacity_lost.iter().zip(&expect).enumerate()
            {
                assert_eq!(gauge.get().to_bits(), lost.to_bits(), "event {i}, bucket {bucket}");
            }
        }
        assert!(expect.iter().any(|&lost| lost > 0.0), "the events cut some capacity");
    }

    #[test]
    fn an_emptied_tenant_bucket_reads_full_attainment() {
        // Two 4-core tasks split the pair, so the tenant is networked.
        let mut s = service(OnlineConfig::default());
        let k = 3;
        s.step(&arrive(0, k, pair_app("victim", 4.0)));
        let p = s.tenant_placement(k).expect("admitted").clone();
        let hosts = s.sim_mut().topology().hosts().to_vec();
        let (a, b) = (hosts[p.assignment[0] as usize], hosts[p.assignment[1] as usize]);
        for _ in 0..7 {
            s.sim_mut().start_flow_now(a, b, None, None, u64::MAX);
        }
        assert_eq!(s.slo_attainment(1.0), (0, 1), "congestion cut the tenant below baseline");
        assert_eq!(s.metrics().tenant_slo[k as usize].get(), 0.0);
        s.step(&TenantEvent { at: SECS, tenant: k, kind: TenantEventKind::Depart });
        assert_eq!(s.slo_attainment(1.0), (0, 0));
        assert_eq!(s.metrics().tenant_slo[k as usize].get(), 1.0, "no tenant left to miss its SLO");
        assert!(s.metrics().tenant_slo.iter().all(|g| g.get() == 1.0));
    }

    #[test]
    fn failures_and_recoveries_drive_drift_detection() {
        use choreo_profile::{NetworkEvent, NetworkEventKind};
        // One networked tenant; measurement every second; fail every
        // link, then recover — both capacity swings must read as drift.
        let cfg = OnlineConfig {
            migration: MigrationConfig { cadence: None },
            drift: DriftConfig { cadence: Some(SECS) },
            ..OnlineConfig::default()
        };
        let mut s = service(cfg);
        s.step(&arrive(0, 0, pair_app("a", 4.0)));
        let n_links = s.sim_mut().topology().links().len() as u32;
        // t = 1 s: first epoch score (healthy). t = 1.5 s: every link
        // degrades to 40 % of nominal — a uniform cut, so the forced
        // planner has nowhere better and the drift reference survives.
        for l in 0..n_links {
            s.network_step(&NetworkEvent {
                at: SECS + SECS / 2,
                link: l,
                kind: NetworkEventKind::LinkDegrade { fraction: 0.4 },
            });
        }
        assert_eq!(s.stats().network_events, n_links as u64);
        let lost = s.sim_mut().capacity_lost_fraction();
        assert!((lost - 0.6).abs() < 0.05, "≈60 % of capacity gone: {lost}");
        // t = 2 s: epoch sees the collapse → drift.
        s.advance_to(2 * SECS + SECS / 4);
        let after_cut = s.stats().drift_detected;
        assert!(after_cut >= 1, "degradation reads as drift");
        assert!(
            s.stats()
                .decisions()
                .recent()
                .iter()
                .any(|d| d.kind == DecisionKind::DriftDetected && d.tenant == 0),
            "trace explains the drift verdict"
        );
        for l in 0..n_links {
            s.network_step(&NetworkEvent {
                at: 2 * SECS + SECS / 2,
                link: l,
                kind: NetworkEventKind::LinkRecover,
            });
        }
        assert_eq!(s.sim_mut().capacity_lost_fraction(), 0.0, "capacity restored");
        // t = 3 s: epoch sees the recovery jump → drift again.
        s.advance_to(3 * SECS + SECS / 4);
        assert!(s.stats().drift_detected > after_cut, "recovery reads as drift");
        s.check_invariants();
    }
}
