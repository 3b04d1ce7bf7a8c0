//! Typed metric handles the scheduler and migration planner record into.
//!
//! [`ServiceMetrics`] is the bridge between the deterministic service
//! loop and a [`choreo_metrics::Registry`]. It counts nothing itself:
//! [`ServiceStats`] is the scheduler's one counter ledger, and every
//! exported `choreo_*_total` counter is published from it once at the
//! end of each public scheduler call — so a scrape can never disagree
//! with what the scheduler counted. The gauges and the
//! placement-latency histogram are cheap atomic handles set on the spot.
//! The two labeled gauges are fixed vectors built with the scheduler —
//! [`TENANT_BUCKETS`] SLO buckets, and one series per pod of the
//! topology plus the spine — so every series is exported from the
//! start and a refresh indexes its gauge.
//! Metrics are write-only from the service's point of view — nothing in
//! the trajectory reads them back — so wall-clock-derived samples never
//! perturb a run's trace digest, and a scheduler built without a
//! registry ([`ServiceMetrics::detached`]) publishes nothing.

use choreo_flowsim::FlowSim;
use choreo_metrics::{geometric_bounds, Counter, Gauge, Histogram, Registry};
use choreo_topology::{PodPartition, Topology};

use crate::stats::ServiceStats;

/// Tenant-id buckets of the per-tenant SLO gauges: tenant `id` lands in
/// bucket `id % TENANT_BUCKETS`. A fixed modulus keeps the series count
/// independent of how many tenants a run admits.
pub const TENANT_BUCKETS: u64 = 8;

/// Refreshes the `choreo_pod_capacity_lost_fraction` gauges after a
/// network event. Everything that does not change between events — which
/// bucket each link falls in and each bucket's nominal capacity — is
/// worked out once, so a refresh is one pass over the links and one
/// `set` per bucket: no allocation and no `pod_of_link`. The sums run in
/// link order, so the gauges hold the bits of a from-scratch per-pod sum
/// (the crate's tests recompute one after every event).
#[derive(Debug)]
pub(crate) struct PodLossGauges {
    /// Per link: its bucket — the pod id, or `n_pods` for the spine.
    link_bucket: Vec<u32>,
    /// Per bucket: nominal capacity of its links, both directions.
    nominal: Vec<f64>,
    /// Scratch: per-bucket current capacity.
    current: Vec<f64>,
}

impl PodLossGauges {
    pub(crate) fn new(topo: &Topology) -> PodLossGauges {
        let pods = PodPartition::of(topo);
        let spine = pods.n_pods();
        let mut nominal = vec![0.0; spine + 1];
        let link_bucket: Vec<u32> = topo
            .links()
            .iter()
            .map(|link| {
                let bucket = pods.pod_of_link(link).map_or(spine, |p| p as usize);
                nominal[bucket] += 2.0 * link.spec.rate_bps;
                bucket as u32
            })
            .collect();
        let current = vec![0.0; spine + 1];
        PodLossGauges { link_bucket, nominal, current }
    }

    /// Set each bucket's gauge — `gauges[pod]`, the spine last — from
    /// `sim`'s current link capacities.
    pub(crate) fn refresh(&mut self, sim: &FlowSim, gauges: &[Gauge]) {
        debug_assert_eq!(gauges.len(), self.nominal.len(), "one gauge per pod plus the spine");
        self.current.fill(0.0);
        for (l, &bucket) in self.link_bucket.iter().enumerate() {
            let fwd = 2 * l as u32;
            self.current[bucket as usize] += sim.capacity(fwd) + sim.capacity(fwd + 1);
        }
        for ((gauge, &nominal), &current) in gauges.iter().zip(&self.nominal).zip(&self.current) {
            let lost = if nominal <= 0.0 { 0.0 } else { ((nominal - current) / nominal).max(0.0) };
            gauge.set(lost);
        }
    }
}

/// One exported counter: exposition name, HELP text, and the
/// [`ServiceStats`] field it publishes.
type CounterRow = (&'static str, &'static str, fn(&ServiceStats) -> u64);

/// Every exported counter, in registration order.
const COUNTERS: [CounterRow; 14] = [
    ("choreo_service_events_total", "Tenant events consumed", |s| s.events),
    ("choreo_admitted_total", "Tenants admitted straight from arrival", |s| s.admitted),
    ("choreo_queued_total", "Tenants parked in the wait queue", |s| s.queued),
    ("choreo_queue_admitted_total", "Queued tenants admitted by a departure retry", |s| {
        s.queue_admitted
    }),
    ("choreo_rejected_total", "Arrivals rejected with the queue full", |s| s.rejected),
    (
        "choreo_duplicate_arrivals_total",
        "Arrivals ignored because the tenant was already live",
        |s| s.duplicate_arrivals,
    ),
    ("choreo_departures_total", "Departures that tore real state down", |s| s.departures),
    ("choreo_intensity_changes_total", "Intensity changes applied", |s| s.intensity_changes),
    ("choreo_migration_passes_total", "Migration planner passes", |s| s.migration_passes),
    ("choreo_migrations_total", "Tenants moved by the migration planner", |s| s.migrations),
    (
        "choreo_link_events_total",
        "Network events applied (failures, degradations, drains, recoveries)",
        |s| s.network_events,
    ),
    ("choreo_drift_detected_total", "Drift detections by the re-measurement pass", |s| {
        s.drift_detected
    }),
    (
        "choreo_failure_migrations_total",
        "Tenants moved by a forced, drift/failure-triggered pass",
        |s| s.failure_migrations,
    ),
    ("choreo_failure_rejected_total", "Arrivals rejected while links were down", |s| {
        s.failure_rejections
    }),
];

/// The service's instrument set: the counters published from
/// [`ServiceStats`], plus the gauges and the histogram the scheduler
/// sets directly.
#[derive(Clone, Debug)]
pub struct ServiceMetrics {
    /// One handle per [`COUNTERS`] row, in table order; empty for a
    /// detached set.
    counters: Vec<Counter>,
    /// Tenants waiting for capacity (`choreo_queue_depth`), published
    /// with the counters.
    queue_depth: Gauge,
    /// Tenants admitted and running (`choreo_active_tenants`), published
    /// with the counters.
    active_tenants: Gauge,
    /// Wall-clock seconds per admission placement attempt
    /// (`choreo_placement_latency_seconds`).
    pub placement_latency: Histogram,
    /// Fraction of running networked tenants at or above the SLO
    /// fraction of their post-placement baseline score
    /// (`choreo_slo_attainment`, refreshed by
    /// [`crate::OnlineScheduler::slo_attainment`]).
    pub slo_attainment: Gauge,
    /// Fraction of the cluster's nominal directed link capacity
    /// currently lost to failures, degradations and drains
    /// (`choreo_capacity_lost_fraction`).
    pub capacity_lost: Gauge,
    /// SLO attainment per tenant-id bucket, indexed by bucket
    /// (`choreo_tenant_slo_attainment`, [`TENANT_BUCKETS`] gauges),
    /// refreshed alongside the cluster-wide
    /// [`ServiceMetrics::slo_attainment`] gauge.
    pub tenant_slo: Vec<Gauge>,
    /// Capacity lost to failures, degradations and drains per pod,
    /// indexed as in `choreo_topology::PodPartition`, with the spine
    /// (core links and pod uplinks) last
    /// (`choreo_pod_capacity_lost_fraction`).
    pub pod_capacity_lost: Vec<Gauge>,
}

impl ServiceMetrics {
    /// Handles for a scheduler over `topo`, not exported anywhere — the
    /// default for library and bench use.
    pub fn detached(topo: &Topology) -> ServiceMetrics {
        let gauges = |n: usize| (0..n).map(|_| Gauge::new()).collect();
        ServiceMetrics {
            counters: Vec::new(),
            queue_depth: Gauge::new(),
            active_tenants: Gauge::new(),
            placement_latency: Histogram::new(geometric_bounds(1e-6, 2.0, 20)),
            slo_attainment: Gauge::new(),
            capacity_lost: Gauge::new(),
            tenant_slo: gauges(TENANT_BUCKETS as usize),
            pod_capacity_lost: gauges(PodPartition::of(topo).n_pods() + 1),
        }
    }

    /// Handles for a scheduler over `topo`, registered on `registry`
    /// under the `choreo_` name family, ready for text exposition.
    pub fn registered(registry: &Registry, topo: &Topology) -> ServiceMetrics {
        let n_pods = PodPartition::of(topo).n_pods();
        ServiceMetrics {
            counters: COUNTERS
                .iter()
                .map(|&(name, help, _)| registry.counter(name, help))
                .collect(),
            queue_depth: registry.gauge("choreo_queue_depth", "Tenants waiting for capacity"),
            active_tenants: registry.gauge("choreo_active_tenants", "Tenants admitted and running"),
            // 1 µs … ~0.5 s.
            placement_latency: registry.histogram(
                "choreo_placement_latency_seconds",
                "Wall-clock seconds per admission placement attempt",
                geometric_bounds(1e-6, 2.0, 20),
            ),
            slo_attainment: registry.gauge(
                "choreo_slo_attainment",
                "Fraction of running networked tenants meeting their SLO",
            ),
            capacity_lost: registry.gauge(
                "choreo_capacity_lost_fraction",
                "Fraction of nominal link capacity lost to failures and drains",
            ),
            tenant_slo: registry.labeled_gauges(
                "choreo_tenant_slo_attainment",
                "Fraction of running networked tenants meeting their SLO, by tenant-id bucket",
                "tenant_bucket",
                (0..TENANT_BUCKETS).map(|b| b.to_string()),
            ),
            pod_capacity_lost: registry.labeled_gauges(
                "choreo_pod_capacity_lost_fraction",
                "Fraction of nominal link capacity lost to failures and drains, by pod",
                "pod",
                (0..n_pods).map(|p| p.to_string()).chain(["spine".to_string()]),
            ),
        }
    }

    /// Bring every exported counter up to `stats`, and the queue-depth
    /// and active-tenant gauges to the given sizes. Counters only ever
    /// move here, so after a publish each one equals its ledger field.
    /// A detached set publishes nothing.
    pub(crate) fn publish(&self, stats: &ServiceStats, queue_depth: usize, active_tenants: usize) {
        if self.counters.is_empty() {
            return;
        }
        for (counter, (_, _, field)) in self.counters.iter().zip(COUNTERS) {
            let (counted, exported) = (field(stats), counter.get());
            if counted != exported {
                counter.inc_by(counted - exported);
            }
        }
        self.queue_depth.set(queue_depth as f64);
        self.active_tenants.set(active_tenants as f64);
    }
}
