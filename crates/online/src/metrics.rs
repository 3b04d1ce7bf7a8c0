//! Typed metric handles the scheduler and migration planner record into.
//!
//! [`ServiceMetrics`] is the bridge between the deterministic service
//! loop and a [`choreo_metrics::Registry`]. It counts nothing itself:
//! [`ServiceStats`] is the scheduler's one counter ledger, and every
//! exported `choreo_*_total` counter is published from it once at the
//! end of each public scheduler call, the way
//! [`crate::TraceRing::sync_from`] publishes decisions — so a scrape can
//! never disagree with what the scheduler counted. The gauges and the
//! placement-latency histogram are cheap atomic handles set on the spot.
//! Metrics are write-only from the service's point of view — nothing in
//! the trajectory reads them back — so wall-clock-derived samples never
//! perturb a run's trace digest, and a scheduler built without a
//! registry ([`ServiceMetrics::detached`]) publishes nothing.

use choreo_flowsim::FlowSim;
use choreo_metrics::{Counter, Family, Gauge, Histogram, LabelSet, Registry};
use choreo_topology::{PodPartition, Topology};

use crate::stats::ServiceStats;

/// Placement-latency histogram bounds: 1 µs … ~0.5 s, ×2 per bucket.
fn latency_bounds() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(20);
    let mut b = 1e-6;
    for _ in 0..20 {
        bounds.push(b);
        b *= 2.0;
    }
    bounds
}

/// Tenant-id buckets on the per-tenant SLO gauge family: tenant `id`
/// lands in bucket `id % TENANT_BUCKETS`. A fixed modulus keeps the
/// series count independent of how many tenants a run admits.
pub const TENANT_BUCKETS: u64 = 8;

/// `tenant_bucket="..."` label on `choreo_tenant_slo_attainment`; see
/// [`TENANT_BUCKETS`] for the bucketing rule.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TenantBucket(pub u8);

impl LabelSet for TenantBucket {
    fn label_names() -> &'static [&'static str] {
        &["tenant_bucket"]
    }

    fn label_values(&self) -> Vec<String> {
        vec![self.0.to_string()]
    }
}

/// `pod="..."` label on `choreo_pod_capacity_lost_fraction`. Pods are
/// numbered as in `choreo_topology::PodPartition`; `u32::MAX` is the
/// shared spine (core links and pod uplinks) and renders as `"spine"`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PodLabel(pub u32);

impl LabelSet for PodLabel {
    fn label_names() -> &'static [&'static str] {
        &["pod"]
    }

    fn label_values(&self) -> Vec<String> {
        if self.0 == u32::MAX {
            vec!["spine".to_string()]
        } else {
            vec![self.0.to_string()]
        }
    }
}

/// Refreshes the `choreo_pod_capacity_lost_fraction` family after a
/// network event. Everything that does not change between events — which
/// bucket each link falls in, each bucket's nominal capacity, the gauge
/// handle of each bucket — is worked out once, so a refresh is one pass
/// over the links and one `set` per bucket: no allocation, no
/// `pod_of_link`, no family lookup. The sums run in link order, exactly
/// as [`FlowSim::pod_capacity_lost_fractions`] runs them, so the gauges
/// hold the same bits.
#[derive(Debug)]
pub(crate) struct PodLossGauges {
    /// Per link: its bucket — the pod id, or `n_pods` for the spine.
    link_bucket: Vec<u32>,
    /// Per bucket: nominal capacity of its links, both directions.
    nominal: Vec<f64>,
    /// Scratch: per-bucket current capacity.
    current: Vec<f64>,
    /// Per-bucket series of the family, resolved by the first refresh so
    /// a run without network events still exports an empty family.
    gauges: Vec<Gauge>,
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
        PodLossGauges { link_bucket, nominal, current, gauges: Vec::new() }
    }

    /// Set every bucket's gauge from `sim`'s current link capacities.
    pub(crate) fn refresh(&mut self, sim: &FlowSim, family: &Family<PodLabel, Gauge>) {
        if self.gauges.is_empty() {
            let spine = self.nominal.len() - 1;
            self.gauges.extend((0..=spine).map(|bucket| {
                family.get(&PodLabel(if bucket == spine { u32::MAX } else { bucket as u32 }))
            }));
        }
        self.current.fill(0.0);
        for (l, &bucket) in self.link_bucket.iter().enumerate() {
            let fwd = 2 * l as u32;
            self.current[bucket as usize] += sim.capacity(fwd) + sim.capacity(fwd + 1);
        }
        for ((gauge, &nominal), &current) in
            self.gauges.iter().zip(&self.nominal).zip(&self.current)
        {
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
    /// Per-tenant-bucket SLO attainment
    /// (`choreo_tenant_slo_attainment`), refreshed alongside the
    /// cluster-wide [`ServiceMetrics::slo_attainment`] gauge.
    pub tenant_slo: Family<TenantBucket, Gauge>,
    /// Per-pod capacity lost to failures, degradations and drains
    /// (`choreo_pod_capacity_lost_fraction`); the `pod="spine"` series
    /// covers core links and pod uplinks.
    pub pod_capacity_lost: Family<PodLabel, Gauge>,
}

impl ServiceMetrics {
    /// Handles not exported anywhere — the default for library and
    /// bench use.
    pub fn detached() -> ServiceMetrics {
        ServiceMetrics {
            counters: Vec::new(),
            queue_depth: Gauge::new(),
            active_tenants: Gauge::new(),
            placement_latency: Histogram::new(latency_bounds()),
            slo_attainment: Gauge::new(),
            capacity_lost: Gauge::new(),
            tenant_slo: Family::new(TENANT_BUCKETS as usize, Gauge::new),
            pod_capacity_lost: Family::new(64, Gauge::new),
        }
    }

    /// Handles registered on `registry` under the `choreo_` name family,
    /// ready for text exposition.
    pub fn registered(registry: &Registry) -> ServiceMetrics {
        ServiceMetrics {
            counters: COUNTERS
                .iter()
                .map(|&(name, help, _)| registry.counter(name, help))
                .collect(),
            queue_depth: registry.gauge("choreo_queue_depth", "Tenants waiting for capacity"),
            active_tenants: registry.gauge("choreo_active_tenants", "Tenants admitted and running"),
            placement_latency: registry.histogram(
                "choreo_placement_latency_seconds",
                "Wall-clock seconds per admission placement attempt",
                latency_bounds(),
            ),
            slo_attainment: registry.gauge(
                "choreo_slo_attainment",
                "Fraction of running networked tenants meeting their SLO",
            ),
            capacity_lost: registry.gauge(
                "choreo_capacity_lost_fraction",
                "Fraction of nominal link capacity lost to failures and drains",
            ),
            tenant_slo: registry.gauge_family(
                "choreo_tenant_slo_attainment",
                "Fraction of running networked tenants meeting their SLO, by tenant-id bucket",
                TENANT_BUCKETS as usize,
            ),
            pod_capacity_lost: registry.gauge_family(
                "choreo_pod_capacity_lost_fraction",
                "Fraction of nominal link capacity lost to failures and drains, by pod",
                64,
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
