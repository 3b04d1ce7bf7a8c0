//! Typed metric handles the scheduler and migration planner record into.
//!
//! [`ServiceMetrics`] is the bridge between the deterministic service
//! loop and a [`choreo_metrics::Registry`]: the scheduler holds cheap
//! atomic handles on its hot path and a metrics endpoint renders the
//! registry. Metrics are write-only from the service's point of view —
//! nothing in the trajectory reads them back — so wall-clock-derived
//! samples (the placement-latency histogram) never perturb a run's
//! trace digest, and a scheduler built without a registry
//! ([`ServiceMetrics::detached`]) records into unexported handles at the
//! same (negligible) cost.

use choreo_flowsim::FlowSim;
use choreo_metrics::{Counter, Family, Gauge, Histogram, LabelSet, Registry};
use choreo_topology::{PodPartition, Topology};

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

/// `reason="..."` label on `choreo_admissions_total`: one series per
/// admission outcome (`admitted`, `queued`, `queue_admitted`,
/// `rejected_queue_full`, `rejected_failure`, `duplicate`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReasonLabel(pub &'static str);

impl LabelSet for ReasonLabel {
    fn label_names() -> &'static [&'static str] {
        &["reason"]
    }

    fn label_values(&self) -> Vec<String> {
        vec![self.0.to_string()]
    }
}

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

/// `shape="..."` label on `choreo_shape_events_total`: the workload
/// shape the run was driven with (`OnlineConfig::workload_shape`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ShapeLabel(pub String);

impl LabelSet for ShapeLabel {
    fn label_names() -> &'static [&'static str] {
        &["shape"]
    }

    fn label_values(&self) -> Vec<String> {
        vec![self.0.clone()]
    }
}

/// The service's instrument set. Fields are the hooks the scheduler and
/// migration planner record into; see [`ServiceMetrics::registered`] for
/// the exported names.
#[derive(Clone, Debug)]
pub struct ServiceMetrics {
    /// Tenant events consumed (`choreo_service_events_total`).
    pub events: Counter,
    /// Tenants admitted straight from arrival (`choreo_admitted_total`).
    pub admitted: Counter,
    /// Tenants parked in the wait queue (`choreo_queued_total`).
    pub queued: Counter,
    /// Queued tenants admitted by a departure retry
    /// (`choreo_queue_admitted_total`).
    pub queue_admitted: Counter,
    /// Arrivals rejected with the queue full (`choreo_rejected_total`).
    pub rejected: Counter,
    /// Duplicate arrivals ignored (`choreo_duplicate_arrivals_total`).
    pub duplicate_arrivals: Counter,
    /// Departures that tore real state down (`choreo_departures_total`);
    /// Depart events for rejected tenants are no-ops and not counted.
    pub departures: Counter,
    /// Intensity changes applied (`choreo_intensity_changes_total`).
    pub intensity_changes: Counter,
    /// Migration-planner passes (`choreo_migration_passes_total`).
    pub migration_passes: Counter,
    /// Tenants moved by the planner (`choreo_migrations_total`).
    pub migrations: Counter,
    /// Tenants waiting for capacity right now (`choreo_queue_depth`).
    pub queue_depth: Gauge,
    /// Tenants admitted and running (`choreo_active_tenants`).
    pub active_tenants: Gauge,
    /// Wall-clock seconds per admission placement attempt
    /// (`choreo_placement_latency_seconds`).
    pub placement_latency: Histogram,
    /// Fraction of running networked tenants at or above the SLO
    /// fraction of their post-placement baseline score
    /// (`choreo_slo_attainment`, refreshed by
    /// [`crate::OnlineScheduler::slo_attainment`]).
    pub slo_attainment: Gauge,
    /// Network events applied — failures, degradations, drains,
    /// recoveries (`choreo_link_events_total`).
    pub link_events: Counter,
    /// Drift detections by the re-measurement pass
    /// (`choreo_drift_detected_total`).
    pub drift_detected: Counter,
    /// Tenants moved by a forced, drift/failure-triggered pass
    /// (`choreo_failure_migrations_total`).
    pub failure_migrations: Counter,
    /// Arrivals rejected while links were down
    /// (`choreo_failure_rejected_total`).
    pub failure_rejections: Counter,
    /// Fraction of the cluster's nominal directed link capacity
    /// currently lost to failures, degradations and drains
    /// (`choreo_capacity_lost_fraction`).
    pub capacity_lost: Gauge,
    /// Admission outcomes by reason (`choreo_admissions_total`): the
    /// labeled view of the admitted/queued/rejected/... counters above.
    pub admissions: Family<ReasonLabel, Counter>,
    /// Per-tenant-bucket SLO attainment
    /// (`choreo_tenant_slo_attainment`), refreshed alongside the
    /// cluster-wide [`ServiceMetrics::slo_attainment`] gauge.
    pub tenant_slo: Family<TenantBucket, Gauge>,
    /// Per-pod capacity lost to failures, degradations and drains
    /// (`choreo_pod_capacity_lost_fraction`); the `pod="spine"` series
    /// covers core links and pod uplinks.
    pub pod_capacity_lost: Family<PodLabel, Gauge>,
    /// Tenant events consumed, by workload shape
    /// (`choreo_shape_events_total`).
    pub shape_events: Family<ShapeLabel, Counter>,
}

impl ServiceMetrics {
    /// Handles not exported anywhere — the default for library and
    /// bench use.
    pub fn detached() -> ServiceMetrics {
        ServiceMetrics {
            events: Counter::new(),
            admitted: Counter::new(),
            queued: Counter::new(),
            queue_admitted: Counter::new(),
            rejected: Counter::new(),
            duplicate_arrivals: Counter::new(),
            departures: Counter::new(),
            intensity_changes: Counter::new(),
            migration_passes: Counter::new(),
            migrations: Counter::new(),
            queue_depth: Gauge::new(),
            active_tenants: Gauge::new(),
            placement_latency: Histogram::new(latency_bounds()),
            slo_attainment: Gauge::new(),
            link_events: Counter::new(),
            drift_detected: Counter::new(),
            failure_migrations: Counter::new(),
            failure_rejections: Counter::new(),
            capacity_lost: Gauge::new(),
            admissions: Family::new(8, Counter::new),
            tenant_slo: Family::new(TENANT_BUCKETS as usize, Gauge::new),
            pod_capacity_lost: Family::new(64, Gauge::new),
            shape_events: Family::new(16, Counter::new),
        }
    }

    /// Handles registered on `registry` under the `choreo_` name family,
    /// ready for text exposition.
    pub fn registered(registry: &Registry) -> ServiceMetrics {
        ServiceMetrics {
            events: registry.counter("choreo_service_events_total", "Tenant events consumed"),
            admitted: registry
                .counter("choreo_admitted_total", "Tenants admitted straight from arrival"),
            queued: registry.counter("choreo_queued_total", "Tenants parked in the wait queue"),
            queue_admitted: registry.counter(
                "choreo_queue_admitted_total",
                "Queued tenants admitted by a departure retry",
            ),
            rejected: registry
                .counter("choreo_rejected_total", "Arrivals rejected with the queue full"),
            duplicate_arrivals: registry.counter(
                "choreo_duplicate_arrivals_total",
                "Arrivals ignored because the tenant was already live",
            ),
            departures: registry
                .counter("choreo_departures_total", "Departures that tore real state down"),
            intensity_changes: registry
                .counter("choreo_intensity_changes_total", "Intensity changes applied"),
            migration_passes: registry
                .counter("choreo_migration_passes_total", "Migration planner passes"),
            migrations: registry
                .counter("choreo_migrations_total", "Tenants moved by the migration planner"),
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
            link_events: registry.counter(
                "choreo_link_events_total",
                "Network events applied (failures, degradations, drains, recoveries)",
            ),
            drift_detected: registry.counter(
                "choreo_drift_detected_total",
                "Drift detections by the re-measurement pass",
            ),
            failure_migrations: registry.counter(
                "choreo_failure_migrations_total",
                "Tenants moved by a forced, drift/failure-triggered pass",
            ),
            failure_rejections: registry.counter(
                "choreo_failure_rejected_total",
                "Arrivals rejected while links were down",
            ),
            capacity_lost: registry.gauge(
                "choreo_capacity_lost_fraction",
                "Fraction of nominal link capacity lost to failures and drains",
            ),
            admissions: registry.counter_family(
                "choreo_admissions_total",
                "Admission outcomes by reason",
                8,
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
            shape_events: registry.counter_family(
                "choreo_shape_events_total",
                "Tenant events consumed, by workload shape",
                16,
            ),
        }
    }
}
