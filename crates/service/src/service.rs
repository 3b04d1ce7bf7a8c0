//! The service loop: requests in, placement decisions out.
//!
//! [`PlacementService`] owns an [`OnlineScheduler`] and an env, and maps
//! each delivered [`ServiceRequest`] to exactly one [`ServiceResponse`]
//! on the same connection, in order. The loop itself is a pure function
//! of the event sequence — see [`crate::env`] for the determinism
//! contract — so a [`SimEnv`](crate::SimEnv)-backed run is
//! bit-reproducible while a [`NetEnv`](crate::NetEnv)-backed run serves
//! real sockets with the identical dispatch code.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use choreo_metrics::{Counter, Registry};
use choreo_online::config::MAX_MODELED_TRANSFERS;
use choreo_online::{
    Decision, DecisionKind, OnlineConfig, OnlineScheduler, SchedulerBuilder, TraceRing,
};
use choreo_profile::{NetworkEvent, NetworkEventKind, ServiceEvent, TenantEvent, TenantEventKind};
use choreo_topology::{Nanos, RouteTable, Topology, SECS};
use choreo_wire::{ServiceRequest, ServiceResponse, ServiceStatsReply};

use crate::env::{NetEvent, ServiceEnv};

/// Largest tenant id the service accepts from the wire; ids above this
/// bound are rejected before touching the scheduler. It keeps wire ids
/// clear of `TenantId::MAX`, the decision trace's cluster-wide sentinel
/// (rendered `"tenant":null`), which a tenant must never be able to
/// claim.
pub const MAX_TENANT_ID: u64 = u16::MAX as u64;

/// Largest intensity a `SetIntensity` may ask for; larger ones are
/// refused before the scheduler sees them. A tenant runs `intensity`
/// flows per modeled transfer, so one frame asking for `u32::MAX` would
/// start flows until the engine's 2^22 − 1 flow records run out and it
/// panics. At this bound every tenant id the service accepts, each at
/// [`MAX_MODELED_TRANSFERS`] transfers, fits in 3 932 160 records.
pub const MAX_INTENSITY: u32 = 5;

const _: () = assert!(
    (MAX_TENANT_ID + 1) * (MAX_MODELED_TRANSFERS as u64) * (MAX_INTENSITY as u64) < (1 << 22) - 1
);

/// Furthest ahead of the scheduler clock a wire-supplied `at`
/// (`ForceMigration`, `InjectNetworkEvent`) may advance simulated time.
/// `advance_to` replays every measurement/migration cadence tick on the
/// way, so an unvalidated `at = u64::MAX` with a 30 s drift cadence
/// would run ~10^10 passes — one hostile frame hangs the service.
/// Requests beyond the horizon get an `Error` before the scheduler sees
/// them. One simulated hour.
pub const MAX_ADVANCE: Nanos = 3600 * SECS;

/// Decisions the service's trace ring keeps: what `GetTrace` and the
/// HTTP `/trace` endpoint can return.
pub const TRACE_CAPACITY: usize = 256;

/// Everything the service needs beyond a topology: scheduler knobs, the
/// placement seed, and the SLO threshold the attainment gauge tracks.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Scheduler configuration (admission, queue, migration and drift
    /// cadences, placement policy).
    pub online: OnlineConfig,
    /// Seed for placement tie-breaking.
    pub seed: u64,
    /// A tenant "meets its SLO" while its current service score is at
    /// least this fraction of its admission-time baseline.
    pub slo_fraction: f64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig { online: OnlineConfig::default(), seed: 0, slo_fraction: 0.5 }
    }
}

/// The admission/placement front-end: one service loop, any
/// [`ServiceEnv`] backend.
pub struct PlacementService<E: ServiceEnv> {
    scheduler: OnlineScheduler,
    registry: Arc<Registry>,
    slo_fraction: f64,
    invalid_tenant_ids: Counter,
    invalid_horizons: Counter,
    env: E,
    stopped: bool,
    /// The last [`TRACE_CAPACITY`] decisions of every scheduler call,
    /// shared with the HTTP `/trace` endpoint
    /// ([`PlacementService::trace_export`]).
    trace: Arc<Mutex<TraceRing>>,
}

impl<E: ServiceEnv> PlacementService<E> {
    /// Build the service: a fresh metrics registry, a scheduler wired
    /// into it, an empty trace ring, and the given env as the I/O world.
    pub fn new(
        topo: Arc<Topology>,
        routes: Arc<RouteTable>,
        cfg: ServiceConfig,
        env: E,
    ) -> PlacementService<E> {
        let registry = Arc::new(Registry::new());
        let scheduler = SchedulerBuilder::new(topo, routes)
            .config(cfg.online)
            .seed(cfg.seed)
            .metrics_registry(&registry)
            .build();
        let invalid_tenant_ids = registry.counter(
            "choreo_invalid_tenant_ids_total",
            "Requests refused because their tenant id exceeds the service maximum",
        );
        let invalid_horizons = registry.counter(
            "choreo_invalid_horizons_total",
            "Requests refused because their timestamp exceeds the advance horizon",
        );
        PlacementService {
            scheduler,
            registry,
            slo_fraction: cfg.slo_fraction,
            invalid_tenant_ids,
            invalid_horizons,
            env,
            stopped: false,
            trace: Arc::new(Mutex::new(TraceRing::new(TRACE_CAPACITY))),
        }
    }

    /// The metrics registry (shared with the HTTP exposition endpoint).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// The scheduler, for inspection (stats, invariants, placements).
    pub fn scheduler(&self) -> &OnlineScheduler {
        &self.scheduler
    }

    /// Mutable scheduler access (tests drive invariant checks).
    pub fn scheduler_mut(&mut self) -> &mut OnlineScheduler {
        &mut self.scheduler
    }

    /// The env, for inspection (a [`SimEnv`](crate::SimEnv) records
    /// every response).
    pub fn env(&self) -> &E {
        &self.env
    }

    /// Tear the service apart, returning the env with its recorded
    /// state.
    pub fn into_env(self) -> E {
        self.env
    }

    /// The deterministic trajectory digest so far.
    pub fn trace_hash(&self) -> u64 {
        self.scheduler.stats().trace_hash()
    }

    /// Serve one event. Returns `false` when the env is exhausted or a
    /// shutdown request has been served.
    pub fn poll(&mut self) -> bool {
        let Some((at, conn, event)) = self.env.next_event() else {
            return false;
        };
        match event {
            // Connection lifecycle is the env's business; the service
            // holds no per-connection state.
            NetEvent::Open | NetEvent::Closed => {}
            NetEvent::Request(req) => {
                let shutdown = matches!(req, ServiceRequest::Shutdown);
                let resp = self.handle(at, req);
                self.env.send(conn, resp);
                if shutdown {
                    self.stopped = true;
                    return false;
                }
            }
        }
        true
    }

    /// Serve until the env runs dry or a shutdown request arrives.
    pub fn run(&mut self) {
        self.stopped = false;
        while self.poll() {}
    }

    /// Map one request to its response, driving the scheduler and
    /// recording each of its calls' decisions in the trace ring.
    fn handle(&mut self, at: Nanos, req: ServiceRequest) -> ServiceResponse {
        // Wire-supplied tenant ids are bounded here, before the scheduler
        // (or its trace digest) sees the event: `TenantId::MAX` is the
        // decision trace's cluster-wide sentinel, rendered
        // `"tenant":null`, and no tenant may pass for it.
        match &req {
            ServiceRequest::Admit { tenant, .. }
            | ServiceRequest::SetIntensity { tenant, .. }
            | ServiceRequest::Depart { tenant }
                if *tenant > MAX_TENANT_ID =>
            {
                self.invalid_tenant_ids.inc();
                let reason =
                    format!("tenant id {tenant} exceeds the service maximum {MAX_TENANT_ID}");
                return match req {
                    ServiceRequest::Admit { .. } => ServiceResponse::Rejected { reason },
                    _ => ServiceResponse::Error(reason),
                };
            }
            _ => {}
        }
        // Wire-supplied timestamps drive `advance_to`, which replays
        // every cadence tick on the way — a far-future `at` is a
        // denial-of-service, not a clock. Bound the horizon before the
        // scheduler sees the request.
        match &req {
            ServiceRequest::ForceMigration { at }
            | ServiceRequest::InjectNetworkEvent { at, .. }
                if *at > self.scheduler.now().saturating_add(MAX_ADVANCE) =>
            {
                self.invalid_horizons.inc();
                return ServiceResponse::Error(format!(
                    "timestamp {at} exceeds the advance horizon ({MAX_ADVANCE} past now {})",
                    self.scheduler.now()
                ));
            }
            _ => {}
        }
        match req {
            ServiceRequest::Admit { tenant, app } => {
                let arrive = TenantEventKind::Arrive { app: Box::new(app) };
                let outcome = self.step(TenantEvent { at, tenant, kind: arrive });
                // The arrival's own decision is its outcome's last.
                match outcome.last().map(|d| d.kind) {
                    Some(DecisionKind::Admit) => {
                        let hosts = self
                            .scheduler
                            .tenant_placement(tenant)
                            .map(|p| p.assignment.clone())
                            .unwrap_or_default();
                        ServiceResponse::Admitted { hosts }
                    }
                    Some(DecisionKind::Queue) => ServiceResponse::Queued,
                    Some(DecisionKind::Duplicate) => ServiceResponse::Rejected {
                        reason: format!("tenant {tenant} already known"),
                    },
                    _ => ServiceResponse::Rejected {
                        reason: "no capacity and wait queue full".into(),
                    },
                }
            }
            // The wire decoder refuses a zero intensity too, but a request
            // need not come through the codec.
            ServiceRequest::SetIntensity { intensity: 0, .. } => {
                ServiceResponse::Error("intensity must be at least 1".into())
            }
            ServiceRequest::SetIntensity { intensity, .. } if intensity > MAX_INTENSITY => {
                ServiceResponse::Error(format!(
                    "intensity {intensity} exceeds the service maximum {MAX_INTENSITY}"
                ))
            }
            ServiceRequest::SetIntensity { tenant, intensity } => {
                let kind = TenantEventKind::SetIntensity { intensity };
                self.step(TenantEvent { at, tenant, kind });
                ServiceResponse::Done
            }
            ServiceRequest::Depart { tenant } => {
                self.step(TenantEvent { at, tenant, kind: TenantEventKind::Depart });
                ServiceResponse::Done
            }
            ServiceRequest::Stats => ServiceResponse::Stats(self.stats_reply()),
            ServiceRequest::Metrics => {
                // Refresh the gauges that are snapshots, not counters.
                self.scheduler.slo_attainment(self.slo_fraction);
                ServiceResponse::MetricsText(self.registry.render())
            }
            ServiceRequest::ForceMigration { at } => {
                record(&self.trace, self.scheduler.advance_to(at));
                record(&self.trace, self.scheduler.force_migration_pass());
                ServiceResponse::Done
            }
            ServiceRequest::InjectNetworkEvent { at, link, kind } => {
                // Wire-supplied link ids index the capacity table; bound
                // them here so a hostile frame cannot panic the service.
                let n_links = self.scheduler.sim_mut().topology().links().len() as u32;
                if link >= n_links {
                    return ServiceResponse::Error(format!(
                        "link {link} out of range (topology has {n_links} links)"
                    ));
                }
                // The codec's rule, for requests that did not come
                // through it: the engine panics on a fraction outside
                // (0, 1].
                if let NetworkEventKind::LinkDegrade { fraction }
                | NetworkEventKind::DrainStart { fraction } = kind
                {
                    if !(fraction > 0.0 && fraction < 1.0) {
                        return ServiceResponse::Error(format!(
                            "network-event fraction must be in (0, 1), got {fraction}"
                        ));
                    }
                }
                let event = ServiceEvent::Network(NetworkEvent { at, link, kind });
                record(&self.trace, self.scheduler.service_step(&event));
                ServiceResponse::Done
            }
            ServiceRequest::GetTrace { n } => {
                // Read-only: no clock advance, no digest bytes — the
                // trace ring is observational and export must stay so.
                ServiceResponse::Trace(self.trace_jsonl(n as usize))
            }
            ServiceRequest::Shutdown => ServiceResponse::Done,
        }
    }

    /// Step the scheduler through one tenant event and record its
    /// decisions; returns them.
    fn step(&mut self, event: TenantEvent) -> &[Decision] {
        let outcome = self.scheduler.service_step(&ServiceEvent::Tenant(event));
        record(&self.trace, outcome);
        outcome
    }

    /// The last `n` decision-trace entries as JSON lines, oldest first —
    /// what [`ServiceRequest::GetTrace`] and the HTTP `/trace` endpoint
    /// serve.
    pub fn trace_jsonl(&self, n: usize) -> String {
        lock(&self.trace).to_jsonl(n)
    }

    /// The service's trace ring, shared with the HTTP `/trace` endpoint
    /// ([`crate::MetricsServer::start`]). The loop shares decisions, not
    /// text: it appends each scheduler call's decisions as the call
    /// returns them (a call that decided nothing does not take the
    /// lock), and the scrape thread renders JSONL from its side,
    /// byte-identical to [`PlacementService::trace_jsonl`] for the same
    /// state. Observational only — exporting never touches the clock or
    /// the digest.
    pub fn trace_export(&self) -> Arc<Mutex<TraceRing>> {
        Arc::clone(&self.trace)
    }

    fn stats_reply(&self) -> ServiceStatsReply {
        let s = self.scheduler.stats();
        ServiceStatsReply {
            events: s.events,
            admitted: s.admitted,
            queued: s.queued,
            queue_admitted: s.queue_admitted,
            rejected: s.rejected,
            duplicates: s.duplicate_arrivals,
            departures: s.departures,
            migrations: s.migrations,
            active: self.scheduler.active_tenants() as u64,
            queue_len: self.scheduler.queue_len() as u64,
            decisions_total: lock(&self.trace).total(),
            trace_hash: s.trace_hash(),
        }
    }
}

/// Append a scheduler call's decisions to the trace ring; a call that
/// decided nothing leaves the lock alone.
fn record(trace: &Mutex<TraceRing>, outcome: &[Decision]) {
    if !outcome.is_empty() {
        let mut ring = lock(trace);
        for &d in outcome {
            ring.push(d);
        }
    }
}

/// Lock the trace ring. Under the lock the ring is only cloned or gets
/// `Copy` decisions pushed, so a guard a panicking thread left poisoned
/// still holds a consistent ring.
pub(crate) fn lock(trace: &Mutex<TraceRing>) -> MutexGuard<'_, TraceRing> {
    trace.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ConnId;
    use crate::sim::SimEnv;
    use choreo_profile::{AppProfile, TrafficMatrix};
    use choreo_topology::MultiRootedTreeSpec;

    fn small_topo() -> (Arc<Topology>, Arc<RouteTable>) {
        let topo = Arc::new(
            MultiRootedTreeSpec {
                cores: 2,
                pods: 2,
                aggs_per_pod: 1,
                tors_per_pod: 2,
                hosts_per_tor: 2,
                ..MultiRootedTreeSpec::default()
            }
            .build(),
        );
        let routes = Arc::new(RouteTable::new(&topo));
        (topo, routes)
    }

    fn app(n: usize) -> AppProfile {
        let mut m = TrafficMatrix::zeros(n);
        for i in 0..n - 1 {
            m.set(i, i + 1, 1_000_000);
        }
        AppProfile::new("svc-test", vec![1.0; n], m, 0)
    }

    fn sim_service(script: Vec<(Nanos, ConnId, ServiceRequest)>) -> PlacementService<SimEnv> {
        let (topo, routes) = small_topo();
        PlacementService::new(topo, routes, ServiceConfig::default(), SimEnv::new(script))
    }

    #[test]
    fn admit_stats_depart_round_trip() {
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Admit { tenant: 1, app: app(3) }),
            (20, 1, ServiceRequest::Stats),
            (30, 1, ServiceRequest::Depart { tenant: 1 }),
            (40, 1, ServiceRequest::Stats),
        ]);
        svc.run();
        let env = svc.into_env();
        let rs = env.responses(1);
        assert_eq!(rs.len(), 4);
        let ServiceResponse::Admitted { hosts } = &rs[0] else { panic!("{:?}", rs[0]) };
        assert_eq!(hosts.len(), 3);
        let ServiceResponse::Stats(s) = &rs[1] else { panic!("{:?}", rs[1]) };
        assert_eq!((s.admitted, s.active), (1, 1));
        assert_eq!(rs[2], ServiceResponse::Done);
        let ServiceResponse::Stats(s) = &rs[3] else { panic!("{:?}", rs[3]) };
        assert_eq!((s.departures, s.active), (1, 0));
    }

    #[test]
    fn duplicate_admission_is_rejected_politely() {
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Admit { tenant: 5, app: app(2) }),
            (20, 1, ServiceRequest::Admit { tenant: 5, app: app(2) }),
        ]);
        svc.run();
        let env = svc.into_env();
        let rs = env.responses(1);
        assert!(matches!(rs[0], ServiceResponse::Admitted { .. }));
        assert!(matches!(&rs[1], ServiceResponse::Rejected { reason } if reason.contains("5")));
    }

    #[test]
    fn wire_sized_tenant_ids_are_refused_before_the_scheduler() {
        // A u64::MAX id is the decision trace's cluster-wide sentinel
        // (rendered `"tenant":null`); the service must bounce it without
        // stepping the scheduler at all.
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Admit { tenant: u64::MAX, app: app(2) }),
            (20, 1, ServiceRequest::SetIntensity { tenant: u64::MAX, intensity: 2 }),
            (30, 1, ServiceRequest::Depart { tenant: u64::MAX }),
            (40, 1, ServiceRequest::Admit { tenant: 1, app: app(2) }),
        ]);
        svc.run();
        assert_eq!(svc.scheduler().stats().events, 1, "out-of-range ids never reach the scheduler");
        assert!(svc.registry().render().contains("choreo_invalid_tenant_ids_total 3"));
        let env = svc.into_env();
        let rs = env.responses(1);
        assert!(
            matches!(&rs[0], ServiceResponse::Rejected { reason } if reason.contains("maximum")),
            "{:?}",
            rs[0]
        );
        assert!(matches!(&rs[1], ServiceResponse::Error(_)), "{:?}", rs[1]);
        assert!(matches!(&rs[2], ServiceResponse::Error(_)), "{:?}", rs[2]);
        assert!(matches!(&rs[3], ServiceResponse::Admitted { .. }), "{:?}", rs[3]);
    }

    #[test]
    fn zero_intensity_is_refused_before_the_scheduler() {
        // 3-core tasks on four-core hosts: the transfer crosses hosts.
        let mut two_hosts = app(2);
        two_hosts.cpu = vec![3.0; 2];
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Admit { tenant: 1, app: two_hosts }),
            (20, 1, ServiceRequest::SetIntensity { tenant: 1, intensity: 0 }),
            (30, 1, ServiceRequest::SetIntensity { tenant: 1, intensity: 2 }),
        ]);
        svc.run();
        assert_eq!(svc.scheduler().tenant_intensity(1), Some(2));
        assert_eq!(svc.scheduler_mut().sim_mut().active_flows(), 2);
        svc.scheduler_mut().check_invariants();
        let env = svc.into_env();
        let rs = env.responses(1);
        assert!(matches!(rs[0], ServiceResponse::Admitted { .. }), "{:?}", rs[0]);
        assert!(matches!(&rs[1], ServiceResponse::Error(e) if e.contains("at least 1")), "{rs:?}");
        assert_eq!(rs[2], ServiceResponse::Done);
    }

    #[test]
    fn oversized_intensities_are_refused_before_the_scheduler() {
        // 3-core tasks on four-core hosts: the transfer crosses hosts.
        let mut two_hosts = app(2);
        two_hosts.cpu = vec![3.0; 2];
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Admit { tenant: 1, app: two_hosts }),
            (20, 1, ServiceRequest::SetIntensity { tenant: 1, intensity: MAX_INTENSITY + 1 }),
            (30, 1, ServiceRequest::SetIntensity { tenant: 1, intensity: u32::MAX }),
            (40, 1, ServiceRequest::SetIntensity { tenant: 1, intensity: MAX_INTENSITY }),
        ]);
        // Check the first refusal before serving `u32::MAX`: a service
        // that takes it starts flows until the engine panics.
        while svc.env().responses(1).len() < 2 {
            assert!(svc.poll(), "the script holds four requests");
        }
        let refused = &svc.env().responses(1)[1];
        assert!(
            matches!(refused, ServiceResponse::Error(e) if e.contains("maximum")),
            "{refused:?}"
        );
        svc.run();
        assert_eq!(svc.scheduler().tenant_intensity(1), Some(MAX_INTENSITY));
        assert_eq!(svc.scheduler_mut().sim_mut().active_flows(), MAX_INTENSITY as usize);
        svc.scheduler_mut().check_invariants();
        let rs = svc.env().responses(1);
        assert!(matches!(&rs[2], ServiceResponse::Error(e) if e.contains("maximum")), "{rs:?}");
        assert_eq!(rs[3], ServiceResponse::Done);
    }

    #[test]
    fn out_of_range_fractions_are_refused_before_the_scheduler() {
        use choreo_profile::NetworkEventKind::{DrainStart, LinkDegrade};
        let inject = |at, kind| (at, 1, ServiceRequest::InjectNetworkEvent { at, link: 0, kind });
        let mut svc = sim_service(vec![
            inject(10, LinkDegrade { fraction: 0.0 }),
            inject(20, DrainStart { fraction: 1.5 }),
            inject(30, LinkDegrade { fraction: f64::NAN }),
            inject(40, DrainStart { fraction: 1.0 }),
            inject(50, LinkDegrade { fraction: -0.5 }),
            inject(60, DrainStart { fraction: 0.5 }),
        ]);
        svc.run();
        assert_eq!(svc.scheduler().stats().network_events, 1, "only the drain to 0.5 applies");
        let rs = svc.env().responses(1);
        for r in &rs[..5] {
            assert!(matches!(r, ServiceResponse::Error(e) if e.contains("(0, 1)")), "{r:?}");
        }
        assert_eq!(rs[5], ServiceResponse::Done);
    }

    #[test]
    fn metrics_request_renders_the_registry() {
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Admit { tenant: 1, app: app(2) }),
            (20, 1, ServiceRequest::Metrics),
        ]);
        svc.run();
        let env = svc.into_env();
        let ServiceResponse::MetricsText(text) = &env.responses(1)[1] else { panic!() };
        assert!(text.contains("choreo_admitted_total 1"), "{text}");
        assert!(text.contains("choreo_placement_latency_seconds_bucket"), "{text}");
        assert!(text.contains("choreo_slo_attainment 1"), "{text}");
    }

    #[test]
    fn injected_network_events_flow_through_to_metrics() {
        use choreo_profile::NetworkEventKind;
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Admit { tenant: 1, app: app(2) }),
            (
                20,
                1,
                ServiceRequest::InjectNetworkEvent {
                    at: 20,
                    link: 0,
                    kind: NetworkEventKind::LinkFail,
                },
            ),
            (
                30,
                1,
                ServiceRequest::InjectNetworkEvent {
                    at: 30,
                    link: 0,
                    kind: NetworkEventKind::LinkRecover,
                },
            ),
            (
                40,
                1,
                ServiceRequest::InjectNetworkEvent {
                    at: 40,
                    link: 9_999,
                    kind: NetworkEventKind::LinkFail,
                },
            ),
            (50, 1, ServiceRequest::Metrics),
        ]);
        svc.run();
        assert_eq!(svc.scheduler().stats().network_events, 2);
        svc.scheduler_mut().check_invariants();
        let env = svc.into_env();
        let rs = env.responses(1);
        assert_eq!(rs[1], ServiceResponse::Done);
        assert_eq!(rs[2], ServiceResponse::Done);
        assert!(
            matches!(&rs[3], ServiceResponse::Error(e) if e.contains("out of range")),
            "{:?}",
            rs[3]
        );
        let ServiceResponse::MetricsText(text) = &rs[4] else { panic!("{:?}", rs[4]) };
        assert!(text.contains("choreo_link_events_total 2"), "{text}");
        assert!(text.contains("choreo_capacity_lost_fraction 0"), "{text}");
        assert!(text.contains("choreo_drift_detected_total"), "{text}");
        assert!(text.contains("choreo_failure_migrations_total"), "{text}");
    }

    #[test]
    fn get_trace_returns_jsonl_without_advancing_the_clock() {
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Admit { tenant: 1, app: app(3) }),
            (20, 1, ServiceRequest::GetTrace { n: 16 }),
            (30, 1, ServiceRequest::GetTrace { n: 1 }),
        ]);
        svc.run();
        let now = svc.scheduler().now();
        let hash = svc.trace_hash();
        assert_eq!(svc.trace_jsonl(16), svc.trace_jsonl(16));
        assert_eq!(svc.trace_hash(), hash, "trace export never touches the digest");
        assert_eq!(svc.scheduler().now(), now, "trace export never advances the clock");
        let env = svc.into_env();
        let rs = env.responses(1);
        let ServiceResponse::Trace(jsonl) = &rs[1] else { panic!("{:?}", rs[1]) };
        assert!(jsonl.lines().count() >= 1, "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"admit\""), "{jsonl}");
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"at\":") && line.ends_with('}'), "{line}");
        }
        let ServiceResponse::Trace(tail) = &rs[2] else { panic!("{:?}", rs[2]) };
        assert_eq!(tail.lines().count(), 1, "n bounds the export");
    }

    #[test]
    fn oversized_wire_clock_advances_are_refused() {
        use choreo_profile::NetworkEventKind;
        // `advance_to(u64::MAX)` would replay ~10^10 measurement passes
        // (30 s drift cadence); the service must refuse the frame before
        // the scheduler's clock moves, then keep serving normally.
        let horizon_probe = 2 * 3_600_000_000_000u64; // 2 h: well past the 1 h horizon
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Admit { tenant: 1, app: app(2) }),
            (20, 1, ServiceRequest::ForceMigration { at: u64::MAX }),
            (
                30,
                1,
                ServiceRequest::InjectNetworkEvent {
                    at: u64::MAX,
                    link: 0,
                    kind: NetworkEventKind::LinkFail,
                },
            ),
            (40, 1, ServiceRequest::ForceMigration { at: horizon_probe }),
            (50, 1, ServiceRequest::Admit { tenant: 2, app: app(2) }),
        ]);
        svc.run();
        assert_eq!(svc.scheduler().stats().network_events, 0, "hostile event never applied");
        assert!(svc.scheduler().now() < horizon_probe, "clock never chased the hostile frames");
        assert!(svc.registry().render().contains("choreo_invalid_horizons_total 3"));
        let env = svc.into_env();
        let rs = env.responses(1);
        assert!(matches!(&rs[0], ServiceResponse::Admitted { .. }), "{:?}", rs[0]);
        for r in &rs[1..4] {
            assert!(
                matches!(r, ServiceResponse::Error(e) if e.contains("advance horizon")),
                "{r:?}"
            );
        }
        assert!(matches!(&rs[4], ServiceResponse::Admitted { .. }), "{:?}", rs[4]);
    }

    #[test]
    fn force_migration_within_the_horizon_still_runs() {
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Admit { tenant: 1, app: app(3) }),
            (20, 1, ServiceRequest::ForceMigration { at: 1_000_000 }),
        ]);
        svc.run();
        assert!(svc.scheduler().stats().migration_passes >= 1);
        let env = svc.into_env();
        assert_eq!(env.responses(1)[1], ServiceResponse::Done);
    }

    #[test]
    fn shutdown_stops_the_loop_with_a_response() {
        let mut svc = sim_service(vec![
            (10, 1, ServiceRequest::Shutdown),
            (20, 1, ServiceRequest::Stats), // never served
        ]);
        svc.run();
        assert!(svc.stopped);
        let env = svc.into_env();
        assert_eq!(env.responses(1), &[ServiceResponse::Done]);
        assert!(env.remaining() > 0, "loop stopped before draining the script");
    }

    #[test]
    fn sim_runs_are_bit_reproducible() {
        let script: Vec<(Nanos, ConnId, ServiceRequest)> = (0..20)
            .map(|i| {
                (
                    i * 100,
                    1 + i % 3,
                    ServiceRequest::Admit { tenant: i, app: app(2 + (i % 3) as usize) },
                )
            })
            .chain((0..10).map(|i| (2_000 + i * 100, 1, ServiceRequest::Depart { tenant: i * 2 })))
            .collect();
        let run = || {
            let mut svc = sim_service(script.clone());
            svc.run();
            svc.trace_hash()
        };
        assert_eq!(run(), run());
    }
}
