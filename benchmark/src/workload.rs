//! The four workloads: a topology and a generated request stream each.
//!
//! Every workload runs `ServiceConfig::default()`; only the topology and
//! the generated input differ. The seed reaches the stream generators
//! and nothing else — the program under test receives only the requests.

use std::sync::Arc;
use std::time::Instant;

use choreo_profile::{
    merge_events, switch_link_groups, NetworkEvent, NetworkEventStream, NetworkEventStreamConfig,
    ServiceEvent, SwitchFailureConfig, TenantEvent, TenantEventKind, WorkloadGenConfig,
    WorkloadStream, WorkloadStreamConfig,
};
use choreo_topology::{MultiRootedTreeSpec, Nanos, RouteTable, Topology, SECS};
use choreo_wire::ServiceRequest;

/// Which of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SteadySim,
    FailoverSim,
    Scale512,
    ServeLoopback,
}

/// One workload's fixed shape.
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub tree: MultiRootedTreeSpec,
    /// ECMP paths kept per host pair.
    pub max_paths: usize,
    /// Requests per repeat, and how many of them run before the clock
    /// starts (so the cluster is at steady state when it does).
    pub total: usize,
    pub untimed: usize,
    /// How requests are offered, for the report.
    pub loop_type: &'static str,
    /// What one sub-stream (one untraced child) and one traced round
    /// cost on the 2-core box the benchmark was sized on; a run's
    /// `--seconds` divided by these gives its child counts.
    pub stream_seconds: f64,
    pub round_seconds: f64,
}

const SIM_LOOP: &str = "closed, 1 scripted connection, in process";

/// The four workloads, in the order a full run takes them.
pub fn all() -> Vec<Spec> {
    vec![steady_sim(), failover_sim(), scale_512(), serve_loopback()]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// `bench_online`'s 128-host tree: 2 cores, 8 pods x 2 aggs x 4 ToRs x 4 hosts.
fn tree_128() -> MultiRootedTreeSpec {
    MultiRootedTreeSpec {
        cores: 2,
        pods: 8,
        aggs_per_pod: 2,
        tors_per_pod: 4,
        hosts_per_tor: 4,
        ..Default::default()
    }
}

fn steady_sim() -> Spec {
    Spec {
        kind: Kind::SteadySim,
        name: "steady-sim",
        why: "saturated 128-host cluster in-process: queue retries and probe batches dominate, wire does nothing",
        tree: tree_128(),
        max_paths: 16,
        total: 36_000,
        untimed: 4_000,
        loop_type: SIM_LOOP,
        stream_seconds: 3.0,
        round_seconds: 15.0,
    }
}

fn failover_sim() -> Spec {
    Spec {
        kind: Kind::FailoverSim,
        name: "failover-sim",
        why: "92% link incidents incl. whole-switch failures: capacity re-solves, drift and forced migration instead of flow churn",
        tree: tree_128(),
        max_paths: 16,
        total: 48_000,
        untimed: 4_000,
        loop_type: SIM_LOOP,
        stream_seconds: 4.0,
        round_seconds: 15.0,
    }
}

fn scale_512() -> Spec {
    Spec {
        kind: Kind::Scale512,
        name: "scale-512",
        why: "512 hosts at 35% utilisation, empty wait queue: solver replay depth, integration and the route table, no retry probing",
        tree: MultiRootedTreeSpec {
            cores: 4,
            pods: 8,
            aggs_per_pod: 4,
            tors_per_pod: 8,
            hosts_per_tor: 8,
            ..Default::default()
        },
        max_paths: 4,
        total: 30_000,
        untimed: 4_000,
        loop_type: SIM_LOOP,
        stream_seconds: 3.0,
        round_seconds: 15.0,
    }
}

fn serve_loopback() -> Spec {
    Spec {
        kind: Kind::ServeLoopback,
        name: "serve-loopback",
        why: "the shipped choreo-serve over one loopback TCP connection with reads beside writes: frames, sockets, trace export",
        // What `choreo-serve serve --pods 16 --hosts-per-tor 4` builds.
        tree: MultiRootedTreeSpec { pods: 16, hosts_per_tor: 4, ..Default::default() },
        max_paths: 16,
        // Ten short sub-streams to a run, not five long ones: how loaded a
        // stream leaves the cluster wanders for as long as the stream
        // lasts, and only a fresh start is independent of the last.
        total: 10_000,
        untimed: 2_000,
        loop_type: "closed, 1 TCP connection on loopback",
        stream_seconds: 2.0,
        round_seconds: 20.0,
    }
}

/// `bench_online`'s tenant shape: 4-8 tasks, up to 3 connections per
/// transfer, two-minute median lifetimes.
fn tenant_stream(seed: u64, interarrival: Nanos, intensity_clock: Nanos) -> WorkloadStream {
    let cfg = WorkloadStreamConfig {
        gen: WorkloadGenConfig {
            tasks_min: 4,
            tasks_max: 8,
            mean_interarrival: interarrival,
            ..Default::default()
        },
        mean_intensity_change: intensity_clock,
        max_intensity: 3,
        ..Default::default()
    };
    WorkloadStream::new(cfg, seed)
}

/// Network events up to `until`, from a stream seeded apart from the
/// tenant stream so neither shifts the other.
fn network_until(cfg: NetworkEventStreamConfig, seed: u64, until: Nanos) -> Vec<NetworkEvent> {
    NetworkEventStream::new(cfg, seed ^ 0x4e45_5453).take_while(|e| e.at <= until).collect()
}

/// The built cluster plus how long each part took to build.
pub struct Cluster {
    pub topo: Arc<Topology>,
    pub routes: Arc<RouteTable>,
    pub topology_build_s: f64,
    pub routes_build_s: f64,
}

impl Spec {
    pub fn cluster(&self) -> Cluster {
        let t0 = Instant::now();
        let topo = Arc::new(self.tree.build());
        let topology_build_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let routes = Arc::new(RouteTable::with_max_paths(&topo, self.max_paths));
        let routes_build_s = t1.elapsed().as_secs_f64();
        Cluster { topo, routes, topology_build_s, routes_build_s }
    }

    /// The workload's event stream, a pure function of `(self, seed)`.
    pub fn events(&self, topo: &Topology, seed: u64) -> Vec<ServiceEvent> {
        self.events_of(topo, seed, self.total)
    }

    /// The first `total` requests of the stream of `seed`.
    pub fn events_of(&self, topo: &Topology, seed: u64, total: usize) -> Vec<ServiceEvent> {
        let n_links = topo.links().len() as u32;
        match self.kind {
            Kind::SteadySim => {
                let tenants: Vec<TenantEvent> =
                    tenant_stream(seed, 2 * SECS, 12 * SECS).take(total).collect();
                let until = tenants.last().map_or(0, |e| e.at);
                let net = network_until(
                    NetworkEventStreamConfig { n_links, ..Default::default() },
                    seed,
                    until,
                );
                let mut merged = merge_events(tenants, net);
                merged.truncate(total);
                merged
            }
            Kind::FailoverSim => {
                let tenants: Vec<TenantEvent> =
                    tenant_stream(seed, 2 * SECS, 600 * SECS).take(4_000).collect();
                let until = tenants.last().map_or(0, |e| e.at);
                let cfg = NetworkEventStreamConfig {
                    n_links,
                    mean_time_between_incidents: SECS / 2,
                    switch_failures: Some(SwitchFailureConfig {
                        groups: switch_link_groups(topo, 2),
                        switch_prob: 0.2,
                    }),
                    ..Default::default()
                };
                let mut merged = merge_events(tenants, network_until(cfg, seed, until));
                merged.truncate(total);
                merged
            }
            Kind::Scale512 => {
                tenant_stream(seed, SECS, 12 * SECS).take(total).map(ServiceEvent::Tenant).collect()
            }
            // Network events are left out: their `at` would jump the
            // server's wall-stamped clock.
            Kind::ServeLoopback => tenant_stream(seed, 2 * SECS, 12 * SECS)
                .take(total)
                .map(ServiceEvent::Tenant)
                .collect(),
        }
    }
}

/// The wire request a stream event becomes.
pub fn request_of(ev: &ServiceEvent) -> ServiceRequest {
    match ev {
        ServiceEvent::Tenant(t) => match &t.kind {
            TenantEventKind::Arrive { app } => {
                ServiceRequest::Admit { tenant: t.tenant, app: (**app).clone() }
            }
            TenantEventKind::SetIntensity { intensity } => {
                ServiceRequest::SetIntensity { tenant: t.tenant, intensity: *intensity }
            }
            TenantEventKind::Depart => ServiceRequest::Depart { tenant: t.tenant },
        },
        ServiceEvent::Network(n) => {
            ServiceRequest::InjectNetworkEvent { at: n.at, link: n.link, kind: n.kind }
        }
    }
}

/// One scripted connection carrying every event at its own time.
pub fn script_of(events: &[ServiceEvent]) -> Vec<(Nanos, u64, ServiceRequest)> {
    events.iter().map(|ev| (ev.at(), 1, request_of(ev))).collect()
}
