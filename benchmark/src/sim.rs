//! In-process passes over a workload's stream: the service behind
//! `SimEnv`, and the scheduler driven directly.

use std::sync::Arc;
use std::time::Instant;

use choreo_metrics::span::{self, SpanRecorder};
use choreo_metrics::Registry;
use choreo_online::{
    DriftConfig, MigrationConfig, OnlineConfig, OnlineScheduler, PlacementPolicy, SchedulerBuilder,
};
use choreo_profile::{ServiceEvent, TenantEventKind};
use choreo_service::{PlacementService, ServiceConfig, SimEnv};
use choreo_topology::Nanos;
use choreo_wire::{ServiceRequest, ServiceResponse};

use crate::calib::{Calibrator, Quiet, SEGMENT};
use crate::proc;
use crate::spans::Tracer;
use crate::workload::Cluster;

/// How the responses of a pass held up against its requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Every response had the shape its request calls for.
    pub well_formed: bool,
    /// `Rejected` and `Error` responses: requests the service failed.
    pub failed: u64,
}

/// Check one response against its request: the right variant, and for
/// an admission one host in range per task.
pub fn response_ok(req: &ServiceRequest, resp: &ServiceResponse, n_hosts: usize) -> bool {
    match (req, resp) {
        (ServiceRequest::Admit { app, .. }, ServiceResponse::Admitted { hosts }) => {
            hosts.len() == app.n_tasks() && hosts.iter().all(|&h| (h as usize) < n_hosts)
        }
        (ServiceRequest::Admit { .. }, ServiceResponse::Queued)
        | (ServiceRequest::Admit { .. }, ServiceResponse::Rejected { .. })
        | (ServiceRequest::Stats, ServiceResponse::Stats(_))
        | (ServiceRequest::Metrics, ServiceResponse::MetricsText(_))
        | (ServiceRequest::GetTrace { .. }, ServiceResponse::Trace(_)) => true,
        (
            ServiceRequest::SetIntensity { .. }
            | ServiceRequest::Depart { .. }
            | ServiceRequest::InjectNetworkEvent { .. }
            | ServiceRequest::Shutdown,
            ServiceResponse::Done,
        ) => true,
        // An `Error` is a well-formed answer; it counts as failed.
        (_, ServiceResponse::Error(_)) => true,
        _ => false,
    }
}

pub fn is_failure(resp: &ServiceResponse) -> bool {
    matches!(resp, ServiceResponse::Rejected { .. } | ServiceResponse::Error(_))
}

pub fn judge(reqs: &[ServiceRequest], resps: &[ServiceResponse], n_hosts: usize) -> Verdict {
    Verdict {
        well_formed: reqs.len() == resps.len()
            && reqs.iter().zip(resps).all(|(q, r)| response_ok(q, r, n_hosts)),
        failed: resps.iter().filter(|r| is_failure(r)).count() as u64,
    }
}

/// The value of an unlabelled sample in a text exposition.
pub fn exposition_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
}

/// One pass of the service over a script.
pub struct ServiceRun {
    /// From `setup_started` until the service was ready for its first
    /// request.
    pub setup_s: f64,
    /// Wall time of the timed requests as measured and as it would have
    /// been on a quiet machine (see [`crate::calib`]).
    pub quiet: Quiet,
    /// On-CPU time of the timed requests, as measured.
    pub cpu_ns: u64,
    /// One `poll()` per timed request, microseconds as measured (empty
    /// when traced).
    pub lat_us: Vec<f64>,
    pub requests: Vec<ServiceRequest>,
    /// One per request, in order.
    pub responses: Vec<ServiceResponse>,
    pub digest: u64,
}

/// Run `script` through `PlacementService<SimEnv>` on one scripted
/// connection, the first `untimed` requests before the clock starts.
/// With a tracer every `poll()` becomes a span and the program's solver
/// phases its children.
pub fn service_pass(
    cluster: &Cluster,
    script: &[(Nanos, u64, ServiceRequest)],
    untimed: usize,
    tracer: Option<&Arc<Tracer>>,
    setup_started: Instant,
) -> ServiceRun {
    let requests: Vec<ServiceRequest> = script.iter().map(|(_, _, r)| r.clone()).collect();
    let n = script.len();
    let mut svc = PlacementService::new(
        cluster.topo.clone(),
        cluster.routes.clone(),
        ServiceConfig::default(),
        SimEnv::new(script.to_vec()),
    );
    assert!(svc.poll(), "the connection opens");
    let setup_s = setup_started.elapsed().as_secs_f64();
    for _ in 0..untimed {
        svc.poll();
    }
    let mut lat_us = Vec::new();
    let mut cal = Calibrator::new(n - untimed);
    let pid = std::process::id();
    let cpu0 = proc::cpu_ns(pid);
    cal.tick();
    match tracer {
        None => {
            lat_us.reserve_exact(n - untimed);
            for j in 0..n - untimed {
                if j > 0 && j % SEGMENT == 0 {
                    cal.tick();
                }
                let t = Instant::now();
                svc.poll();
                lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        Some(tracer) => {
            span::install(tracer.clone() as Arc<dyn SpanRecorder>);
            for j in 0..n - untimed {
                if j > 0 && j % SEGMENT == 0 {
                    cal.tick();
                }
                tracer.set_request((untimed + j) as u32);
                tracer.span("poll", || svc.poll());
            }
            span::uninstall();
        }
    }
    cal.tick();
    let cpu_ns = proc::cpu_ns(pid) - cpu0;
    let quiet = cal.finish();
    let cpu_ns = cpu_ns.saturating_sub(quiet.ticks_ns);
    while svc.poll() {}
    svc.scheduler().check_invariants();
    let digest = svc.trace_hash();
    let responses = svc.into_env().responses(1).to_vec();
    ServiceRun { setup_s, quiet, cpu_ns, lat_us, requests, responses, digest }
}

/// What the scheduler consumed an event as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Arrive,
    SetIntensity,
    Depart,
    Network,
}

pub fn kind_of(ev: &ServiceEvent) -> EventKind {
    match ev {
        ServiceEvent::Tenant(t) => match t.kind {
            TenantEventKind::Arrive { .. } => EventKind::Arrive,
            TenantEventKind::SetIntensity { .. } => EventKind::SetIntensity,
            TenantEventKind::Depart => EventKind::Depart,
        },
        ServiceEvent::Network(_) => EventKind::Network,
    }
}

/// The scheduler `PlacementService` builds for `ServiceConfig::default()`,
/// recording into a registry the caller owns.
fn default_scheduler(cluster: &Cluster, registry: &Registry) -> OnlineScheduler {
    let cfg = ServiceConfig::default();
    SchedulerBuilder::new(cluster.topo.clone(), cluster.routes.clone())
        .config(cfg.online)
        .seed(cfg.seed)
        .metrics_registry(registry)
        .build()
}

/// One pass of the scheduler driven directly.
pub struct DirectRun {
    pub quiet: Quiet,
    /// Nanoseconds inside `advance_to(ev.at)` per timed event (empty
    /// when traced).
    pub advance_ns: Vec<f64>,
    /// Microseconds inside `step`/`network_step` per timed event (empty
    /// when traced).
    pub step_us: Vec<f64>,
    pub digest: u64,
    pub scheduler: OnlineScheduler,
    pub registry: Arc<Registry>,
}

/// Replay `events` into a fresh scheduler with
/// `advance_to` + `step`/`network_step`, which is what the service does
/// with the requests they become. With a tracer each call is a span.
pub fn direct_pass(
    cluster: &Cluster,
    events: &[ServiceEvent],
    untimed: usize,
    tracer: Option<&Arc<Tracer>>,
) -> DirectRun {
    let registry = Arc::new(Registry::new());
    let mut sched = default_scheduler(cluster, &registry);
    for ev in &events[..untimed] {
        sched.service_step(ev);
    }
    let mut advance_ns = Vec::new();
    let mut step_us = Vec::new();
    let mut cal = Calibrator::new(events.len() - untimed);
    // Consumed and dropped one by one, as the service consumes its
    // script: a replay that kept every event alive would hand the
    // allocator colder memory than the service gets.
    let timed = events[untimed..].to_vec();
    cal.tick();
    match tracer {
        None => {
            advance_ns.reserve_exact(timed.len());
            step_us.reserve_exact(timed.len());
            for (j, ev) in timed.into_iter().enumerate() {
                let ev = &ev;
                if j > 0 && j % SEGMENT == 0 {
                    cal.tick();
                }
                let a = Instant::now();
                sched.advance_to(ev.at());
                let b = Instant::now();
                sched.service_step(ev);
                let c = Instant::now();
                advance_ns.push((b - a).as_nanos() as f64);
                step_us.push((c - b).as_nanos() as f64 / 1e3);
            }
        }
        Some(tracer) => {
            span::install(tracer.clone() as Arc<dyn SpanRecorder>);
            for (j, ev) in timed.into_iter().enumerate() {
                let ev = &ev;
                if j > 0 && j % SEGMENT == 0 {
                    cal.tick();
                }
                tracer.set_request((untimed + j) as u32);
                tracer.span("advance_to", || sched.advance_to(ev.at()));
                match ev {
                    ServiceEvent::Tenant(t) => tracer.span("step", || sched.step(t)),
                    ServiceEvent::Network(n) => {
                        tracer.span("network_step", || sched.network_step(n))
                    }
                }
            }
            span::uninstall();
        }
    }
    cal.tick();
    let quiet = cal.finish();
    sched.check_invariants();
    let digest = sched.stats().trace_hash();
    DirectRun { quiet, advance_ns, step_us, digest, scheduler: sched, registry }
}

/// Mean departed-tenant rate (Mbit/s) when the same stream is placed at
/// random: the network-oblivious baseline behind `rate_gain`. Migration
/// and drift are off, or they would repair random placements greedily.
pub fn random_pass(cluster: &Cluster, events: &[ServiceEvent]) -> f64 {
    let cfg = OnlineConfig {
        policy: PlacementPolicy::Random(1),
        migration: MigrationConfig { cadence: None, ..Default::default() },
        drift: DriftConfig { cadence: None, ..Default::default() },
        ..Default::default()
    };
    let mut sched =
        SchedulerBuilder::new(cluster.topo.clone(), cluster.routes.clone()).config(cfg).build();
    for ev in events {
        sched.service_step(ev);
    }
    sched.stats().mean_departed_rate_bps().unwrap_or(0.0) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use choreo_profile::{AppProfile, TrafficMatrix};

    #[test]
    fn responses_are_judged_against_their_requests() {
        let app = AppProfile::new("t", vec![1.0, 1.0], TrafficMatrix::zeros(2), 0);
        let admit = ServiceRequest::Admit { tenant: 1, app };
        let ok = ServiceResponse::Admitted { hosts: vec![0, 3] };
        assert!(response_ok(&admit, &ok, 4));
        assert!(!response_ok(&admit, &ok, 3), "host out of range");
        assert!(!response_ok(&admit, &ServiceResponse::Admitted { hosts: vec![0] }, 4));
        assert!(!response_ok(&admit, &ServiceResponse::Done, 4));
        assert!(response_ok(&ServiceRequest::Depart { tenant: 1 }, &ServiceResponse::Done, 4));
        let v = judge(
            &[admit.clone(), admit],
            &[ServiceResponse::Queued, ServiceResponse::Rejected { reason: "full".into() }],
            4,
        );
        assert!(v.well_formed);
        assert_eq!(v.failed, 1);
    }

    #[test]
    fn exposition_values_parse_by_exact_name() {
        let text = "# HELP x\nchoreo_slo_attainment_total 9\nchoreo_slo_attainment 0.75\n";
        assert_eq!(exposition_value(text, "choreo_slo_attainment"), Some(0.75));
        assert_eq!(exposition_value(text, "missing"), None);
    }
}
