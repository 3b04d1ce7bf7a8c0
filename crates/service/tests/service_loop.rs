//! The service-shell acceptance tests: the sim-backed loop is
//! bit-identical to driving the scheduler directly, faults don't break
//! determinism or invariants, and the same dispatch code serves real
//! loopback sockets.

use std::sync::Arc;

use choreo_online::{OnlineScheduler, SchedulerBuilder};
use choreo_profile::{AppProfile, TenantEvent, TenantEventKind, TrafficMatrix};
use choreo_service::service::TRACE_CAPACITY;
use choreo_service::{
    ConnId, FaultPlan, NetEnv, PlacementService, ServiceConfig, ServiceRequest, ServiceResponse,
    SimEnv,
};
use choreo_topology::{MultiRootedTreeSpec, Nanos, RouteTable, Topology};
use proptest::prelude::*;

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

fn app_for(tenant: u64, n_tasks: usize) -> AppProfile {
    let mut m = TrafficMatrix::zeros(n_tasks);
    for i in 0..n_tasks {
        m.set(i, (i + 1) % n_tasks, 1_000_000 * (1 + tenant % 7));
    }
    AppProfile::new(format!("t{tenant}"), vec![1.0; n_tasks], m, 0)
}

/// One generated operation: `(op, tenant, n_tasks)` becomes an
/// arrive/depart/intensity event.
type Op = (u8, u64, usize);

/// The same workload, expressed both ways.
fn trace(ops: &[Op]) -> (Vec<TenantEvent>, Vec<(Nanos, ConnId, ServiceRequest)>) {
    let mut events = Vec::with_capacity(ops.len());
    let mut script = Vec::with_capacity(ops.len());
    for (i, &(op, tenant, n_tasks)) in ops.iter().enumerate() {
        let at = (i as u64 + 1) * 1_000_000;
        let conn = 1 + tenant % 3;
        let (kind, req) = match op % 3 {
            0 => (
                TenantEventKind::Arrive { app: Box::new(app_for(tenant, n_tasks)) },
                ServiceRequest::Admit { tenant, app: app_for(tenant, n_tasks) },
            ),
            1 => (TenantEventKind::Depart, ServiceRequest::Depart { tenant }),
            _ => {
                let intensity = 1 + (n_tasks as u32 % 3);
                (
                    TenantEventKind::SetIntensity { intensity },
                    ServiceRequest::SetIntensity { tenant, intensity },
                )
            }
        };
        events.push(TenantEvent { at, tenant, kind });
        script.push((at, conn, req));
    }
    (events, script)
}

/// The end-of-replay checks: the scheduler's invariants, and the
/// simulator's rates against a from-scratch cold solve.
fn check_at_end(sched: &mut OnlineScheduler) {
    sched.check_invariants();
    sched.sim_mut().check_rates_against_cold();
}

fn direct_hash(events: &[TenantEvent]) -> u64 {
    let (topo, routes) = small_topo();
    let mut sched = SchedulerBuilder::new(topo, routes).seed(11).build();
    for ev in events {
        sched.step(ev);
    }
    check_at_end(&mut sched);
    sched.stats().trace_hash()
}

fn service_hash(script: &[(Nanos, ConnId, ServiceRequest)]) -> u64 {
    let (topo, routes) = small_topo();
    let cfg = ServiceConfig { seed: 11, ..ServiceConfig::default() };
    let mut svc = PlacementService::new(topo, routes, cfg, SimEnv::new(script.to_vec()));
    svc.run();
    check_at_end(svc.scheduler_mut());
    svc.trace_hash()
}

// The tentpole property: a request trace served through the sim-backed
// service is bit-identical to feeding the scheduler the same tenant
// events directly, and both replay bit-identically.
proptest! {
    #[test]
    fn sim_service_matches_direct_scheduler_drive(
        ops in prop::collection::vec((0u8..3, 0u64..10, 2usize..5), 4..32),
    ) {
        let (events, script) = trace(&ops);
        let reference = direct_hash(&events);
        prop_assert_eq!(direct_hash(&events), reference, "direct drive, repeated");
        prop_assert_eq!(service_hash(&script), reference, "served through the sim transport");
    }
}

// Under injected faults the trajectory changes, but it changes
// *deterministically*: the same seed gives the same hash, and the
// scheduler's invariants hold after every served event.
proptest! {
    #[test]
    fn faulty_runs_are_deterministic_and_invariant_preserving(
        ops in prop::collection::vec((0u8..3, 0u64..10, 2usize..5), 4..24),
        fault_seed in 0u64..1000,
    ) {
        let (_, script) = trace(&ops);
        let plan = FaultPlan {
            drop: 0.2,
            duplicate: 0.25,
            delay: 0.3,
            max_delay: 5_000_000,
            disconnect: 0.1,
            seed: fault_seed,
        };
        let run = || {
            let (topo, routes) = small_topo();
            let cfg = ServiceConfig { seed: 11, ..ServiceConfig::default() };
            let env = SimEnv::with_faults(script.clone(), plan);
            let mut svc = PlacementService::new(topo, routes, cfg, env);
            while svc.poll() {
                svc.scheduler_mut().check_invariants();
            }
            check_at_end(svc.scheduler_mut());
            svc.trace_hash()
        };
        prop_assert_eq!(run(), run());
    }
}

/// A duplicated Admit frame must not corrupt the scheduler: the copy is
/// refused, the tenant stays placed once, invariants hold.
#[test]
fn duplicated_admissions_are_refused_not_replayed() {
    let script: Vec<(Nanos, ConnId, ServiceRequest)> = (0..6)
        .map(|i| (i * 1_000_000, 1, ServiceRequest::Admit { tenant: i, app: app_for(i, 3) }))
        .collect();
    let plan = FaultPlan { duplicate: 1.0, seed: 3, ..FaultPlan::default() };
    let (topo, routes) = small_topo();
    let env = SimEnv::with_faults(script, plan);
    let mut svc = PlacementService::new(topo, routes, ServiceConfig::default(), env);
    svc.run();
    check_at_end(svc.scheduler_mut());
    let s = svc.scheduler().stats();
    assert_eq!(s.duplicate_arrivals, 6, "every copy refused");
    assert_eq!(s.admitted + s.queued + s.rejected, 6, "every original decided");
    let env = svc.into_env();
    assert_eq!(env.fault_counts().duplicated, 6);
    let rejections = env
        .responses(1)
        .iter()
        .filter(|r| matches!(r, ServiceResponse::Rejected { reason } if reason.contains("known")))
        .count();
    assert_eq!(rejections, 6, "each duplicate got its own polite refusal");
}

/// The same dispatch code on real sockets: boot a NetEnv service on
/// loopback, admit a tenant from a client connection, check stats and
/// the metrics exposition, then shut it down over the wire.
#[test]
fn loopback_service_serves_admit_stats_metrics_shutdown() {
    let (topo, routes) = small_topo();
    let env = NetEnv::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = env.local_addr();
    let mut svc = PlacementService::new(topo, routes, ServiceConfig::default(), env);
    let registry = svc.registry();
    let server = std::thread::spawn(move || {
        svc.run();
        svc.trace_hash()
    });

    let mut c = std::net::TcpStream::connect(addr).expect("connect");
    c.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let rpc = |c: &mut std::net::TcpStream, req: &ServiceRequest| {
        req.write_to(c).expect("send");
        ServiceResponse::read_from(c).expect("recv")
    };

    let ServiceResponse::Admitted { hosts } =
        rpc(&mut c, &ServiceRequest::Admit { tenant: 1, app: app_for(1, 3) })
    else {
        panic!("admit over loopback")
    };
    assert_eq!(hosts.len(), 3);

    let ServiceResponse::Stats(s) = rpc(&mut c, &ServiceRequest::Stats) else { panic!("stats") };
    assert_eq!((s.admitted, s.active), (1, 1));
    assert!(s.trace_hash != 0);

    let ServiceResponse::MetricsText(text) = rpc(&mut c, &ServiceRequest::Metrics) else {
        panic!("metrics")
    };
    assert!(text.contains("choreo_admitted_total 1"), "{text}");
    assert!(text.contains("choreo_queue_depth 0"), "{text}");
    assert!(text.contains("choreo_placement_latency_seconds_count 1"), "{text}");
    assert!(text.contains("choreo_slo_attainment 1"), "{text}");
    // The service's registry handle renders the same exposition.
    assert_eq!(registry.render(), text);

    assert_eq!(rpc(&mut c, &ServiceRequest::Shutdown), ServiceResponse::Done);
    let hash = server.join().expect("service thread");
    assert!(hash != 0, "trajectory digested");
}

/// The `/trace` endpoint renders on the scrape side from the ring the
/// loop appends each scheduler call's decisions to: what it serves must
/// be, byte for byte, what the in-band `trace_jsonl` renders — before
/// the ring wraps, after it wraps, and for any `n` — and a request that
/// decides nothing must leave the ring as it was.
#[test]
fn http_trace_matches_in_band_trace_across_wrap_around() {
    // Admit/depart pairs: two decisions each, 400 in all against the
    // default 256-entry ring, with a `Stats` (no decision) after each.
    let script: Vec<(Nanos, ConnId, ServiceRequest)> = (0..200u64)
        .flat_map(|i| {
            let at = i * 3_000_000;
            [
                (at, 1, ServiceRequest::Admit { tenant: i, app: app_for(i, 3) }),
                (at + 1_000_000, 1, ServiceRequest::Depart { tenant: i }),
                (at + 2_000_000, 1, ServiceRequest::Stats),
            ]
        })
        .collect();
    let (topo, routes) = small_topo();
    let mut svc =
        PlacementService::new(topo, routes, ServiceConfig::default(), SimEnv::new(script));
    let shared = svc.trace_export();
    let server =
        choreo_service::MetricsServer::start(("127.0.0.1", 0), svc.registry(), shared.clone())
            .expect("bind scrape endpoint");
    let capacity = TRACE_CAPACITY;
    let (mut polls, mut quiet_polls) = (0usize, 0usize);
    loop {
        let before = shared.lock().expect("ring").clone();
        if !svc.poll() {
            break;
        }
        let after = shared.lock().expect("ring").clone();
        if matches!(svc.env().responses(1).last(), Some(ServiceResponse::Stats(_))) {
            assert_eq!(after, before, "poll {polls} served Stats, ring untouched");
            quiet_polls += 1;
        }
        // Scrape at a few points either side of the wrap.
        if polls % 97 == 0 {
            for n in [0, 1, 64, capacity, capacity + 50] {
                assert_eq!(http_trace(server.local_addr(), n), svc.trace_jsonl(n), "n = {n}");
            }
        }
        polls += 1;
    }
    assert!(quiet_polls >= 200, "every Stats request was a quiet poll");
    assert_eq!(http_trace(server.local_addr(), capacity), svc.trace_jsonl(capacity));
    assert!(shared.lock().expect("ring").total() > capacity as u64, "the ring wrapped");
}

/// A thread that panics while it holds the trace ring's lock poisons
/// it. Under that lock the ring is only cloned or pushed `Copy`
/// decisions, so it is still whole: the service keeps recording into it,
/// and the in-band and HTTP traces keep serving the same ring.
#[test]
fn a_poisoned_trace_lock_keeps_the_trace_served() {
    let script = vec![
        (10, 1, ServiceRequest::Admit { tenant: 1, app: app_for(1, 3) }),
        (20, 1, ServiceRequest::GetTrace { n: 16 }),
    ];
    let (topo, routes) = small_topo();
    let mut svc =
        PlacementService::new(topo, routes, ServiceConfig::default(), SimEnv::new(script));
    let shared = svc.trace_export();
    let holder = shared.clone();
    let held = std::thread::spawn(move || {
        let _guard = holder.lock().expect("the ring starts unpoisoned");
        panic!("a reader dies holding the trace ring");
    })
    .join();
    assert!(held.is_err() && shared.is_poisoned(), "the lock is poisoned");
    let server =
        choreo_service::MetricsServer::start(("127.0.0.1", 0), svc.registry(), shared.clone())
            .expect("bind scrape endpoint");
    svc.run();
    let rs = svc.env().responses(1);
    assert!(matches!(rs[0], ServiceResponse::Admitted { .. }), "{:?}", rs[0]);
    let ServiceResponse::Trace(in_band) = &rs[1] else { panic!("{:?}", rs[1]) };
    assert!(in_band.contains("\"kind\":\"admit\""), "{in_band}");
    assert_eq!(&http_trace(server.local_addr(), 16), in_band);
}

/// `GET /trace?n={n}` against the scrape endpoint at `addr`: the body
/// of its 200 reply.
fn http_trace(addr: std::net::SocketAddr, n: usize) -> String {
    use std::io::{Read, Write};
    let mut c = std::net::TcpStream::connect(addr).expect("connect");
    write!(c, "GET /trace?n={n} HTTP/1.0\r\n\r\n").expect("send");
    let mut reply = String::new();
    c.read_to_string(&mut reply).expect("recv");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    body.to_string()
}

/// A zero-size cluster is a usage error, not a panic: `serve` and `sim`
/// name the offending flag and exit non-zero.
#[test]
fn empty_cluster_flags_are_rejected_without_a_panic() {
    for cmd in ["serve", "sim"] {
        for flag in ["--pods", "--hosts-per-tor"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_choreo-serve"))
                .args([cmd, flag, "0", "--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"])
                .output()
                .expect("run choreo-serve");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{cmd} {flag} 0 must fail");
            assert!(stderr.contains(&format!("{flag} must be at least 1")), "{cmd}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd} {flag} 0 panicked: {stderr}");
        }
    }
}
