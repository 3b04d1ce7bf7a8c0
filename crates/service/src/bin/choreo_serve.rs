//! `choreo-serve` — the placement service as one binary.
//!
//! Subcommands:
//!
//! * `serve  [--addr A] [--metrics-addr A] [--pods N] [--hosts-per-tor N]`
//!   — run the service on real TCP sockets ([`choreo_service::NetEnv`])
//!   with a `GET /metrics` scrape endpoint.
//! * `smoke  [--addr A] [--metrics-addr A]` — one-shot client: admit a
//!   small tenant, fetch stats, check that an intensity of `u32::MAX` is
//!   refused with an error while the service keeps answering, and assert
//!   the metrics exposition shows the admission. Exits non-zero on any
//!   mismatch.
//! * `shutdown [--addr A]` — ask a running service to stop.
//! * `sim    [--seed N] [--tenants N]` — run the same scripted workload
//!   twice through the simulated backend and print both trajectory
//!   digests (they match; that is the determinism contract).
//!
//! Flags are `--key value` pairs; no dependency on an argument-parsing
//! crate.

use std::io::Read;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;

use choreo_profile::{AppProfile, TrafficMatrix};
use choreo_service::{
    MetricsServer, NetEnv, PlacementService, ServiceConfig, ServiceRequest, ServiceResponse, SimEnv,
};
use choreo_topology::{MultiRootedTreeSpec, RouteTable};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: choreo-serve <serve|smoke|shutdown|sim> [--key value ...]");
        return ExitCode::FAILURE;
    };
    let flags = match Flags::parse(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("choreo-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "serve" => serve(&flags),
        "smoke" => smoke(&flags),
        "shutdown" => shutdown(&flags),
        "sim" => sim(&flags),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("choreo-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` pairs, order-insensitive.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key =
                key.strip_prefix("--").ok_or_else(|| format!("expected --flag, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.push((key.to_string(), value.clone()));
        }
        Ok(Flags(flags))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn num(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} wants a number, got {v:?}")),
            None => Ok(default),
        }
    }
}

fn topology(flags: &Flags) -> Result<(Arc<choreo_topology::Topology>, Arc<RouteTable>), String> {
    let pods = flags.num("pods", 2)?;
    let hosts_per_tor = flags.num("hosts-per-tor", 4)?;
    for (key, n) in [("pods", pods), ("hosts-per-tor", hosts_per_tor)] {
        if n == 0 {
            return Err(format!("--{key} must be at least 1, got 0"));
        }
    }
    let spec = MultiRootedTreeSpec { pods, hosts_per_tor, ..MultiRootedTreeSpec::default() };
    let topo = Arc::new(spec.build());
    let routes = Arc::new(RouteTable::new(&topo));
    Ok((topo, routes))
}

fn serve(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7107");
    let metrics_addr = flags.get("metrics-addr").unwrap_or("127.0.0.1:7108");
    let (topo, routes) = topology(flags)?;
    let env = NetEnv::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    println!("service listening on {}", env.local_addr());
    let mut svc = PlacementService::new(topo, routes, ServiceConfig::default(), env);
    let _metrics = MetricsServer::start(metrics_addr, svc.registry(), svc.trace_export())
        .map_err(|e| format!("metrics bind {metrics_addr}: {e}"))?;
    println!("metrics at http://{}/metrics", _metrics.local_addr());
    println!("decision trace at http://{}/trace", _metrics.local_addr());
    svc.run();
    println!("shutdown served; final trace hash {:#018x}", svc.trace_hash());
    Ok(())
}

fn rpc(stream: &mut TcpStream, req: &ServiceRequest) -> Result<ServiceResponse, String> {
    req.write_to(stream).map_err(|e| format!("send: {e}"))?;
    ServiceResponse::read_from(stream).map_err(|e| format!("recv: {e}"))
}

fn connect(flags: &Flags) -> Result<TcpStream, String> {
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7107");
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).map_err(|e| e.to_string())?;
    Ok(stream)
}

fn smoke_app() -> AppProfile {
    let mut m = TrafficMatrix::zeros(3);
    m.set(0, 1, 50_000_000);
    m.set(1, 2, 50_000_000);
    AppProfile::new("smoke", vec![1.0, 1.0, 1.0], m, 0)
}

fn smoke(flags: &Flags) -> Result<(), String> {
    let mut c = connect(flags)?;
    match rpc(&mut c, &ServiceRequest::Admit { tenant: 1, app: smoke_app() })? {
        ServiceResponse::Admitted { hosts } => {
            println!("admitted: tasks on hosts {hosts:?}");
            if hosts.len() != 3 {
                return Err(format!("expected 3 task placements, got {}", hosts.len()));
            }
        }
        other => return Err(format!("admit: unexpected reply {other:?}")),
    }
    match rpc(&mut c, &ServiceRequest::Stats)? {
        ServiceResponse::Stats(s) => {
            println!(
                "stats: admitted={} active={} trace_hash={:#018x}",
                s.admitted, s.active, s.trace_hash
            );
            if s.admitted < 1 || s.active < 1 {
                return Err(format!("stats do not show the admission: {s:?}"));
            }
        }
        other => return Err(format!("stats: unexpected reply {other:?}")),
    }
    // A hostile intensity must be refused with an error, and the service
    // must still answer afterwards.
    let hostile = ServiceRequest::SetIntensity { tenant: 1, intensity: u32::MAX };
    match rpc(&mut c, &hostile)? {
        ServiceResponse::Error(e) => println!("refused intensity {}: {e}", u32::MAX),
        other => return Err(format!("hostile intensity: unexpected reply {other:?}")),
    }
    match rpc(&mut c, &ServiceRequest::Stats)? {
        ServiceResponse::Stats(_) => {}
        other => return Err(format!("stats after a refusal: unexpected reply {other:?}")),
    }
    // One injected link-failure/recovery round-trip: the service must
    // apply both events and count them.
    use choreo_profile::NetworkEventKind;
    for (at, kind) in
        [(1_000_000, NetworkEventKind::LinkFail), (2_000_000, NetworkEventKind::LinkRecover)]
    {
        match rpc(&mut c, &ServiceRequest::InjectNetworkEvent { at, link: 0, kind })? {
            ServiceResponse::Done => println!("injected {kind:?} on link 0"),
            other => return Err(format!("inject: unexpected reply {other:?}")),
        }
    }
    // The in-band exposition must show the admission too.
    let text = match rpc(&mut c, &ServiceRequest::Metrics)? {
        ServiceResponse::MetricsText(t) => t,
        other => return Err(format!("metrics: unexpected reply {other:?}")),
    };
    check_exposition("in-band metrics", &text)?;
    // The decision trace must come back as parseable, non-empty JSONL
    // covering at least the admission above.
    let jsonl = match rpc(&mut c, &ServiceRequest::GetTrace { n: 64 })? {
        ServiceResponse::Trace(t) => t,
        other => return Err(format!("trace: unexpected reply {other:?}")),
    };
    check_trace("in-band trace", &jsonl)?;
    println!("trace: {} decisions", jsonl.lines().count());
    // And the HTTP scrape endpoints, when given.
    if let Some(maddr) = flags.get("metrics-addr") {
        let body = http_get(maddr, "/metrics")?;
        check_exposition(&format!("http://{maddr}/metrics"), &body)?;
        println!("scraped {} bytes from http://{maddr}/metrics", body.len());
        let trace = http_get(maddr, "/trace?n=64")?;
        check_trace(&format!("http://{maddr}/trace"), &trace)?;
        println!("scraped {} trace lines from http://{maddr}/trace", trace.lines().count());
    }
    println!("smoke: ok");
    Ok(())
}

/// The trace export must be non-empty JSONL: every line a `{...}`
/// object with the fields the decision schema promises, and at least
/// one admission present.
fn check_trace(what: &str, jsonl: &str) -> Result<(), String> {
    if jsonl.lines().count() == 0 {
        return Err(format!("{what}: empty decision trace"));
    }
    for line in jsonl.lines() {
        if !(line.starts_with("{\"at\":") && line.ends_with('}')) {
            return Err(format!("{what}: malformed trace line {line:?}"));
        }
        if !line.contains("\"kind\":\"") {
            return Err(format!("{what}: trace line without a kind: {line:?}"));
        }
    }
    if !jsonl.contains("\"kind\":\"admit\"") {
        return Err(format!("{what}: no admit decision in the trace"));
    }
    Ok(())
}

fn check_exposition(what: &str, text: &str) -> Result<(), String> {
    // The live exposition must round-trip through the conformance
    // parser — same gate the property tests apply to synthetic
    // registries.
    choreo_metrics::parse::validate(text)
        .map_err(|e| format!("{what}: exposition fails text-format conformance: {e}"))?;
    for needle in [
        "choreo_admitted_total",
        "choreo_queue_depth",
        "choreo_placement_latency_seconds_bucket",
        "choreo_slo_attainment",
        "choreo_drift_detected_total",
        "choreo_failure_migrations_total",
        "choreo_capacity_lost_fraction",
        "choreo_pod_capacity_lost_fraction{pod=\"spine\"} ",
    ] {
        if !text.contains(needle) {
            return Err(format!("{what}: missing {needle} in exposition"));
        }
    }
    let sample = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("{what}: no {name} sample"))
    };
    if sample("choreo_admitted_total")? < 1.0 {
        return Err(format!("{what}: choreo_admitted_total < 1"));
    }
    // The failure/recovery round-trip injected exactly two link events,
    // and recovery restored every bit of capacity.
    if sample("choreo_link_events_total")? < 2.0 {
        return Err(format!("{what}: choreo_link_events_total < 2 after the injected round-trip"));
    }
    if sample("choreo_capacity_lost_fraction")? != 0.0 {
        return Err(format!("{what}: capacity still lost after recovery"));
    }
    for line in text.lines().filter(|l| l.starts_with("choreo_pod_capacity_lost_fraction{")) {
        if line.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()) != Some(0.0) {
            return Err(format!("{what}: pod capacity still lost after recovery: {line}"));
        }
    }
    Ok(())
}

fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut c = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(std::time::Duration::from_secs(5))).map_err(|e| e.to_string())?;
    std::io::Write::write_all(
        &mut c,
        format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes(),
    )
    .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    c.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("malformed HTTP response")?;
    if !head.starts_with("HTTP/1.0 200") {
        return Err(format!("GET {path}: {}", head.lines().next().unwrap_or("?")));
    }
    Ok(body.to_string())
}

fn shutdown(flags: &Flags) -> Result<(), String> {
    let mut c = connect(flags)?;
    match rpc(&mut c, &ServiceRequest::Shutdown)? {
        ServiceResponse::Done => {
            println!("service acknowledged shutdown");
            Ok(())
        }
        other => Err(format!("shutdown: unexpected reply {other:?}")),
    }
}

fn sim(flags: &Flags) -> Result<(), String> {
    let seed = flags.num("seed", 7)? as u64;
    let tenants = flags.num("tenants", 24)? as u64;
    let script: Vec<(u64, u64, ServiceRequest)> = (0..tenants)
        .map(|i| {
            let mut m = TrafficMatrix::zeros(3);
            m.set(0, 1, 10_000_000 * (1 + i % 5));
            m.set(1, 2, 5_000_000);
            let app = AppProfile::new(format!("t{i}"), vec![1.0, 2.0, 1.0], m, i * 1_000_000);
            (i * 1_000_000, 1 + i % 4, ServiceRequest::Admit { tenant: i, app })
        })
        .chain((0..tenants / 2).map(|i| {
            (tenants * 1_000_000 + i * 500_000, 1, ServiceRequest::Depart { tenant: i * 2 })
        }))
        .collect();
    let (topo, routes) = topology(flags)?;
    let run = || {
        let (topo, routes) = (topo.clone(), routes.clone());
        let cfg = ServiceConfig { seed, ..ServiceConfig::default() };
        let mut svc = PlacementService::new(topo, routes, cfg, SimEnv::new(script.clone()));
        svc.run();
        let s = svc.scheduler().stats();
        (svc.trace_hash(), s.admitted, s.queued, s.rejected)
    };
    let (h1, admitted, queued, rejected) = run();
    let (h2, ..) = run();
    println!(
        "run 1: trace hash {h1:#018x} (admitted {admitted}, queued {queued}, rejected {rejected})"
    );
    println!("run 2: trace hash {h2:#018x}");
    if h1 != h2 {
        return Err("determinism violated: trace hashes differ".into());
    }
    println!("bit-identical: same script, same seed, same trajectory");
    Ok(())
}
