//! What one child process measures. The parent starts one process per
//! repeat so that every repeat has fresh state, its own peak RSS, and a
//! slow spell on the machine lands on one repeat of one workload. A
//! child reports on stdout, one line per item:
//! `= name value` (a number), `~ name text`, `| text` (shown as is).

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::sync::Arc;
use std::time::Instant;

use choreo_metrics::span::{self, RegistrySpans};
use choreo_metrics::Registry;
use choreo_profile::ServiceEvent;
use choreo_service::ServiceConfig;
use choreo_wire::{ServiceRequest, ServiceResponse};

use crate::calib::Quiet;
use crate::layers;
use crate::loopback::{self, ReadOp};
use crate::proc;
use crate::sim::{self, EventKind};
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{self, Cluster, Kind, Spec};

/// Directory the traced passes write their span files into.
pub const OUT_DIR: &str = "benchmark/out";

type SpanFile = BufWriter<std::fs::File>;

fn num(name: &str, value: f64) {
    println!("= {name} {value}");
}

fn text(name: &str, value: &str) {
    println!("~ {name} {value}");
}

fn show(line: &str) {
    println!("| {line}");
}

fn flag(name: &str, ok: bool) {
    num(name, ok as u8 as f64);
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// `percentile`, or 0 when the workload produced no such sample.
fn pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, q)
    }
}

fn tenant_requests(events: &[ServiceEvent]) -> Vec<ServiceRequest> {
    events.iter().map(workload::request_of).collect()
}

/// The untraced half of a `serve-loopback` run: `passes` sub-streams, a
/// fresh server each, and every metric over the requests of all of them
/// that ran while the machine was quiet ([`loopback::calm_threshold`]).
/// One process measures them all because a pass may have only a hundred
/// calm segments, too few for a tail percentile of its own.
fn timed_loopback(spec: &Spec, stream_seed: u64, passes: u64) -> Result<(), String> {
    let mut runs = Vec::new();
    for k in 0..passes {
        let started = Instant::now();
        let topo = spec.tree.build();
        let requests = tenant_requests(&spec.events(&topo, stream_seed + k));
        runs.push(loopback::closed_loop(&requests, spec.untimed, started, None)?);
    }
    let (quiet_us, threshold_us) = loopback::calm_threshold(&runs);
    let calm: Vec<loopback::Calm> = runs.iter().map(|r| r.calm(threshold_us)).collect();
    let calm_ops: f64 = calm.iter().map(|c| c.ops).sum();
    let calm_s: f64 = calm.iter().map(|c| c.wall_s).sum();
    let calm_lat: Vec<f64> = calm.iter().flat_map(|c| c.lat_us.iter().copied()).collect();
    let calm_admit: Vec<f64> = calm.iter().flat_map(|c| c.admit_us.iter().copied()).collect();
    let each =
        |f: &dyn Fn(&loopback::ClosedRun) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let ops: f64 = each(&|r| r.timed_ops()).iter().sum();
    let wall_s: f64 = each(&|r| r.wall_s).iter().sum();
    let lat: Vec<f64> = runs.iter().flat_map(|r| r.lat_us.iter().copied()).collect();
    let admit: Vec<f64> = runs.iter().flat_map(|r| r.admit_us()).collect();
    let cpu_us = each(&|r| r.server_cpu_ns as f64).iter().sum::<f64>() / 1e3 / ops;
    // How much longer a request took over the whole run than while the
    // machine was quiet; the server's CPU time is taken to follow it.
    let slowdown = (wall_s / ops) / (calm_s / calm_ops);
    num("setup_s", median(&each(&|r| r.setup_s)));
    num("events_per_s", calm_ops / calm_s);
    num("request_p50_us", percentile(&calm_lat, 0.5));
    num("request_p99_us", percentile(&calm_lat, 0.99));
    num("admit_p50_us", percentile(&calm_admit, 0.5));
    num("admit_p95_us", percentile(&calm_admit, 0.95));
    num("cpu_us_per_request", cpu_us / slowdown);
    num("peak_rss_mb", median(&each(&|r| r.server_peak_rss_mb)));
    num("raw.machine_slowdown", slowdown);
    num("raw.passes", runs.len() as f64);
    num("raw.quiet_reference_us", quiet_us);
    num("raw.calm_share", calm_s / wall_s);
    num("raw.events_per_s", ops / wall_s);
    num("raw.request_p50_us", percentile(&lat, 0.5));
    num("raw.request_p99_us", percentile(&lat, 0.99));
    num("raw.admit_p50_us", percentile(&admit, 0.5));
    num("raw.admit_p95_us", percentile(&admit, 0.95));
    num("raw.cpu_us_per_request", cpu_us);
    let http_reads = |r: &loopback::ClosedRun| r.http_after.len();
    num("attempted", runs.iter().map(|r| r.requests.len() + http_reads(r)).sum::<usize>() as f64);
    num("failed", runs.iter().map(|r| r.tally.failed).sum::<u64>() as f64);
    flag("ok.responses", runs.iter().all(|r| r.tally.malformed == 0 && r.reads_ok));
    flag("ok.final_stats", runs.iter().all(|r| r.tally.matches(&r.final_stats)));
    let digests: Vec<String> = runs.iter().map(|r| format!("{:016x}", r.digest)).collect();
    text("digest", &digests.join(" "));
    Ok(())
}

/// One untraced repeat: every timing and size of one sub-stream (of
/// `passes` sub-streams on `serve-loopback`).
pub fn timed(spec: &Spec, stream_seed: u64, passes: u64) -> Result<(), String> {
    let started = Instant::now();
    let pid = std::process::id();
    match spec.kind {
        Kind::ServeLoopback => timed_loopback(spec, stream_seed, passes)?,
        _ => {
            let cluster = spec.cluster();
            let events = spec.events(&cluster.topo, stream_seed);
            let script = workload::script_of(&events);
            let run = sim::service_pass(&cluster, &script, spec.untimed, None, started);
            let peak_rss_mb = proc::peak_rss_mb(pid);
            let timed = run.lat_us.len() as f64;
            let admitted = |lat: &[f64]| -> Vec<f64> {
                lat.iter()
                    .zip(&run.responses[spec.untimed..])
                    .filter(|(_, r)| matches!(r, ServiceResponse::Admitted { .. }))
                    .map(|(l, _)| *l)
                    .collect()
            };
            let quiet_us = run.quiet.scale(&run.lat_us);
            let (quiet_admit_us, raw_admit_us) = (admitted(&quiet_us), admitted(&run.lat_us));
            num("setup_s", run.setup_s);
            num("events_per_s", timed / run.quiet.quiet_s);
            num("request_p50_us", percentile(&quiet_us, 0.5));
            num("request_p99_us", percentile(&quiet_us, 0.99));
            num("admit_p50_us", percentile(&quiet_admit_us, 0.5));
            num("admit_p95_us", percentile(&quiet_admit_us, 0.95));
            num("cpu_us_per_request", run.cpu_ns as f64 / 1e3 / timed / run.quiet.slowdown());
            num("peak_rss_mb", peak_rss_mb);
            num("raw.machine_slowdown", run.quiet.slowdown());
            num("raw.quiet_tick_ns", run.quiet.quiet_tick_ns);
            num("raw.events_per_s", timed / run.quiet.raw_s);
            num("raw.request_p50_us", percentile(&run.lat_us, 0.5));
            num("raw.request_p99_us", percentile(&run.lat_us, 0.99));
            num("raw.admit_p50_us", percentile(&raw_admit_us, 0.5));
            num("raw.admit_p95_us", percentile(&raw_admit_us, 0.95));
            num("raw.cpu_us_per_request", run.cpu_ns as f64 / 1e3 / timed);
            let verdict = sim::judge(&run.requests, &run.responses, cluster.topo.hosts().len());
            num("attempted", run.requests.len() as f64);
            num("failed", verdict.failed as f64);
            flag("ok.responses", verdict.well_formed);
            text("digest", &format!("{:016x}", run.digest));
        }
    }
    Ok(())
}

/// The simulated half of a run, on one sub-stream: the events stepped
/// into a scheduler directly give the digest the service must arrive at
/// and the placement quality (a property of the decisions, not of the
/// transport that carried them); the same events placed at random give
/// the baseline behind `rate_gain`.
pub fn verify(spec: &Spec, stream_seed: u64) -> Result<(), String> {
    let cluster = spec.cluster();
    // No service digest depends on the loopback streams' length, and at
    // their 10 000 requests `rate_gain` spreads by 9% between seeds.
    let total = if spec.kind == Kind::ServeLoopback { 2 * spec.total } else { spec.total };
    let events = spec.events_of(&cluster.topo, stream_seed, total);
    let mut direct = sim::direct_pass(&cluster, &events, 0, None);
    text("direct_digest", &format!("{:016x}", direct.digest));
    let greedy_mbps = direct.scheduler.stats().mean_departed_rate_bps().unwrap_or(0.0) / 1e6;
    let (met, total) = direct.scheduler.slo_attainment(ServiceConfig::default().slo_fraction);
    num("mean_tenant_rate_mbps", greedy_mbps);
    num("slo_attainment", if total == 0 { 1.0 } else { met as f64 / total as f64 });
    num("rate_gain", greedy_mbps / sim::random_pass(&cluster, &events));
    Ok(())
}

/// The share of a traced pass's wall time outside any root span; with
/// `print`, also the pass's layer table: self time by span name, plus
/// that remainder, which together are the wall time.
fn layer_table(title: &str, spans: &[Span], wall_s: f64, requests: usize, print: bool) -> f64 {
    let wall_ns = wall_s * 1e9;
    let roots = spans::root_time(spans) as f64;
    let unattributed = (wall_ns - roots).max(0.0);
    if !print {
        return unattributed / wall_ns;
    }
    show(&format!("{title}: self time per layer over {requests} requests"));
    show(&format!("  {:<16} {:>12} {:>14} {:>8}", "span", "total_ms", "per_request_us", "share"));
    for (name, ns) in spans::self_times(spans) {
        let ns = ns as f64;
        show(&format!(
            "  {name:<16} {:>12.2} {:>14.3} {:>8.4}",
            ns / 1e6,
            ns / 1e3 / requests as f64,
            ns / wall_ns
        ));
    }
    show(&format!(
        "  {:<16} {:>12.2} {:>14.3} {:>8.4}",
        "(unattributed)",
        unattributed / 1e6,
        unattributed / 1e3 / requests as f64,
        unattributed / wall_ns
    ));
    unattributed / wall_ns
}

fn busy_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum::<u64>() as f64 / 1e9
}

/// Self time of the named spans of a traced pass, nanoseconds per
/// request on the quiet machine (the whole pass scaled by one factor).
fn self_ns_per_request(spans: &[Span], names: &[&str], requests: usize, quiet: &Quiet) -> f64 {
    let st = spans::self_times(spans);
    names.iter().filter_map(|n| st.get(n)).sum::<u64>() as f64 / requests as f64 / quiet.slowdown()
}

/// Everything below the socket, measured by driving the scheduler with
/// `events` directly: the `online.*`, `flowsim.*` and `metrics.*` rows.
/// Returns the self time of the scheduler calls the service would have
/// made, nanoseconds per request.
fn scheduler_layers(
    cluster: &Cluster,
    events: &[ServiceEvent],
    untimed: usize,
    seed: u64,
    span_file: Option<&mut SpanFile>,
) -> Result<f64, String> {
    let plain = sim::direct_pass(cluster, events, untimed, None);
    let timed = (events.len() - untimed) as f64;
    // Per-event times on the quiet machine, grouped by what the event was.
    let step_us = plain.quiet.scale(&plain.step_us);
    let advance_us: f64 = plain.quiet.scale(&plain.advance_ns).iter().sum::<f64>() / 1e3;
    let by_kind = |k: EventKind| -> Vec<f64> {
        step_us
            .iter()
            .zip(&events[untimed..])
            .filter(|(_, ev)| sim::kind_of(ev) == k)
            .map(|(us, _)| *us)
            .collect()
    };
    let (arrive, set_intensity, depart, network) = (
        by_kind(EventKind::Arrive),
        by_kind(EventKind::SetIntensity),
        by_kind(EventKind::Depart),
        by_kind(EventKind::Network),
    );
    num("online.advance_ns_per_event", advance_us * 1e3 / timed);
    num("online.arrive_p50_us", pct(&arrive, 0.5));
    num("online.arrive_p99_us", pct(&arrive, 0.99));
    num("online.set_intensity_p50_us", pct(&set_intensity, 0.5));
    num("online.depart_p50_us", pct(&depart, 0.5));
    num("online.depart_p99_us", pct(&depart, 0.99));
    let all_us = advance_us + step_us.iter().sum::<f64>();
    num("online.share_advance", advance_us / all_us);
    num("online.share_arrive", arrive.iter().sum::<f64>() / all_us);
    num("online.share_set_intensity", set_intensity.iter().sum::<f64>() / all_us);
    num("online.share_depart", depart.iter().sum::<f64>() / all_us);
    num("online.share_network", network.iter().sum::<f64>() / all_us);

    let mut sched = plain.scheduler;
    let s = sched.stats();
    let (placed, moves, passes) =
        (s.admitted + s.queue_admitted + s.migrations, s.migrations, s.migration_passes);
    num("online.admitted", s.admitted as f64);
    num("online.queued", s.queued as f64);
    num("online.queue_admitted", s.queue_admitted as f64);
    num("online.rejected", s.rejected as f64);
    num("online.migration_passes", s.migration_passes as f64);
    num("online.measurement_passes", s.measurement_passes as f64);
    num("online.migrations", s.migrations as f64);
    num("online.drift_detected", s.drift_detected as f64);
    num("online.failure_migrations", s.failure_migrations as f64);
    // Every placement attempt lands one sample in the latency histogram.
    let attempts =
        sim::exposition_value(&plain.registry.render(), "choreo_placement_latency_seconds_count")
            .unwrap_or(0.0);
    num("online.try_place_yield", placed as f64 / attempts.max(1.0));
    num("online.migration_yield", moves as f64 / passes.max(1) as f64);

    let st = sched.sim_mut().solve_stats();
    let solves = (st.warm_solves + st.cold_solves).max(1) as f64;
    num("flowsim.warm_solves", st.warm_solves as f64);
    num("flowsim.cold_solves", st.cold_solves as f64);
    num("flowsim.live_rounds_per_solve", st.live_rounds as f64 / solves);
    num("flowsim.replayed_rounds_per_solve", st.replayed_rounds as f64 / solves);
    num("flowsim.dirty_resources_per_solve", st.dirty_resources as f64 / solves);
    num("flowsim.probe_batches", st.probe_batches as f64);
    num("flowsim.probes_per_batch", st.probes as f64 / st.probe_batches.max(1) as f64);
    num(
        "flowsim.probe_replay_rounds_per_probe",
        st.probe_replay_rounds as f64 / st.probes.max(1) as f64,
    );
    num("flowsim.peak_active_flows", sched.sim_mut().peak_active_flows() as f64);
    num("flowsim.flow_records", sched.sim_mut().flow_records() as f64);
    // A stream without network events says nothing about what one
    // costs; a seeded set applied to the scheduler the run leaves behind
    // does.
    let end_of_stream = events.last().map_or(0, ServiceEvent::at);
    let idle_advance_ns = layers::idle_advance_ns(&mut sched, end_of_stream);
    let network = if network.is_empty() {
        layers::network_step_probe(&mut sched, &cluster.topo, end_of_stream, seed)
    } else {
        network
    };
    num("online.network_step_p50_us", pct(&network, 0.5));
    num("online.network_step_p99_us", pct(&network, 0.99));
    let (render_us, exposition_bytes) = layers::render_cost(&plain.registry);
    num("metrics.render_us", render_us);
    num("metrics.exposition_bytes", exposition_bytes);
    let costs = layers::flowsim_costs(sched.sim_mut(), &cluster.topo, end_of_stream, seed);
    num("flowsim.probe_batch_240_us", costs.probe_batch_240_us);
    num("flowsim.churn_solve_us", costs.churn_solve_us);
    num("flowsim.capacity_solve_us", costs.capacity_solve_us);
    num("flowsim.run_until_1s_us", costs.run_until_1s_us);
    drop(sched);

    // The same replay with every call in a span: where inside the
    // scheduler the time goes.
    let tracer = Tracer::new(events.len() * 8);
    let traced = sim::direct_pass(cluster, events, untimed, Some(&tracer));
    let spans = tracer.take();
    if traced.digest != plain.digest {
        return Err("tracing the direct replay changed its trajectory".into());
    }
    let (warm, cold, probe) =
        (busy_s(&spans, "solve_warm"), busy_s(&spans, "solve_cold"), busy_s(&spans, "probe_batch"));
    num("flowsim.solve_busy_s", warm + cold);
    num("flowsim.probe_batch_busy_s", probe);
    num("flowsim.solve_share", (warm + cold) / traced.quiet.raw_s);
    num("flowsim.probe_share", probe / traced.quiet.raw_s);
    let arrive_self: Vec<f64> = spans
        .iter()
        .zip(spans::self_ns(&spans))
        .filter(|(s, _)| {
            s.name == "step" && sim::kind_of(&events[s.request as usize]) == EventKind::Arrive
        })
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect();
    num("online.arrive_self_us", mean(&arrive_self));
    if let Some(file) = span_file {
        layer_table("direct replay", &spans, traced.quiet.raw_s, events.len() - untimed, true);
        spans::write_jsonl(file, "direct", &spans).map_err(|e| format!("write spans: {e}"))?;
    }
    // `step` and `network_step` advance again, to where the replay's
    // own `advance_to` already got; the service pays for one advance.
    let calls = self_ns_per_request(
        &spans,
        &["advance_to", "step", "network_step"],
        timed as usize,
        &traced.quiet,
    );
    Ok(calls - idle_advance_ns)
}

fn wire_layers(requests: &[ServiceRequest], responses: &[ServiceResponse]) -> bool {
    let w = layers::wire_replay(requests, responses);
    num("wire.encode_request_ns", w.encode_request_ns);
    num("wire.decode_request_ns", w.decode_request_ns);
    num("wire.encode_response_ns", w.encode_response_ns);
    num("wire.decode_response_ns", w.decode_response_ns);
    num("wire.frame_roundtrip_ns", w.frame_roundtrip_ns);
    num("wire.request_bytes_mean", w.request_bytes_mean);
    num("wire.response_bytes_mean", w.response_bytes_mean);
    w.lossless
}

/// Build the cluster, reporting what the route table costs to build,
/// hold and query.
fn topology_layers(spec: &Spec, seed: u64) -> Cluster {
    let pid = std::process::id();
    let rss0 = proc::rss_mb(pid);
    let cluster = spec.cluster();
    num("topology.route_table_mb", proc::rss_mb(pid) - rss0);
    num("topology.build_s", cluster.topology_build_s + cluster.routes_build_s);
    num("topology.path_lookup_ns", layers::path_lookup_ns(&cluster.topo, &cluster.routes, seed));
    cluster
}

fn span_file(spec: &Spec, first_round: bool) -> Result<Option<SpanFile>, String> {
    if !first_round {
        return Ok(None);
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{}.spans.jsonl", spec.name);
    let file = std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
    Ok(Some(BufWriter::new(file)))
}

fn finish_span_file(file: Option<SpanFile>) -> Result<(), String> {
    match file {
        Some(mut f) => f.flush().map_err(|e| format!("flush spans: {e}")),
        None => Ok(()),
    }
}

/// A service pass with the standard registry-backed span recorder
/// installed, against `plain_s` without (both on the quiet machine):
/// the program's own observability overhead, signed.
fn obs_overhead_pct(
    cluster: &Cluster,
    script: &[(u64, u64, ServiceRequest)],
    untimed: usize,
    plain_s: f64,
) -> f64 {
    span::install(RegistrySpans::new(Arc::new(Registry::new())));
    let observed = sim::service_pass(cluster, script, untimed, None, Instant::now());
    span::uninstall();
    (observed.quiet.quiet_s - plain_s) / plain_s * 100.0
}

/// Requests, checks and failures a round has accumulated.
#[derive(Default)]
struct Round {
    attempted: usize,
    failed: u64,
    checks: BTreeMap<&'static str, bool>,
}

impl Round {
    /// A check holds for the round only if it held every time it ran.
    fn check(&mut self, name: &'static str, ok: bool) {
        *self.checks.entry(name).or_insert(true) &= ok;
    }
}

fn is_tenant_request(req: &ServiceRequest) -> bool {
    matches!(
        req,
        ServiceRequest::Admit { .. }
            | ServiceRequest::SetIntensity { .. }
            | ServiceRequest::Depart { .. }
    )
}

/// The `service.*` socket rows: `requests` driven through a fresh
/// `choreo-serve` closed loop with reads beside them, the same requests
/// replayed in process (on `server_cluster`, at the offsets they were
/// sent at) to price the transport, then over two connections and in an
/// open loop. Returns the closed-loop pass for whoever wants its frames.
fn socket_layers(
    requests: &[ServiceRequest],
    untimed: usize,
    open_timed: usize,
    server_cluster: &Cluster,
    round: &mut Round,
) -> Result<loopback::ClosedRun, String> {
    let plain = loopback::closed_loop(requests, untimed, Instant::now(), None)?;
    for (op, name) in [
        (ReadOp::Stats, "service.stats_p50_us"),
        (ReadOp::Metrics, "service.metrics_p50_us"),
        (ReadOp::GetTrace, "service.get_trace_p50_us"),
        (ReadOp::HttpMetrics, "service.http_metrics_p50_us"),
        (ReadOp::HttpTrace, "service.http_trace_p50_us"),
    ] {
        num(name, median(&plain.read_us[op as usize]));
    }
    let script: Vec<(u64, u64, ServiceRequest)> =
        plain.requests.iter().map(|(at, r)| (*at, 1, r.clone())).collect();
    let replay = sim::service_pass(server_cluster, &script, untimed, None, Instant::now());
    num("service.transport_overhead_us", mean(&plain.lat_us) - mean(&replay.lat_us));

    let two = loopback::two_connections(requests, untimed)?;
    num("service.loopback_2conn_events_per_s", two.events_per_s);
    let open = loopback::open_loop(&requests[..untimed + open_timed], untimed, 2_000)?;
    num("service.open_2k_p99_us", percentile(&open.lat_us, 0.99));
    num("service.open_2k_lag_p99_us", percentile(&open.lag_us, 0.99));

    round.check("ok.responses", plain.tally.malformed == 0 && plain.reads_ok);
    round.check("ok.final_stats", plain.tally.matches(&plain.final_stats));
    round.check("ok.two_connections", two.consistent);
    round.check("ok.open_loop", open.consistent);
    round.attempted += plain.requests.len() + requests.len() + untimed + open_timed;
    round.failed += plain.tally.failed + two.tally.failed + open.tally.failed;
    Ok(plain)
}

/// How much of a sim workload's stream also goes over a socket for the
/// `service.*` rows: enough for 50 `Stats` and five of each bulk read.
const SOCKET_REQUESTS: usize = 6_000;
const SOCKET_UNTIMED: usize = 1_000;

/// One round of the traced run: every per-layer metric of one stream.
/// Only the first round writes the span file and shows the tables.
pub fn layers(spec: &Spec, stream_seed: u64, first_round: bool) -> Result<(), String> {
    let mut file = span_file(spec, first_round)?;
    let mut round = Round::default();
    let cluster = topology_layers(spec, stream_seed);
    let started = Instant::now();
    let events = spec.events(&cluster.topo, stream_seed);
    num("profile.gen_ns_per_event", started.elapsed().as_nanos() as f64 / events.len() as f64);
    match spec.kind {
        Kind::ServeLoopback => {
            let requests = tenant_requests(&events);
            let plain = socket_layers(&requests, spec.untimed, 6_000, &cluster, &mut round)?;
            let wire_requests: Vec<ServiceRequest> =
                plain.requests.iter().map(|(_, r)| r.clone()).collect();
            round.check("ok.wire_lossless", wire_layers(&wire_requests, &plain.responses));

            // The client's own calls, each in a span.
            let tracer = Tracer::new(plain.requests.len() * 5);
            let traced =
                loopback::closed_loop(&requests, spec.untimed, Instant::now(), Some(&tracer))?;
            let spans = tracer.take();
            // Spans of the untimed prefix are dropped (the client's spans
            // are all roots, so no parent index needs re-basing).
            let cut = spans.iter().position(|s| s.request as usize >= spec.untimed).unwrap_or(0);
            let spans = &spans[cut..];
            num(
                "bench.trace_overhead_pct",
                (mean(&traced.lat_us) - mean(&plain.lat_us)) / mean(&plain.lat_us) * 100.0,
            );
            let wire_s = traced.lat_us.iter().sum::<f64>() / 1e6;
            num(
                "bench.unattributed_share",
                layer_table("client", spans, wire_s, traced.lat_us.len(), first_round),
            );
            if let Some(f) = file.as_mut() {
                spans::write_jsonl(f, "client", spans).map_err(|e| format!("write spans: {e}"))?;
            }
            round.check("ok.responses", traced.tally.malformed == 0 && traced.reads_ok);
            round.check("ok.final_stats", traced.tally.matches(&traced.final_stats));
            round.attempted += traced.requests.len();
            round.failed += traced.tally.failed;

            // Everything below the socket: the tenant requests at the
            // offsets they were sent at, in process. (The reads cost the
            // service but not the scheduler, so they stay out.)
            let mut sent = plain.requests.iter().filter(|(_, r)| is_tenant_request(r));
            let events_as_sent: Vec<ServiceEvent> = events
                .iter()
                .map(|ev| match ev {
                    ServiceEvent::Tenant(t) => {
                        let mut t = t.clone();
                        t.at = sent.next().expect("one send per tenant event").0;
                        ServiceEvent::Tenant(t)
                    }
                    ServiceEvent::Network(_) => ev.clone(),
                })
                .collect();
            in_process_layers(spec, &cluster, &events_as_sent, stream_seed, None, &mut round)?;
        }
        _ => {
            in_process_layers(spec, &cluster, &events, stream_seed, file.as_mut(), &mut round)?;
            // The socket rows, from the head of this workload's own
            // tenant requests against the production server.
            let requests: Vec<ServiceRequest> = tenant_requests(&events)
                .into_iter()
                .filter(is_tenant_request)
                .take(SOCKET_REQUESTS)
                .collect();
            let server = workload::by_name("serve-loopback").expect("catalogued").cluster();
            socket_layers(&requests, SOCKET_UNTIMED, 2_000, &server, &mut round)?;
        }
    }
    num("attempted", round.attempted as f64);
    num("failed", round.failed as f64);
    for (name, good) in round.checks {
        flag(name, good);
    }
    finish_span_file(file)
}

/// The in-process rows: the service behind `SimEnv` plain, observed and
/// traced, then the scheduler driven directly. On a sim workload the
/// traced service pass is the run's span file and layer table
/// (`file` is where they go).
fn in_process_layers(
    spec: &Spec,
    cluster: &Cluster,
    events: &[ServiceEvent],
    stream_seed: u64,
    mut file: Option<&mut SpanFile>,
    round: &mut Round,
) -> Result<(), String> {
    let script = workload::script_of(events);
    let timed = events.len() - spec.untimed;
    let plain = sim::service_pass(cluster, &script, spec.untimed, None, Instant::now());
    num(
        "metrics.obs_overhead_pct",
        obs_overhead_pct(cluster, &script, spec.untimed, plain.quiet.quiet_s),
    );
    let tracer = Tracer::new(events.len() * 8);
    let traced = sim::service_pass(cluster, &script, spec.untimed, Some(&tracer), Instant::now());
    let spans = tracer.take();
    if spec.kind != Kind::ServeLoopback {
        num(
            "bench.trace_overhead_pct",
            (traced.quiet.quiet_s - plain.quiet.quiet_s) / plain.quiet.quiet_s * 100.0,
        );
        num(
            "bench.unattributed_share",
            layer_table("service", &spans, traced.quiet.raw_s, timed, file.is_some()),
        );
        if let Some(f) = file.as_mut() {
            spans::write_jsonl(f, "service", &spans).map_err(|e| format!("write spans: {e}"))?;
        }
        round.check("ok.wire_lossless", wire_layers(&plain.requests, &plain.responses));
        text("digest", &format!("{:016x}", plain.digest));
    }
    let verdict = sim::judge(&plain.requests, &plain.responses, cluster.topo.hosts().len());
    round.check("ok.responses", verdict.well_formed);
    round.check("ok.traced_digest", traced.digest == plain.digest);
    round.attempted += events.len() * 3;
    round.failed += verdict.failed;
    let scheduler_ns = scheduler_layers(cluster, events, spec.untimed, stream_seed, file)?;
    // What the service shell adds to a request: `poll()`'s self time
    // less the self time of the scheduler calls it makes. Solver and
    // probe time is inside child spans on both sides and cancels, so the
    // difference carries the noise of ~16 us of bookkeeping, not of a
    // whole pass.
    num(
        "service.dispatch_overhead_ns",
        self_ns_per_request(&spans, &["poll"], timed, &traced.quiet) - scheduler_ns,
    );
    Ok(())
}
