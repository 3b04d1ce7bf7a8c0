//! The `serve-loopback` client: the shipped `choreo-serve` binary as a
//! child process, driven over real sockets on the loopback interface.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use choreo_wire::{ServiceRequest, ServiceResponse, ServiceStatsReply};

use crate::proc;
use crate::sim::{is_failure, response_ok};
use crate::spans::Tracer;
use crate::stats::{median, percentile};

/// Hosts of the cluster `choreo-serve serve --pods 16 --hosts-per-tor 4`
/// builds; admissions are checked against it.
pub const SERVER_HOSTS: usize = 128;

const IO_TIMEOUT: Duration = Duration::from_secs(20);

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// A running `choreo-serve serve`; killed and reaped on drop, so no
/// path out of a pass leaves the process behind.
pub struct Server {
    child: Child,
    /// Held open until the server has exited: it prints a last line
    /// while shutting down, and a closed pipe would make that fail.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub metrics_addr: String,
}

fn serve_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| io_err("current_exe", e))?;
    let bin = exe.parent().ok_or("benchmark binary has no directory")?.join("choreo-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is not built (run benchmark/run.sh, which builds it)", bin.display()))
    }
}

impl Server {
    /// Start the production configuration on ephemeral ports and wait
    /// until it has printed both addresses.
    pub fn spawn() -> Result<Server, String> {
        let mut child = Command::new(serve_binary()?)
            .args(["serve", "--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"])
            .args(["--pods", "16", "--hosts-per-tor", "4"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| io_err("spawn choreo-serve", e))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut server = Server { child, stdout, addr: String::new(), metrics_addr: String::new() };
        while server.addr.is_empty() || server.metrics_addr.is_empty() {
            let mut line = String::new();
            match server.stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => return Err("choreo-serve exited before announcing its addresses".into()),
            }
            if let Some(a) = line.strip_prefix("service listening on ") {
                server.addr = a.trim().to_string();
            } else if let Some(a) = line.strip_prefix("metrics at http://") {
                server.metrics_addr = a.trim().trim_end_matches("/metrics").to_string();
            }
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the process to end after a served `Shutdown`.
    pub fn wait_exit(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("choreo-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("choreo-serve did not exit after Shutdown".into()),
                Err(e) => return Err(io_err("wait for choreo-serve", e)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `TCP_NODELAY` connection speaking the service protocol.
pub struct Conn {
    write: TcpStream,
    read: BufReader<TcpStream>,
    body: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let write = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        write.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
        write.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| io_err("timeout", e))?;
        write.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| io_err("timeout", e))?;
        let read = BufReader::new(write.try_clone().map_err(|e| io_err("clone", e))?);
        Ok(Conn { write, read, body: Vec::new() })
    }

    /// Block until the next response frame is in `self.body`.
    fn wait(&mut self) -> Result<(), String> {
        let mut len = [0u8; 4];
        self.read.read_exact(&mut len).map_err(|e| io_err("recv", e))?;
        self.body.resize(u32::from_be_bytes(len) as usize, 0);
        self.read.read_exact(&mut self.body).map_err(|e| io_err("recv", e))
    }

    pub fn rpc(&mut self, req: &ServiceRequest) -> Result<ServiceResponse, String> {
        self.write.write_all(&req.encode()).map_err(|e| io_err("send", e))?;
        self.wait()?;
        ServiceResponse::decode(&self.body)
    }

    /// `rpc` with each step in a span of its own.
    fn rpc_traced(&mut self, t: &Tracer, req: &ServiceRequest) -> Result<ServiceResponse, String> {
        let frame = t.span("encode", || req.encode());
        t.span("write", || self.write.write_all(&frame)).map_err(|e| io_err("send", e))?;
        t.span("wait", || self.wait())?;
        t.span("decode", || ServiceResponse::decode(&self.body))
    }
}

/// `GET path` from the scrape endpoint (HTTP/1.0, one connection each).
pub fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut c = TcpStream::connect(addr).map_err(|e| io_err("http connect", e))?;
    c.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| io_err("timeout", e))?;
    c.write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| io_err("http send", e))?;
    let mut raw = String::new();
    c.read_to_string(&mut raw).map_err(|e| io_err("http recv", e))?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("malformed HTTP response")?;
    if !head.starts_with("HTTP/1.0 200") {
        return Err(format!("GET {path}: {}", head.lines().next().unwrap_or("?")));
    }
    Ok(body.to_string())
}

/// The reads that ride beside the tenant requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    Stats,
    Metrics,
    GetTrace,
    HttpMetrics,
    HttpTrace,
}

/// What the client counted while driving one server.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub tenant_requests: u64,
    pub admitted: u64,
    pub queued: u64,
    pub rejected: u64,
    pub departs: u64,
    /// `Rejected`, `Error` and transport failures.
    pub failed: u64,
    pub malformed: u64,
}

impl Tally {
    fn note(&mut self, req: &ServiceRequest, resp: &ServiceResponse) {
        match req {
            ServiceRequest::Admit { .. }
            | ServiceRequest::SetIntensity { .. }
            | ServiceRequest::Depart { .. } => self.tenant_requests += 1,
            _ => {}
        }
        match resp {
            ServiceResponse::Admitted { .. } => self.admitted += 1,
            ServiceResponse::Queued => self.queued += 1,
            ServiceResponse::Rejected { .. } => self.rejected += 1,
            _ => {}
        }
        if matches!(req, ServiceRequest::Depart { .. }) {
            self.departs += 1;
        }
        self.failed += is_failure(resp) as u64;
        self.malformed += !response_ok(req, resp, SERVER_HOSTS) as u64;
    }

    pub fn merge(&mut self, other: &Tally) {
        self.tenant_requests += other.tenant_requests;
        self.admitted += other.admitted;
        self.queued += other.queued;
        self.rejected += other.rejected;
        self.departs += other.departs;
        self.failed += other.failed;
        self.malformed += other.malformed;
    }

    /// The server's final counters say what the client saw.
    pub fn matches(&self, s: &ServiceStatsReply) -> bool {
        s.events == self.tenant_requests
            && s.admitted == self.admitted
            && s.queued == self.queued
            && s.rejected + s.duplicates == self.rejected
            && s.departures <= self.departs
    }
}

/// One closed-loop pass over one connection.
pub struct ClosedRun {
    pub setup_s: f64,
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// When each [`SEGMENT`] of timed wire requests began, and when the
    /// last ended: nanoseconds since the first.
    pub segment_at: Vec<u64>,
    /// After how many timed wire requests each HTTP read was made.
    pub http_after: Vec<usize>,
    pub server_cpu_ns: u64,
    pub server_peak_rss_mb: f64,
    /// Send to reply of each timed wire request, microseconds.
    pub lat_us: Vec<f64>,
    /// Which of them were `Admit`s answered `Admitted`.
    pub admit_at: Vec<usize>,
    /// Per read kind (indexed by `ReadOp as usize`).
    pub read_us: [Vec<f64>; 5],
    /// Every wire request with its send offset (ns since the first
    /// send) and response, in order.
    pub requests: Vec<(u64, ServiceRequest)>,
    pub responses: Vec<ServiceResponse>,
    pub tally: Tally,
    pub final_stats: ServiceStatsReply,
    pub digest: u64,
    /// Reads came back non-empty and the scrape showed the admissions.
    pub reads_ok: bool,
}

/// Timed wire requests per segment of a closed-loop pass: ~3 ms, a
/// fifth of what a spell of the machine lasts (see [`quiet_reference`]).
const SEGMENT: usize = 16;

/// A segment is calm when it and both its neighbours have a reference
/// within this factor of the quiet reference: segment references are
/// 95-115 us on a quiet machine and 165-200 us otherwise.
const CALM: f64 = 1.25;

/// A run keeps at least this many segments, its calmest, however few
/// pass for calm: it never has nothing to report.
const MIN_CALM_SEGMENTS: usize = 64;

/// The requests of a pass that ran while the machine was quiet.
pub struct Calm {
    /// Wire requests and HTTP reads in the calm segments, and the
    /// segments' wall time.
    pub ops: f64,
    pub wall_s: f64,
    /// Send to reply of the wire requests among them, microseconds.
    pub lat_us: Vec<f64>,
    /// The same for `Admit`s answered `Admitted`.
    pub admit_us: Vec<f64>,
}

/// How to tell the calm segments of several passes, microseconds: the
/// round trip that shows the machine quiet, and the slowest round trip
/// around a segment that still counts as calm.
///
/// The server's time cannot be scaled by ticks on the client's core as
/// an in-process pass is ([`crate::calib`]): on this box the whole request
/// path runs 1.6x slower for spells of ~15 ms, sometimes for a minute on
/// end, and ticks beside it see only some of them. The path shows them
/// itself. A `SetIntensity` is five requests in six and costs next to
/// nothing in the scheduler, so the median round trip of a segment's
/// `SetIntensity`s is a reference for the machine as that segment met it
/// ([`ClosedRun::references`]), and the fastest fiftieth of a run's
/// segments show the machine quiet.
pub fn calm_threshold(runs: &[ClosedRun]) -> (f64, f64) {
    let known: Vec<f64> = runs.iter().flat_map(|r| r.references()).flatten().collect();
    let mut around: Vec<f64> =
        runs.iter().flat_map(|r| slowest_around(&r.references())).flatten().collect();
    if around.len() < MIN_CALM_SEGMENTS {
        return (f64::INFINITY, f64::INFINITY);
    }
    around.sort_by(|a, b| a.partial_cmp(b).expect("round trips are finite"));
    let quiet = percentile(&known, 0.02);
    (quiet, (quiet * CALM).max(around[MIN_CALM_SEGMENTS - 1]))
}

/// Per segment, the slowest reference among it and its neighbours, if
/// all of them have one.
fn slowest_around(reference: &[Option<f64>]) -> Vec<Option<f64>> {
    (0..reference.len())
        .map(|k| {
            let around = &reference[k.saturating_sub(1)..(k + 2).min(reference.len())];
            around.iter().copied().try_fold(0.0, |slowest: f64, r| Some(slowest.max(r?)))
        })
        .collect()
}

impl ClosedRun {
    /// Wire requests and HTTP reads in the timed section.
    pub fn timed_ops(&self) -> f64 {
        (self.lat_us.len() + self.http_after.len()) as f64
    }

    /// `Admit`s answered `Admitted` in the timed section.
    pub fn admit_us(&self) -> Vec<f64> {
        self.admit_at.iter().map(|&j| self.lat_us[j]).collect()
    }

    /// Per segment, the median round trip of its `SetIntensity` requests,
    /// microseconds, if it has five.
    fn references(&self) -> Vec<Option<f64>> {
        let timed = &self.requests[self.requests.len() - self.lat_us.len()..];
        (0..self.segment_at.len() - 1)
            .map(|k| {
                let from = k * SEGMENT;
                let to = (from + SEGMENT).min(timed.len());
                let set_intensity: Vec<f64> = (from..to)
                    .filter(|&j| matches!(timed[j].1, ServiceRequest::SetIntensity { .. }))
                    .map(|j| self.lat_us[j])
                    .collect();
                (set_intensity.len() >= 5).then(|| median(&set_intensity))
            })
            .collect()
    }

    /// The requests of the calm segments, kept as measured; every other
    /// is left out. A segment is calm when no reference around it is
    /// slower than `threshold_us`. (Its own counts too: the tails of what
    /// is kept are half as far from a quiet hour's when it does, and what
    /// a heavy request took never decides whether it is counted.)
    pub fn calm(&self, threshold_us: f64) -> Calm {
        let around = slowest_around(&self.references());
        let calm: Vec<bool> = around
            .iter()
            .map(|r| threshold_us == f64::INFINITY || r.is_some_and(|r| r <= threshold_us))
            .collect();
        let n = calm.len();
        let is_calm = |j: usize| calm[(j / SEGMENT).min(n - 1)];
        let http = self.http_after.iter().filter(|&&after| is_calm(after.saturating_sub(1)));
        let lat_us: Vec<f64> =
            (0..self.lat_us.len()).filter(|&j| is_calm(j)).map(|j| self.lat_us[j]).collect();
        let admit_us: Vec<f64> =
            self.admit_at.iter().filter(|&&j| is_calm(j)).map(|&j| self.lat_us[j]).collect();
        let wall_ns: u64 =
            (0..n).filter(|&k| calm[k]).map(|k| self.segment_at[k + 1] - self.segment_at[k]).sum();
        Calm {
            ops: (lat_us.len() + http.count()) as f64,
            wall_s: wall_ns as f64 / 1e9,
            lat_us,
            admit_us,
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Drive `tenant_requests` closed loop over one connection: the first
/// `untimed` before the clock starts, then `Stats` after every 100th
/// timed request and the four bulk reads after every 1 000th; ends with
/// `Shutdown` and waits for the server to exit. `setup_started` is when
/// the caller began generating the requests.
pub fn closed_loop(
    tenant_requests: &[ServiceRequest],
    untimed: usize,
    setup_started: Instant,
    tracer: Option<&Tracer>,
) -> Result<ClosedRun, String> {
    let server = Server::spawn()?;
    let mut conn = Conn::open(&server.addr)?;
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let mut requests = Vec::with_capacity(tenant_requests.len() + tenant_requests.len() / 50);
    let mut responses = Vec::with_capacity(requests.capacity());
    let mut lat_us = Vec::with_capacity(requests.capacity());
    let mut admit_at = Vec::new();
    let mut read_us: [Vec<f64>; 5] = Default::default();
    let mut reads_ok = true;
    let origin = Instant::now();
    let mut segment_began = Vec::with_capacity(requests.capacity() / SEGMENT + 2);

    let mut call = |conn: &mut Conn,
                    req: ServiceRequest,
                    timed: bool,
                    tally: &mut Tally|
     -> Result<Duration, String> {
        let sent = Instant::now();
        if timed && lat_us.len() % SEGMENT == 0 {
            segment_began.push(sent);
        }
        let resp = match tracer {
            Some(t) => {
                t.set_request(requests.len() as u32);
                conn.rpc_traced(t, &req)?
            }
            None => conn.rpc(&req)?,
        };
        let took = sent.elapsed();
        tally.note(&req, &resp);
        if timed {
            if matches!(resp, ServiceResponse::Admitted { .. }) {
                admit_at.push(lat_us.len());
            }
            lat_us.push(us(took));
        }
        requests.push(((sent - origin).as_nanos() as u64, req));
        responses.push(resp);
        Ok(took)
    };

    for req in &tenant_requests[..untimed] {
        call(&mut conn, req.clone(), false, &mut tally)?;
    }
    let cpu0 = proc::cpu_ns(server.pid());
    // Timed wire requests so far, and after how many of them each HTTP
    // read was made.
    let mut wire_ops = 0usize;
    let mut http_after = Vec::new();
    for (i, req) in tenant_requests[untimed..].iter().enumerate() {
        call(&mut conn, req.clone(), true, &mut tally)?;
        wire_ops += 1;
        if (i + 1) % 100 == 0 {
            let took = call(&mut conn, ServiceRequest::Stats, true, &mut tally)?;
            read_us[ReadOp::Stats as usize].push(us(took));
            wire_ops += 1;
        }
        if (i + 1) % 1000 == 0 {
            let took = call(&mut conn, ServiceRequest::Metrics, true, &mut tally)?;
            read_us[ReadOp::Metrics as usize].push(us(took));
            let took = call(&mut conn, ServiceRequest::GetTrace { n: 64 }, true, &mut tally)?;
            read_us[ReadOp::GetTrace as usize].push(us(took));
            wire_ops += 2;
            for (op, path) in
                [(ReadOp::HttpMetrics, "/metrics"), (ReadOp::HttpTrace, "/trace?n=64")]
            {
                let sent = Instant::now();
                let body = http_get(&server.metrics_addr, path);
                read_us[op as usize].push(us(sent.elapsed()));
                http_after.push(wire_ops);
                match body {
                    Ok(b) if op == ReadOp::HttpMetrics => {
                        reads_ok &= b.contains("choreo_admitted_total")
                    }
                    Ok(b) => reads_ok &= b.lines().count() > 0,
                    Err(_) => {
                        reads_ok = false;
                        tally.failed += 1;
                    }
                }
            }
        }
    }
    segment_began.push(Instant::now());
    let segment_at: Vec<u64> =
        segment_began.iter().map(|t| (*t - segment_began[0]).as_nanos() as u64).collect();
    let wall_s = *segment_at.last().expect("just pushed") as f64 / 1e9;
    let server_cpu_ns = proc::cpu_ns(server.pid()) - cpu0;
    let server_peak_rss_mb = proc::peak_rss_mb(server.pid());

    // The final counters are read outside the tallies they are checked against.
    let final_stats = match conn.rpc(&ServiceRequest::Stats)? {
        ServiceResponse::Stats(s) => s,
        other => return Err(format!("final Stats answered {other:?}")),
    };
    match conn.rpc(&ServiceRequest::Shutdown)? {
        ServiceResponse::Done => {}
        other => return Err(format!("Shutdown answered {other:?}")),
    }
    drop(conn);
    server.wait_exit()?;
    for r in &responses {
        match r {
            ServiceResponse::MetricsText(t) => reads_ok &= t.contains("choreo_admitted_total"),
            ServiceResponse::Trace(t) => reads_ok &= t.lines().count() > 0,
            _ => {}
        }
    }
    Ok(ClosedRun {
        setup_s,
        wall_s,
        segment_at,
        http_after,
        server_cpu_ns,
        server_peak_rss_mb,
        lat_us,
        admit_at,
        read_us,
        requests,
        responses,
        tally,
        digest: final_stats.trace_hash,
        final_stats,
        reads_ok,
    })
}

/// Send `requests` closed loop, tallying each answer.
fn drive(conn: &mut Conn, requests: &[ServiceRequest], tally: &mut Tally) -> Result<(), String> {
    for req in requests {
        let resp = conn.rpc(req)?;
        tally.note(req, &resp);
    }
    Ok(())
}

fn shut_down(server: Server, tally: &Tally) -> Result<bool, String> {
    let mut conn = Conn::open(&server.addr)?;
    let stats = match conn.rpc(&ServiceRequest::Stats)? {
        ServiceResponse::Stats(s) => s,
        other => return Err(format!("final Stats answered {other:?}")),
    };
    conn.rpc(&ServiceRequest::Shutdown)?;
    drop(conn);
    server.wait_exit()?;
    Ok(tally.matches(&stats) && tally.malformed == 0)
}

fn tenant_of(req: &ServiceRequest) -> u64 {
    match req {
        ServiceRequest::Admit { tenant, .. }
        | ServiceRequest::SetIntensity { tenant, .. }
        | ServiceRequest::Depart { tenant } => *tenant,
        _ => 0,
    }
}

pub struct TwoConnRun {
    pub events_per_s: f64,
    pub tally: Tally,
    pub consistent: bool,
}

/// Two closed-loop connections, tenants split by id parity so each
/// tenant's requests stay in order on one connection. Both warm their
/// share of the first `untimed` requests, meet at a barrier, then run.
pub fn two_connections(
    tenant_requests: &[ServiceRequest],
    untimed: usize,
) -> Result<TwoConnRun, String> {
    let server = Server::spawn()?;
    let barrier = Arc::new(Barrier::new(2));
    let halves: Vec<(Vec<ServiceRequest>, Vec<ServiceRequest>)> = (0..2u64)
        .map(|parity| {
            let pick = |rs: &[ServiceRequest]| -> Vec<ServiceRequest> {
                rs.iter().filter(|r| tenant_of(r) % 2 == parity).cloned().collect()
            };
            (pick(&tenant_requests[..untimed]), pick(&tenant_requests[untimed..]))
        })
        .collect();
    let results: Vec<Result<(Tally, Instant, Instant), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = halves
            .iter()
            .map(|(warm_part, timed_part)| {
                let (barrier, addr) = (barrier.clone(), server.addr.clone());
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut conn = Conn::open(&addr);
                    let warmed = match &mut conn {
                        Ok(c) => drive(c, warm_part, &mut tally),
                        Err(e) => Err(e.clone()),
                    };
                    // Reach the barrier even on failure, or the peer hangs.
                    barrier.wait();
                    warmed?;
                    let mut conn = conn?;
                    let start = Instant::now();
                    drive(&mut conn, timed_part, &mut tally)?;
                    Ok((tally, start, Instant::now()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut tally = Tally::default();
    let (mut first_start, mut last_end) = (None::<Instant>, None::<Instant>);
    for r in results {
        let (t, start, end) = r?;
        tally.merge(&t);
        first_start = Some(first_start.map_or(start, |s| s.min(start)));
        last_end = Some(last_end.map_or(end, |e| e.max(end)));
    }
    let wall = last_end.expect("two results") - first_start.expect("two results");
    let timed = (tenant_requests.len() - untimed) as f64;
    let consistent = shut_down(server, &tally)?;
    Ok(TwoConnRun { events_per_s: timed / wall.as_secs_f64(), tally, consistent })
}

pub struct OpenRun {
    /// Due time to reply, microseconds.
    pub lat_us: Vec<f64>,
    /// How late each send left, microseconds.
    pub lag_us: Vec<f64>,
    pub tally: Tally,
    pub consistent: bool,
}

/// Open loop: after a closed-loop warm-up, request `j` is due at
/// `j / rate` seconds whatever happened to the ones before it. One
/// thread sends on schedule, one reads; latency runs from the due time,
/// so a stall charges every request it delayed.
pub fn open_loop(
    tenant_requests: &[ServiceRequest],
    untimed: usize,
    rate_per_s: u64,
) -> Result<OpenRun, String> {
    let server = Server::spawn()?;
    let mut conn = Conn::open(&server.addr)?;
    let mut tally = Tally::default();
    drive(&mut conn, &tenant_requests[..untimed], &mut tally)?;
    let timed = &tenant_requests[untimed..];
    let period = Duration::from_nanos(1_000_000_000 / rate_per_s);
    let Conn { mut write, mut read, .. } = conn;
    let start = Instant::now() + Duration::from_millis(2);
    let due = move |j: usize| start + period * j as u32;

    let (lag_us, received) = std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<Vec<f64>, String> {
            let mut lag = Vec::with_capacity(timed.len());
            for (j, req) in timed.iter().enumerate() {
                let frame = req.encode();
                loop {
                    let now = Instant::now();
                    if now >= due(j) {
                        lag.push(us(now - due(j)));
                        break;
                    }
                    let ahead = due(j) - now;
                    if ahead > Duration::from_micros(200) {
                        std::thread::sleep(ahead - Duration::from_micros(150));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                write.write_all(&frame).map_err(|e| io_err("send", e))?;
            }
            Ok(lag)
        });
        let reader = s.spawn(move || -> Result<Vec<(Instant, ServiceResponse)>, String> {
            let mut out = Vec::with_capacity(timed.len());
            let mut body = Vec::new();
            for _ in 0..timed.len() {
                let mut len = [0u8; 4];
                read.read_exact(&mut len).map_err(|e| io_err("recv", e))?;
                body.resize(u32::from_be_bytes(len) as usize, 0);
                read.read_exact(&mut body).map_err(|e| io_err("recv", e))?;
                out.push((Instant::now(), ServiceResponse::decode(&body)?));
            }
            Ok(out)
        });
        (
            sender.join().expect("sender thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let (lag_us, received) = (lag_us?, received?);
    let mut lat_us = Vec::with_capacity(timed.len());
    for (j, (req, (at, resp))) in timed.iter().zip(&received).enumerate() {
        tally.note(req, resp);
        lat_us.push(us(at.saturating_duration_since(due(j))));
    }
    let consistent = shut_down(server, &tally)?;
    Ok(OpenRun { lat_us, lag_us, tally, consistent })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_is_as_slow_as_the_slowest_reference_around_it() {
        let reference = [Some(104.0), Some(180.0), Some(99.0), Some(110.0), None, Some(101.0)];
        assert_eq!(
            slowest_around(&reference),
            [Some(180.0), Some(180.0), Some(180.0), None, None, None]
        );
        assert_eq!(slowest_around(&reference[2..4]), [Some(110.0), Some(110.0)]);
        assert_eq!(slowest_around(&reference[..1]), [Some(104.0)], "no neighbour to doubt it");
        assert!(slowest_around(&[]).is_empty());
    }
}
