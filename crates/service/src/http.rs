//! A tiny `GET /metrics` + `GET /trace` HTTP endpoint over the service
//! registry.
//!
//! Just enough HTTP/1.0 for a prometheus scraper or `curl`: read the
//! request head (at most 8 KiB of it and for at most 2 s in all, from
//! any peer), answer `GET /metrics` with the registry's text
//! exposition and `GET /trace?n=K` with the last `K` decision-trace
//! JSON lines (rendered here, on the scrape thread), answer everything
//! else with 404, close the connection. No
//! keep-alive, no chunking, no dependencies. One thread serves one
//! connection at a time, so each direction of a connection has a total
//! deadline: a peer that drips its request or drains its response byte
//! by byte is dropped when it passes, not when it finishes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use choreo_metrics::Registry;
use choreo_online::TraceRing;
use choreo_wire::frame::is_timeout;

/// A running metrics endpoint.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Serve `registry` at `http://addr/metrics` and `GET /trace?n=K`
    /// from `trace` — the service's trace ring, which the service loop
    /// appends every decision to ([`crate::PlacementService::trace_export`])
    /// — on a background thread. The JSON is rendered per scrape, on this
    /// server's thread; the service loop never renders for it. Port 0
    /// binds an ephemeral port; see [`MetricsServer::local_addr`].
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<Registry>,
        trace: Arc<Mutex<TraceRing>>,
    ) -> std::io::Result<Self> {
        Self::start_inner(addr, registry, trace, HEAD_DEADLINE)
    }

    fn start_inner<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<Registry>,
        trace: Arc<Mutex<TraceRing>>,
        head_deadline: Duration,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            // The thread blocks in `accept`; `shutdown` raises `stop` and
            // then connects to the listener so the wait returns.
            std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let _ = Self::serve_one(&stream, &registry, &trace, head_deadline);
                }
            })
        };
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve one connection: the whole request head must arrive within
    /// `head_deadline`, the whole response must leave within
    /// [`RESPONSE_DEADLINE`].
    fn serve_one(
        stream: &TcpStream,
        registry: &Registry,
        trace: &Mutex<TraceRing>,
        head_deadline: Duration,
    ) -> std::io::Result<()> {
        let request_line = match read_head(Deadlined::new(stream, head_deadline)) {
            Ok(line) => line,
            Err(HeadError::TooLarge) => {
                return respond(
                    stream,
                    "431 Request Header Fields Too Large",
                    "request head too large\n",
                );
            }
            Err(HeadError::Io(e)) if e.kind() == io::ErrorKind::InvalidData => {
                return respond(stream, "400 Bad Request", "request head is not UTF-8\n");
            }
            Err(HeadError::Io(e)) if is_timeout(&e) => {
                return respond(stream, "408 Request Timeout", "request head took too long\n");
            }
            Err(HeadError::Io(e)) => return Err(e),
        };
        let path = request_line.split_whitespace().nth(1).unwrap_or("");
        let (route, query) = path.split_once('?').unwrap_or((path, ""));
        let is_get = request_line.starts_with("GET");
        let (status, body) = if is_get && route == "/metrics" {
            ("200 OK", registry.render())
        } else if is_get && route == "/trace" {
            // Copy the ring out and render outside the lock: the service
            // loop waits on it at most for a memcpy.
            let ring = crate::service::lock(trace).clone();
            ("200 OK", ring.to_jsonl(trace_limit(query)))
        } else {
            ("404 Not Found", "only GET /metrics and GET /trace live here\n".to_string())
        };
        respond(stream, status, &body)
    }

    /// Stop serving (idempotent; also runs on drop).
    pub fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the thread out of `accept`. A wildcard bind address is
        // not connectable everywhere; its loopback is.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // If the wake-up cannot connect the thread stays parked in
        // `accept` until the process exits; joining it would hang.
        if TcpStream::connect_timeout(&wake, std::time::Duration::from_secs(1)).is_ok() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Most bytes of a request head (request line, headers and the blank
/// line) the endpoint will read from a peer. A scrape's head is well
/// under 1 KiB.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

/// Longest a peer may take over its whole request head. The socket's
/// own timeout bounds one `read`, which a peer sending a byte at a time
/// never trips.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Longest a peer may take to drain its whole response.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(2);

/// A connection with one deadline for everything read from or written
/// to it: every call gets the time still left as its socket timeout,
/// and fails with `TimedOut` once none is.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl<'a> Deadlined<'a> {
    fn new(stream: &'a TcpStream, within: Duration) -> Self {
        Deadlined { stream, until: Instant::now() + within }
    }

    /// The time left, as a socket timeout (which must not be zero).
    fn remaining(&self) -> io::Result<Option<Duration>> {
        match self.until.saturating_duration_since(Instant::now()) {
            Duration::ZERO => Err(io::ErrorKind::TimedOut.into()),
            left => Ok(Some(left)),
        }
    }
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(self.remaining()?)?;
        self.stream.read(buf)
    }
}

impl Write for Deadlined<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(self.remaining()?)?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Why [`read_head`] gave up.
#[derive(Debug)]
enum HeadError {
    /// [`MAX_HEAD_BYTES`] went by without the blank line.
    TooLarge,
    Io(io::Error),
}

/// Read one request head from `r` and return its request line, draining
/// the headers through the blank line (or the peer's end of stream) so
/// the client isn't left with unread request bytes on close. Consumes
/// at most [`MAX_HEAD_BYTES`] of `r`, whatever the peer sends.
fn read_head(r: impl Read) -> Result<String, HeadError> {
    let mut reader = BufReader::new(r.take(MAX_HEAD_BYTES));
    // One line into `line`; `TooLarge` when the cap, not the peer, cut
    // it short.
    let mut read_line = |line: &mut String| {
        line.clear();
        let n = reader.read_line(line).map_err(HeadError::Io)?;
        if !line.ends_with('\n') && reader.get_ref().limit() == 0 {
            return Err(HeadError::TooLarge);
        }
        Ok(n)
    };
    let mut request_line = String::new();
    read_line(&mut request_line)?;
    let mut header = String::new();
    while read_line(&mut header)? > 0 && !header.trim().is_empty() {}
    Ok(request_line)
}

fn respond(stream: &TcpStream, status: &str, body: &str) -> io::Result<()> {
    let mut stream = Deadlined::new(stream, RESPONSE_DEADLINE);
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// `n` from a `/trace` query string (`n=K`, `&`-separated); everything
/// when absent or malformed.
fn trace_limit(query: &str) -> usize {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace source for tests that scrape only `/metrics`.
    fn no_trace() -> Arc<Mutex<TraceRing>> {
        Arc::new(Mutex::new(TraceRing::new(1)))
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut c = TcpStream::connect(addr).unwrap();
        write!(c, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        c.read_to_string(&mut out).unwrap();
        out
    }

    /// Counts the bytes handed out by the reader it wraps.
    struct Counted<R>(R, u64);

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.read(buf)?;
            self.1 += n as u64;
            Ok(n)
        }
    }

    #[test]
    fn head_reader_stops_at_the_cap_on_an_endless_line() {
        let mut peer = Counted(io::repeat(b'A'), 0);
        assert!(matches!(read_head(&mut peer), Err(HeadError::TooLarge)));
        assert!(peer.1 <= MAX_HEAD_BYTES, "read {} bytes past a {MAX_HEAD_BYTES} cap", peer.1);
    }

    #[test]
    fn head_reader_caps_the_header_drain_too() {
        let head = format!("GET /metrics HTTP/1.0\r\n{}", "X-Pad: 0123456789\r\n".repeat(1024));
        let mut peer = Counted(head.as_bytes(), 0);
        assert!(matches!(read_head(&mut peer), Err(HeadError::TooLarge)));
        assert!(peer.1 <= MAX_HEAD_BYTES);
    }

    #[test]
    fn head_reader_returns_the_request_line_and_drains_the_headers() {
        let mut peer = "GET /trace?n=2 HTTP/1.0\r\nHost: test\r\n\r\nbody".as_bytes();
        assert_eq!(read_head(&mut peer).unwrap(), "GET /trace?n=2 HTTP/1.0\r\n");
        // A peer that closes before the blank line still gets an answer.
        assert_eq!(
            read_head("GET / HTTP/1.0\r\nHost: t".as_bytes()).unwrap(),
            "GET / HTTP/1.0\r\n"
        );
    }

    #[test]
    fn an_over_cap_head_is_refused_and_the_next_scrape_still_answers() {
        let server =
            MetricsServer::start(("127.0.0.1", 0), Arc::new(Registry::new()), no_trace()).unwrap();
        // Exactly the cap and no newline: the server consumes all of it,
        // so its close is clean and the refusal is readable.
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.write_all(&vec![b'A'; MAX_HEAD_BYTES as usize]).unwrap();
        let mut out = String::new();
        c.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 431"), "{out}");
        let body = get(server.local_addr(), "/metrics");
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
    }

    #[test]
    fn a_peer_dripping_its_head_is_cut_off_and_the_next_scrape_still_answers() {
        let deadline = Duration::from_millis(200);
        let server = MetricsServer::start_inner(
            ("127.0.0.1", 0),
            Arc::new(Registry::new()),
            no_trace(),
            deadline,
        )
        .unwrap();
        // One byte every 20 ms: each read returns long before any
        // per-read timeout, the head never ends. The wait for a reply is
        // the pause between bytes.
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let started = Instant::now();
        let mut reply = Vec::new();
        let cut_off = loop {
            if started.elapsed() > 20 * deadline {
                break false;
            }
            if c.write_all(b"X").is_err() {
                break true;
            }
            match c.read_to_end(&mut reply) {
                Err(e) if is_timeout(&e) => {}
                // Closed: cleanly, or reset because a byte crossed the
                // server's close on the wire.
                Ok(_) | Err(_) => break true,
            }
        };
        assert!(cut_off, "the peer held the connection for {:?}", started.elapsed());
        // The refusal is readable unless the reset discarded it.
        assert!(reply.is_empty() || reply.starts_with(b"HTTP/1.0 408"), "{reply:?}");
        let body = get(server.local_addr(), "/metrics");
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
    }

    #[test]
    fn scrapes_the_registry_text() {
        let registry = Arc::new(Registry::new());
        let c = registry.counter("demo_total", "a demo counter");
        c.inc_by(3);
        let server = MetricsServer::start(("127.0.0.1", 0), registry, no_trace()).unwrap();
        let body = get(server.local_addr(), "/metrics");
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("# TYPE demo_total counter"), "{body}");
        assert!(body.contains("demo_total 3"), "{body}");
    }

    #[test]
    fn other_paths_are_404() {
        let server =
            MetricsServer::start(("127.0.0.1", 0), Arc::new(Registry::new()), no_trace()).unwrap();
        let body = get(server.local_addr(), "/");
        assert!(body.starts_with("HTTP/1.0 404"), "{body}");
    }

    #[test]
    fn trace_route_renders_the_shared_ring_with_a_limit() {
        use choreo_online::{Decision, DecisionKind};
        let mut ring = TraceRing::new(8);
        for (at, kind) in [(1, DecisionKind::Admit), (2, DecisionKind::Depart)] {
            ring.push(Decision { at, tenant: 7, kind, value: 0.5, cause: None });
        }
        let trace = Arc::new(Mutex::new(ring));
        let server =
            MetricsServer::start(("127.0.0.1", 0), Arc::new(Registry::new()), trace).unwrap();
        let body = get(server.local_addr(), "/trace");
        assert!(body.starts_with("HTTP/1.0 200"), "{body}");
        assert!(body.contains("\"at\":1") && body.contains("\"at\":2"), "{body}");
        let tail = get(server.local_addr(), "/trace?n=1");
        assert!(!tail.contains("\"at\":1") && tail.contains("\"at\":2"), "{tail}");
    }
}
