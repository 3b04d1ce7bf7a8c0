//! A tiny `GET /metrics` + `GET /trace` HTTP endpoint over the service
//! registry.
//!
//! Just enough HTTP/1.0 for a prometheus scraper or `curl`: read the
//! request line, answer `GET /metrics` with the registry's text
//! exposition (and, when a decision ring was wired in via
//! [`MetricsServer::start_with_trace`], `GET /trace?n=K` with the last
//! `K` decision-trace JSON lines, rendered here on the scrape thread),
//! answer everything else with 404, close the connection. No
//! keep-alive, no chunking, no dependencies.

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use choreo_metrics::Registry;
use choreo_online::TraceRing;

/// A running metrics endpoint.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Serve `registry` at `http://addr/metrics` on a background
    /// thread. Port 0 binds an ephemeral port; see
    /// [`MetricsServer::local_addr`].
    pub fn start<A: ToSocketAddrs>(addr: A, registry: Arc<Registry>) -> std::io::Result<Self> {
        Self::start_inner(addr, registry, None)
    }

    /// Like [`MetricsServer::start`], but also serve `GET /trace?n=K`
    /// from `trace` — the mirror of the decision ring the service loop
    /// keeps current ([`crate::PlacementService::trace_export`]). The
    /// JSON is rendered per scrape, on this server's thread; the service
    /// loop never renders for it.
    pub fn start_with_trace<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<Registry>,
        trace: Arc<Mutex<TraceRing>>,
    ) -> std::io::Result<Self> {
        Self::start_inner(addr, registry, Some(trace))
    }

    fn start_inner<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<Registry>,
        trace: Option<Arc<Mutex<TraceRing>>>,
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
                    let _ = Self::serve_one(stream, &registry, trace.as_deref());
                }
            })
        };
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn serve_one(
        stream: TcpStream,
        registry: &Registry,
        trace: Option<&Mutex<TraceRing>>,
    ) -> std::io::Result<()> {
        stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
        let mut reader = BufReader::new(stream);
        let mut request_line = String::new();
        reader.read_line(&mut request_line)?;
        // Drain headers until the blank line so the client isn't left
        // with an unread request body buffer on close.
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
                break;
            }
        }
        let mut stream = reader.into_inner();
        let path = request_line.split_whitespace().nth(1).unwrap_or("");
        let (route, query) = path.split_once('?').unwrap_or((path, ""));
        let is_get = request_line.starts_with("GET");
        let (status, body) = if is_get && route == "/metrics" {
            ("200 OK", registry.render())
        } else if is_get && route == "/trace" {
            match trace {
                Some(t) => {
                    // Copy the ring out and render outside the lock: the
                    // service loop waits on it at most for a memcpy.
                    let ring = t.lock().expect("trace export poisoned").clone();
                    ("200 OK", ring.to_jsonl(trace_limit(query)))
                }
                None => ("404 Not Found", "no trace source wired in\n".to_string()),
            }
        } else {
            ("404 Not Found", "only GET /metrics and GET /trace live here\n".to_string())
        };
        write!(
            stream,
            "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )?;
        stream.flush()
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
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut c = TcpStream::connect(addr).unwrap();
        write!(c, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        c.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn scrapes_the_registry_text() {
        let registry = Arc::new(Registry::new());
        let c = registry.counter("demo_total", "a demo counter");
        c.inc_by(3);
        let server = MetricsServer::start(("127.0.0.1", 0), registry).unwrap();
        let body = get(server.local_addr(), "/metrics");
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("# TYPE demo_total counter"), "{body}");
        assert!(body.contains("demo_total 3"), "{body}");
    }

    #[test]
    fn other_paths_are_404() {
        let server = MetricsServer::start(("127.0.0.1", 0), Arc::new(Registry::new())).unwrap();
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
            MetricsServer::start_with_trace(("127.0.0.1", 0), Arc::new(Registry::new()), trace)
                .unwrap();
        let body = get(server.local_addr(), "/trace");
        assert!(body.starts_with("HTTP/1.0 200"), "{body}");
        assert!(body.contains("\"at\":1") && body.contains("\"at\":2"), "{body}");
        let tail = get(server.local_addr(), "/trace?n=1");
        assert!(!tail.contains("\"at\":1") && tail.contains("\"at\":2"), "{tail}");
    }

    #[test]
    fn trace_route_without_a_source_is_404() {
        let server = MetricsServer::start(("127.0.0.1", 0), Arc::new(Registry::new())).unwrap();
        let body = get(server.local_addr(), "/trace");
        assert!(body.starts_with("HTTP/1.0 404"), "{body}");
    }
}
