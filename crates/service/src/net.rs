//! The real backend: `std::net` TCP sockets and the wall clock.
//!
//! [`NetEnv`] binds a listener, accepts connections on a background
//! thread, and runs one blocking reader thread per connection. Readers
//! decode [`ServiceRequest`] frames and stamp each with nanoseconds
//! since the listener came up; the service loop consumes them through
//! the same [`ServiceEnv`] interface the simulated
//! backend implements. Events are ordered by arrival at the internal
//! channel — close enough to wall-clock order for a service whose
//! scheduler clamps time monotone, but no determinism promise.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use choreo_topology::Nanos;
use choreo_wire::{ServiceRequest, ServiceResponse};
use parking_lot::Mutex;

use crate::env::{ConnId, NetEvent, ServiceEnv};

/// How often parked reader threads wake to re-check the stop flag.
const READ_POLL: Duration = Duration::from_millis(500);

/// The socket-backed env: one acceptor thread, one reader thread per
/// connection, responses written straight back to the client's stream.
pub struct NetEnv {
    addr: SocketAddr,
    start: Instant,
    rx: Receiver<(Nanos, ConnId, NetEvent)>,
    conns: Arc<Mutex<HashMap<ConnId, TcpStream>>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetEnv {
    /// Bind and start accepting. `addr` may use port 0 for an
    /// ephemeral port; [`NetEnv::local_addr`] reports the real one.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<NetEnv> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let start = Instant::now();
        let (tx, rx) = std::sync::mpsc::channel();
        let conns: Arc<Mutex<HashMap<ConnId, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (conns, stop) = (conns.clone(), stop.clone());
            std::thread::spawn(move || Self::accept_loop(listener, start, tx, conns, stop))
        };
        Ok(NetEnv { addr, start, rx, conns, stop, acceptor: Some(acceptor) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn accept_loop(
        listener: TcpListener,
        start: Instant,
        tx: Sender<(Nanos, ConnId, NetEvent)>,
        conns: Arc<Mutex<HashMap<ConnId, TcpStream>>>,
        stop: Arc<AtomicBool>,
    ) {
        let next_conn = AtomicU64::new(1);
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                    stream.set_nonblocking(false).ok();
                    stream.set_read_timeout(Some(READ_POLL)).ok();
                    let reader = match stream.try_clone() {
                        Ok(r) => r,
                        Err(_) => continue,
                    };
                    conns.lock().insert(conn, stream);
                    if tx.send((start.elapsed().as_nanos() as u64, conn, NetEvent::Open)).is_err() {
                        return; // service loop gone
                    }
                    let (tx, stop) = (tx.clone(), stop.clone());
                    std::thread::spawn(move || Self::read_loop(reader, conn, start, tx, stop));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        }
    }

    fn read_loop(
        mut stream: TcpStream,
        conn: ConnId,
        start: Instant,
        tx: Sender<(Nanos, ConnId, NetEvent)>,
        stop: Arc<AtomicBool>,
    ) {
        loop {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let event = match ServiceRequest::read_from(&mut stream) {
                Ok(req) => NetEvent::Request(req),
                // An idle poll (zero bytes consumed): re-check the stop
                // flag. A timeout *mid-frame* is not `is_timeout` — the
                // frame layer reports the desynchronized stream as
                // fatal `InvalidData`, so a peer that stalls inside a
                // frame is dropped below instead of lingering misparsed.
                Err(e) if is_timeout(&e) => continue,
                Err(_) => {
                    // Peer hung up, stalled mid-frame, or sent garbage:
                    // report the close and let the env forget the write
                    // half.
                    let _ = tx.send((start.elapsed().as_nanos() as u64, conn, NetEvent::Closed));
                    return;
                }
            };
            if tx.send((start.elapsed().as_nanos() as u64, conn, event)).is_err() {
                return; // service loop gone
            }
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

impl ServiceEnv for NetEnv {
    fn now(&self) -> Nanos {
        self.start.elapsed().as_nanos() as u64
    }

    fn next_event(&mut self) -> Option<(Nanos, ConnId, NetEvent)> {
        let ev = self.rx.recv().ok()?;
        if let (_, conn, NetEvent::Closed) = &ev {
            self.conns.lock().remove(conn);
        }
        Some(ev)
    }

    fn send(&mut self, conn: ConnId, resp: ServiceResponse) {
        // A client that hung up before reading its reply is a client
        // problem; the reader thread will report the close.
        let mut conns = self.conns.lock();
        if let Some(stream) = conns.get_mut(&conn) {
            let _ = resp.write_to(stream).and_then(|()| stream.flush());
        }
    }
}

impl Drop for NetEnv {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Nudge the acceptor out of its poll and drop every stream so
        // parked readers fail fast instead of waiting out a poll.
        let _ = TcpStream::connect(self.addr);
        self.conns.lock().clear();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_flow_in_and_responses_flow_out() {
        let mut env = NetEnv::bind(("127.0.0.1", 0)).unwrap();
        let addr = env.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        // Open arrives first.
        let (_, conn, ev) = env.next_event().unwrap();
        assert_eq!(ev, NetEvent::Open);

        ServiceRequest::Stats.write_to(&mut client).unwrap();
        let (at, conn2, ev) = env.next_event().unwrap();
        assert_eq!(conn2, conn);
        assert_eq!(ev, NetEvent::Request(ServiceRequest::Stats));
        assert!(at <= env.now());

        env.send(conn, ServiceResponse::Done);
        assert_eq!(ServiceResponse::read_from(&mut client).unwrap(), ServiceResponse::Done);

        drop(client);
        let (_, conn3, ev) = env.next_event().unwrap();
        assert_eq!((conn3, ev), (conn, NetEvent::Closed));
    }

    #[test]
    fn two_clients_get_distinct_conn_ids() {
        let mut env = NetEnv::bind(("127.0.0.1", 0)).unwrap();
        let addr = env.local_addr();
        let _a = TcpStream::connect(addr).unwrap();
        let _b = TcpStream::connect(addr).unwrap();
        let (_, c1, e1) = env.next_event().unwrap();
        let (_, c2, e2) = env.next_event().unwrap();
        assert_eq!((e1, e2), (NetEvent::Open, NetEvent::Open));
        assert_ne!(c1, c2);
    }

    #[test]
    fn stalled_mid_frame_peer_is_dropped_not_misparsed() {
        let mut env = NetEnv::bind(("127.0.0.1", 0)).unwrap();
        let addr = env.local_addr();
        let mut staller = TcpStream::connect(addr).unwrap();
        assert!(matches!(env.next_event(), Some((_, _, NetEvent::Open))));
        // Half a length prefix, then silence: once the read poll fires
        // the reader must treat the stream as desynchronized and close
        // the connection instead of waiting to misparse frame middles.
        staller.write_all(&[0, 0]).unwrap();
        staller.flush().unwrap();
        let (_, _, ev) = env.next_event().unwrap();
        assert_eq!(ev, NetEvent::Closed);
    }

    #[test]
    fn garbage_frames_close_the_connection_not_the_env() {
        let mut env = NetEnv::bind(("127.0.0.1", 0)).unwrap();
        let addr = env.local_addr();
        let mut bad = TcpStream::connect(addr).unwrap();
        assert!(matches!(env.next_event(), Some((_, _, NetEvent::Open))));
        // An oversized length prefix is a protocol error.
        bad.write_all(&u32::MAX.to_be_bytes()).unwrap();
        bad.flush().unwrap();
        let (_, _, ev) = env.next_event().unwrap();
        assert_eq!(ev, NetEvent::Closed);
        // The env still accepts new clients.
        let mut good = TcpStream::connect(addr).unwrap();
        good.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (_, conn, ev) = env.next_event().unwrap();
        assert_eq!(ev, NetEvent::Open);
        ServiceRequest::Metrics.write_to(&mut good).unwrap();
        let (_, _, ev) = env.next_event().unwrap();
        assert_eq!(ev, NetEvent::Request(ServiceRequest::Metrics));
        env.send(conn, ServiceResponse::Done);
        assert_eq!(ServiceResponse::read_from(&mut good).unwrap(), ServiceResponse::Done);
    }
}
