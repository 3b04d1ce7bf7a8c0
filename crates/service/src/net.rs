//! The real backend: `std::net` TCP sockets and the wall clock.
//!
//! [`NetEnv`] binds a listener, accepts connections on a background
//! thread that blocks in `accept`, and runs one blocking reader thread
//! per connection. Readers decode [`ServiceRequest`] frames and stamp
//! each with nanoseconds since the listener came up; the service loop
//! consumes them through the same [`ServiceEnv`] interface the simulated
//! backend implements. Each connection's write half rides to the loop
//! in its `Open` delivery, so the loop thread alone owns every stream it
//! writes to. Events are ordered by arrival at the internal channel —
//! close enough to wall-clock order for a service whose scheduler clamps
//! time monotone, but no determinism promise.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use choreo_topology::Nanos;
use choreo_wire::frame::is_timeout;
use choreo_wire::{ServiceRequest, ServiceResponse};

use crate::env::{ConnId, NetEvent, ServiceEnv};
use crate::http::wake_acceptor;

/// Longest one read may wait. An idle connection just reads again; a
/// peer that stalls inside a frame is dropped when it passes.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// One delivery to the loop: an event, and with an `Open`, the new
/// connection's write half.
type Delivery = (Nanos, ConnId, NetEvent, Option<TcpStream>);

/// The socket-backed env: one acceptor thread, one reader thread per
/// connection, responses written straight back to the client's stream.
pub struct NetEnv {
    addr: SocketAddr,
    rx: Receiver<Delivery>,
    /// Write halves of the open connections; only the loop touches them.
    conns: HashMap<ConnId, TcpStream>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetEnv {
    /// Bind and start accepting. `addr` may use port 0 for an
    /// ephemeral port; [`NetEnv::local_addr`] reports the real one.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<NetEnv> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = std::sync::mpsc::channel();
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = stop.clone();
            std::thread::spawn(move || Self::accept_loop(listener, start, tx, &stop))
        };
        Ok(NetEnv { addr, rx, conns: HashMap::new(), stop, acceptor: Some(acceptor) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block in `accept` until the env's drop raises `stop` and wakes it.
    fn accept_loop(listener: TcpListener, start: Instant, tx: Sender<Delivery>, stop: &AtomicBool) {
        for (conn, stream) in (1..).zip(listener.incoming().map_while(Result::ok)) {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
            let Ok(reader) = stream.try_clone() else { continue };
            if tx.send((since(start), conn, NetEvent::Open, Some(stream))).is_err() {
                return; // service loop gone
            }
            let tx = tx.clone();
            std::thread::spawn(move || Self::read_loop(reader, conn, start, tx));
        }
    }

    /// Read frames until the peer hangs up, stalls mid-frame or sends
    /// garbage, or the env's drop shuts the stream down.
    fn read_loop(mut stream: TcpStream, conn: ConnId, start: Instant, tx: Sender<Delivery>) {
        loop {
            let event = match ServiceRequest::read_from(&mut stream) {
                Ok(req) => NetEvent::Request(req),
                // An idle wait (zero bytes consumed): read again. A
                // timeout *mid-frame* is not `is_timeout` — the frame
                // layer reports the desynchronized stream as fatal
                // `InvalidData`, so a peer that stalls inside a frame is
                // dropped below instead of lingering misparsed.
                Err(e) if is_timeout(&e) => continue,
                Err(_) => {
                    // Report the close; the loop forgets the write half.
                    let _ = tx.send((since(start), conn, NetEvent::Closed, None));
                    return;
                }
            };
            if tx.send((since(start), conn, event, None)).is_err() {
                return; // service loop gone
            }
        }
    }
}

/// Nanoseconds since `start`.
fn since(start: Instant) -> Nanos {
    start.elapsed().as_nanos() as u64
}

impl ServiceEnv for NetEnv {
    fn next_event(&mut self) -> Option<(Nanos, ConnId, NetEvent)> {
        let (at, conn, event, stream) = self.rx.recv().ok()?;
        if let Some(stream) = stream {
            self.conns.insert(conn, stream);
        } else if event == NetEvent::Closed {
            self.conns.remove(&conn);
        }
        Some((at, conn, event))
    }

    fn send(&mut self, conn: ConnId, resp: ServiceResponse) {
        // A client that hung up before reading its reply is a client
        // problem; the reader thread will report the close.
        if let Some(stream) = self.conns.get_mut(&conn) {
            let _ = resp.write_to(stream).and_then(|()| stream.flush());
        }
    }
}

impl Drop for NetEnv {
    fn drop(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            wake_acceptor(self.addr, &self.stop, acceptor);
        }
        // Shut down every stream, delivered or still queued in an `Open`:
        // a reader holds a clone of it, so dropping the write half alone
        // neither closes the socket nor wakes the reader. Shut down, the
        // reader's read returns at once and it exits.
        let queued = self.rx.try_iter().filter_map(|(.., stream)| stream);
        for stream in self.conns.drain().map(|(_, s)| s).chain(queued) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;

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
        let (_, conn2, ev) = env.next_event().unwrap();
        assert_eq!(conn2, conn);
        assert_eq!(ev, NetEvent::Request(ServiceRequest::Stats));

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
    fn a_dropped_env_releases_its_listener() {
        for ip in ["127.0.0.1", "0.0.0.0"] {
            let env = NetEnv::bind((ip, 0)).unwrap();
            let port = env.local_addr().port();
            drop(env);
            // Refused: the acceptor was woken and joined, and its
            // listener closed with it.
            let err = TcpStream::connect(("127.0.0.1", port)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{ip}: {err}");
        }
    }

    #[test]
    fn clients_read_the_close_as_soon_as_the_env_drops() {
        let mut env = NetEnv::bind(("127.0.0.1", 0)).unwrap();
        let addr = env.local_addr();
        let delivered = TcpStream::connect(addr).unwrap();
        assert!(matches!(env.next_event(), Some((_, _, NetEvent::Open))));
        // Accepted before the drop's wake, but its `Open` never delivered.
        let queued = TcpStream::connect(addr).unwrap();
        let dropped = Instant::now();
        drop(env);
        for mut client in [delivered, queued] {
            client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(client.read(&mut [0; 8]).unwrap(), 0, "an orderly close");
            let waited = dropped.elapsed();
            assert!(waited < Duration::from_millis(250), "closed after {waited:?}");
        }
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
