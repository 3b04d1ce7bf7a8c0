//! The service's I/O abstraction: one loop, swappable backends.
//!
//! [`PlacementService`](crate::PlacementService) never touches a socket
//! or a clock directly — it consumes `(time, connection, event)` triples
//! from a [`ServiceEnv`] and hands responses back to it. Two backends
//! implement the trait:
//!
//! * [`SimEnv`](crate::SimEnv) — a virtual clock and an in-memory
//!   scripted transport with seeded fault injection. It consumes its
//!   script and releases it as it delivers. Deterministic: the same
//!   script, seed and fault plan deliver the same event sequence, so
//!   whole service runs are bit-reproducible
//!   ([`choreo_online::ServiceStats::trace_hash`] equality is asserted
//!   in the test suite).
//! * [`NetEnv`](crate::NetEnv) — real `std::net` TCP sockets and the
//!   wall clock (nanoseconds since the listener came up).
//!
//! # The determinism contract
//!
//! The service loop is a pure function of the event sequence the env
//! yields: every decision it makes depends only on `(at, conn, event)`
//! order and content, never on wall-clock reads (metrics record
//! wall-clock latencies, but nothing reads them back). An env that
//! delivers the same sequence twice gets bit-identical trajectories —
//! `SimEnv` guarantees exactly that; `NetEnv` orders events by arrival
//! and makes no such promise.

use choreo_topology::Nanos;
use choreo_wire::{ServiceRequest, ServiceResponse};

/// Identifies one client connection within an env.
pub type ConnId = u64;

/// What a connection did.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent {
    /// The connection opened.
    Open,
    /// The connection delivered one request frame.
    Request(ServiceRequest),
    /// The connection closed (or its stream broke).
    Closed,
}

/// The I/O world the service loop runs in: a clock, an ordered event
/// source, and a response sink.
pub trait ServiceEnv {
    /// Current service-clock time: virtual for the simulated backend,
    /// nanoseconds since startup for the real one.
    fn now(&self) -> Nanos;

    /// The next `(at, conn, event)` triple, or `None` when the env is
    /// finished (script exhausted / listener torn down). `at` is
    /// non-decreasing across calls. The real backend blocks until
    /// something arrives.
    fn next_event(&mut self) -> Option<(Nanos, ConnId, NetEvent)>;

    /// Deliver one response frame on `conn`. Responses to a
    /// connection's requests are sent in request order. The env takes
    /// the response by value: the simulated backend records it as is,
    /// the real one writes it to the socket and drops it. Errors are
    /// swallowed: a client that hung up before reading its reply is a
    /// client problem, not a service problem.
    fn send(&mut self, conn: ConnId, resp: ServiceResponse);
}
