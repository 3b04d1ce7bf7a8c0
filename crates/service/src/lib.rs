//! The networked placement service: one loop, swappable I/O backends.
//!
//! Choreo's placement method (measure → profile → place) ultimately has
//! to run as a *service*: tenants show up over the network, ask for
//! placements, change their traffic, and leave. This crate is that
//! front-end. It wraps the online scheduler
//! ([`choreo_online::OnlineScheduler`]) in a request/response loop that
//! talks [`choreo_wire`]'s length-prefixed protocol
//! ([`ServiceRequest`]/[`ServiceResponse`]) and exposes every decision
//! through a prometheus-style metrics registry
//! ([`choreo_metrics::Registry`]).
//!
//! # One loop, two worlds
//!
//! The service loop ([`PlacementService`]) never touches a socket or a
//! clock directly — it consumes `(time, connection, event)` triples
//! from a [`ServiceEnv`] and hands responses back to it:
//!
//! * [`SimEnv`] — a virtual clock and a scripted in-memory transport
//!   with seeded fault injection ([`FaultPlan`]: drop, duplicate,
//!   delay, disconnect). It consumes its script, keeps no copy, and
//!   releases the script's memory as it delivers. Deterministic: the
//!   same script and plan deliver the same event sequence, so whole
//!   service runs are bit-reproducible — the test suite asserts
//!   [`choreo_online::ServiceStats::trace_hash`] equality across
//!   repeats and against driving the scheduler directly.
//! * [`NetEnv`] — real `std::net` TCP sockets and the wall clock. The
//!   identical dispatch code serves loopback smoke tests and real
//!   deployments.
//!
//! The `choreo-serve` binary glues the pieces together: `serve` runs a
//! [`NetEnv`]-backed service plus a [`MetricsServer`] scrape endpoint,
//! `smoke` is a one-shot client that admits a tenant and checks the
//! metrics, `sim` demonstrates the determinism contract from the
//! command line.
//!
//! # Untrusted input
//!
//! Everything arriving on a [`NetEnv`] socket is unauthenticated, so
//! the request path is bounded at every layer: frames are capped at
//! 16 MiB in both directions ([`choreo_wire::frame`]), a peer that
//! stalls mid-frame is dropped rather than left desynchronizing the
//! stream, and tenant ids above
//! [`MAX_TENANT_ID`](service::MAX_TENANT_ID)
//! are refused before they reach the scheduler, so no tenant can claim
//! `TenantId::MAX`, the decision trace's cluster-wide sentinel (rendered
//! `"tenant":null`). Refusals are counted in
//! `choreo_invalid_tenant_ids_total`. Intensities above
//! [`MAX_INTENSITY`](service::MAX_INTENSITY), which would exhaust the
//! engine's flow records, and degrade or drain fractions outside (0, 1),
//! which the engine refuses with a panic, get an `Error` reply too.
//!
//! # Metrics quickstart
//!
//! ```
//! use std::sync::Arc;
//! use choreo_profile::{AppProfile, TrafficMatrix};
//! use choreo_service::{PlacementService, ServiceConfig, SimEnv};
//! use choreo_topology::{MultiRootedTreeSpec, RouteTable};
//! use choreo_wire::ServiceRequest;
//!
//! let topo = Arc::new(MultiRootedTreeSpec::default().build());
//! let routes = Arc::new(RouteTable::new(&topo));
//! let app = AppProfile::new("demo", vec![1.0, 1.0], TrafficMatrix::zeros(2), 0);
//! let env = SimEnv::new(vec![(0, 1, ServiceRequest::Admit { tenant: 1, app })]);
//! let mut svc = PlacementService::new(topo, routes, ServiceConfig::default(), env);
//! svc.run();
//! let text = svc.registry().render();
//! assert!(text.contains("choreo_admitted_total 1"));
//! assert!(text.contains("choreo_active_tenants 1"));
//! ```
//!
//! Every counter, gauge and histogram the scheduler and migration
//! planner maintain (admissions, rejections, queue depth, placement
//! latency, migrations, SLO attainment) shows up in that exposition;
//! `GET /metrics` on the [`MetricsServer`] serves the same text over
//! HTTP. Metrics are observational only — wall-clock latency samples
//! never feed back into placement decisions, which is what keeps the
//! simulated runs bit-reproducible.

pub mod env;
pub mod http;
pub mod net;
pub mod service;
pub mod sim;

pub use env::{ConnId, NetEvent, ServiceEnv};
pub use http::MetricsServer;
pub use net::NetEnv;
pub use service::{PlacementService, ServiceConfig};
pub use sim::{FaultCounts, FaultPlan, SimEnv};

// Re-exported so service users don't need a direct `choreo-wire` dep
// for the common request/response types.
pub use choreo_wire::{ServiceRequest, ServiceResponse, ServiceStatsReply};
