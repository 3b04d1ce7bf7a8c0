//! The placement service's wire protocol.
//!
//! `choreo-service` serves tenants over length-prefixed frames; this
//! crate is that protocol and nothing else:
//!
//! * [`frame`](mod@frame) — the framing: a big-endian `u32` body length,
//!   the 16 MiB cap enforced on send *and* receive, and the idle-vs-
//!   mid-frame read-timeout distinction serve loops rely on
//!   ([`frame::is_timeout`]).
//! * [`proto`] — the request/response messages
//!   ([`ServiceRequest`]/[`ServiceResponse`]), carried by
//!   `choreo-service` over real sockets or its simulated transport.

pub mod frame;
pub mod proto;

pub use frame::MAX_FRAME;
pub use proto::{ServiceRequest, ServiceResponse, ServiceStatsReply};
