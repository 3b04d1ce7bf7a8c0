//! Packet-level discrete-event network simulator — the reproduction's
//! stand-in for ns-2 (paper §3.2, Fig. 3/4) and for the real EC2/Rackspace
//! data planes.
//!
//! The simulator is single-threaded and fully deterministic: all randomness
//! flows from one seed, and its events wait in a
//! [`choreo_topology::TimerQueue`], which breaks time ties by scheduling
//! order. It models:
//!
//! * full-duplex links with store-and-forward transmission, propagation
//!   delay and drop-tail queues ([`queue`]);
//! * per-VM egress **token-bucket shapers** implementing the hose model the
//!   paper infers for EC2 and Rackspace ([`shaper`]) — bucket depth is what
//!   makes short packet trains overestimate Rackspace throughput (Fig. 6b);
//! * a simplified **TCP Reno** (slow start, congestion avoidance, fast
//!   retransmit/recovery, RTO with backoff) sufficient to reproduce fair
//!   bandwidth sharing between bulk flows ([`tcp`]), used for the `netperf`
//!   ground truth and for background cross traffic;
//! * **UDP packet-train** senders and receivers with per-burst first/last
//!   kernel-style timestamps and loss accounting ([`udp`]), feeding the
//!   Choreo throughput estimator;
//! * **ON–OFF** background sources with exponentially distributed state
//!   holding times (paper Fig. 4, µ = 5 s) ([`onoff`]);
//! * periodic per-flow throughput samplers (10 ms in the paper's
//!   cross-traffic method) ([`sampler`]).
//!
//! Entry point: [`Sim`].

pub mod config;
pub mod event;
pub mod onoff;
pub mod packet;
pub mod queue;
pub mod sampler;
pub mod shaper;
pub mod sim;
pub mod tcp;
pub mod udp;

pub use config::TrainConfig;
pub use event::Ev;
pub use packet::{FlowId, Packet, PktKind};
pub use sampler::{SamplerId, ThroughputSample};
pub use shaper::ShaperId;
pub use sim::{Sim, TcpStats};
pub use udp::{BurstRecord, TrainReport};
