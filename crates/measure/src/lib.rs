//! Choreo's measurement subsystem (paper §3, validated in §4).
//!
//! Three measurements drive placement:
//!
//! 1. **Pairwise TCP throughput** — estimated from UDP packet trains in
//!    under a second per path instead of a 10-second `netperf` run
//!    ([`estimator`]). The estimate is
//!    `min{ P·Σnᵢ/Σtᵢ , MSS·C/(RTT·√ℓ) }`: the observed burst rate with the
//!    paper's head/tail loss correction, capped by the Mathis et al. TCP
//!    throughput bound when losses occurred.
//! 2. **Cross traffic** — the equivalent number `c` of backlogged TCP
//!    connections on a path, from 10 ms throughput samples of one bulk
//!    connection: `c = c₁/c₂ − 1` ([`crosstraffic`]).
//! 3. **Bottleneck location** — concurrent-transfer interference tests plus
//!    traceroute-based rack clustering decide whether paths share
//!    bottlenecks and whether the provider rate-limits at the source with a
//!    hose model ([`bottleneck`]).
//!
//! [`stability`] quantifies how well past throughput predicts current
//! throughput (Fig. 7), and [`snapshot`] assembles everything into the
//! [`NetworkSnapshot`] the placement algorithms consume. Measurement is
//! expressed against the [`MeasureBackend`] trait so the same code runs on
//! the packet-level simulator, the flow-level simulator, or (via
//! `choreo-wire`) real sockets. Its probe and its netperf each take a
//! batch of VM pairs — the paper measures the whole mesh in one sweep
//! (§4.1) and locates bottlenecks with concurrent transfers (§4.3) — and
//! a lone pair is a batch of one.

pub mod bottleneck;
pub mod crosstraffic;
pub mod estimator;
pub mod snapshot;
pub mod stability;

pub use bottleneck::{interferes, BottleneckSurvey, InterferenceTest};
pub use crosstraffic::cross_traffic_estimate;
pub use estimator::{estimate_from_report, TrainEstimate};
pub use snapshot::{MeasureBackend, NetworkSnapshot, RateModel};
pub use stability::{cdf, StabilitySeries};
