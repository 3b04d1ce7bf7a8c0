//! Choreo: network-aware task placement for cloud applications.
//!
//! This crate is the top of the reproduction stack — the system a tenant
//! would actually run. It wires the three sub-systems of the paper (§2)
//! together:
//!
//! 1. **Measure** the rented VM mesh ([`Choreo::measure`]) through any
//!    [`choreo_measure::MeasureBackend`] — packet trains on the
//!    packet-level cloud, fair-share probes on the flow-level cloud — as
//!    one probe batch over every ordered pair.
//! 2. **Profile** applications (`choreo-profile` produces
//!    [`choreo_profile::AppProfile`]s).
//! 3. **Place** each application's tasks on VMs ([`Choreo::place`]) with
//!    the greedy Algorithm 1, the exact ILP, or one of the §6 baselines,
//!    accounting for applications already running
//!    ([`choreo_place::NetworkLoad`]). Placement reads the snapshot;
//!    placing against the live network, one probe batch per transfer, is
//!    the online scheduler's job (`choreo-online`).
//!
//! [`runner`] executes placements on a [`choreo_cloudlab::FlowCloud`]
//! (turning traffic-matrix entries into real simulated transfers) and
//! drives the two evaluation scenarios of §6: *all applications at once*
//! and *applications arriving in sequence*. [`migrate`] implements §2.4's
//! periodic re-evaluation: every `T`, re-measure, re-place, and migrate
//! the remaining bytes if the predicted win justifies it.

pub mod config;
pub mod migrate;
pub mod orchestrator;
pub mod phases;
pub mod runner;

pub use config::{ChoreoConfig, PlacerKind};
pub use orchestrator::Choreo;

// Re-export the sub-system crates under one roof for convenience.
pub use choreo_cloudlab as cloudlab;
pub use choreo_measure as measure;
pub use choreo_place as place;
pub use choreo_profile as profile;
