//! Emulated cloud providers for the Choreo reproduction.
//!
//! The paper measures Amazon EC2 (May 2012 and May 2013) and Rackspace.
//! Without access to those clouds, this crate recreates them as simulator
//! configurations whose *published measurement properties* match §2.2/§4:
//!
//! | property | EC2 May-2013 | Rackspace | EC2 May-2012 |
//! |---|---|---|---|
//! | hose rate | ≈1 Gbit/s, 20% of VMs slower (Fig. 2a) | 300 Mbit/s flat (Fig. 2b) | 100–1000 Mbit/s, AZ-dependent (Fig. 1) |
//! | burst bucket | shallow (≈30 KB) → trains accurate at 200 pkts | deep (≈900 KB) → trains need 2000 pkts (Fig. 6) | shallow |
//! | path lengths | {1,2,4,6,8} (Fig. 8) | {1,4} via opaque traceroute | {1,2,4,6} |
//! | co-location | ≈1% of pairs at ≈4 Gbit/s | none observed | rare |
//! | cross traffic | light (Fig. 7: ≤6% error at τ=30 min) | negligible | heavy |
//!
//! A [`Cloud`] owns a provider profile, builds the physical topology,
//! allocates tenant VMs (with co-location), samples per-VM hose rates, and
//! spawns measurement/execution backends:
//!
//! * [`FlowCloud`] — flow-level (max-min) backend for running placements
//!   and fast `netperf`-style measurements (Figs. 1, 2, 7, 8, 10);
//! * [`PacketCloud`] — packet-level backend for packet-train and
//!   cross-traffic experiments (Figs. 4, 6, §4.3).
//!
//! Both implement [`choreo_measure::MeasureBackend`], whose probe and
//! netperf each take a batch of VM pairs: the flow-level cloud rates a
//! probe batch with one what-if solve, the packet-level cloud sends one
//! train per pair, and a netperf batch runs its transfers concurrently on
//! either. A lone pair is a batch of one.

pub mod cloud;
pub mod flowcloud;
pub mod packetcloud;
pub mod profile;

pub use cloud::Cloud;
pub use flowcloud::FlowCloud;
pub use packetcloud::PacketCloud;
pub use profile::{BackgroundSpec, HoseDist, ProviderProfile};
