//! Application profiling for Choreo (paper §2.1).
//!
//! Choreo profiles a distributed application by watching its traffic with a
//! tool like sFlow or tcpdump and aggregating the observed flow records into
//! a **traffic matrix**: entry `A[i][j]` is proportional to the number of
//! bytes task `i` sends task `j`. The paper deliberately profiles *bytes*,
//! not rates — bytes are a property of the application, while rates depend
//! on whatever else shares the network.
//!
//! The paper's evaluation replays three weeks of application traffic
//! matrices collected on the HP Cloud. That dataset is not public, so this
//! crate also contains a **workload synthesizer** ([`synth`]) that generates
//! applications with the communication shapes the paper's motivation names
//! (MapReduce-style shuffles, scatter/gather aggregation, pipelines, and the
//! uniform all-to-all pattern §7.1 notes Choreo cannot help) plus the
//! dataset properties §2.1 reports: per-pair hourly bytes predictable from
//! the previous hour and the time of day ([`predict`]), task CPU demands of
//! 0.5–4 cores on 4-core machines (§6.1).
//!
//! Modules: [`matrix`] (traffic matrices), [`app`] (application
//! profiles), [`dist`] (distribution samplers built on `rand`), [`synth`]
//! (workload generation),
//! [`predict`] (hour-over-hour predictability analysis), [`stream`]
//! (seeded multi-tenant arrival/departure/load-change event streams for
//! the online placement service), [`netstream`] (seeded link
//! failure/degradation/drain event streams merged with the tenant
//! stream so fault-laden service runs stay bit-reproducible).

pub mod app;
pub mod dist;
pub mod matrix;
pub mod netstream;
pub mod phased;
pub mod predict;
pub mod stream;
pub mod synth;

pub use app::AppProfile;
pub use matrix::TrafficMatrix;
pub use netstream::{
    merge_events, switch_link_groups, NetworkEvent, NetworkEventKind, NetworkEventStream,
    NetworkEventStreamConfig, ServiceEvent, SwitchFailureConfig,
};
pub use phased::{Phase, PhasedApp};
pub use stream::{TenantEvent, TenantEventKind, TenantId, WorkloadStream, WorkloadStreamConfig};
pub use synth::{
    AppPattern, CorrelatedBatchConfig, FlashCrowdConfig, WorkloadGen, WorkloadGenConfig,
};
