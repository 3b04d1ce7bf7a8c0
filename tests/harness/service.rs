//! The service golden's run (`Golden::Service`): a 16-host tree, a
//! tenant stream that offers more than it holds, link incidents every
//! 20 s, and a service with a small wait queue and every cadence on.
//! `tests/online.rs` includes this file alone with `#[path]` and runs it
//! at other seeds, shapes and configurations.

use choreo_repro::online::{DriftConfig, MigrationConfig, OnlineConfig};
use choreo_repro::profile::{NetworkEventStreamConfig, WorkloadGenConfig, WorkloadStreamConfig};
use choreo_repro::topology::{MultiRootedTreeSpec, Topology, SECS};

/// 4 pods × 2 ToRs × 2 hosts: intra-pod and cross-pod paths, small
/// enough for many property cases.
pub fn tree() -> Topology {
    MultiRootedTreeSpec {
        cores: 2,
        pods: 4,
        aggs_per_pod: 1,
        tors_per_pod: 2,
        hosts_per_tor: 2,
        ..Default::default()
    }
    .build()
}

/// 2–5-task tenants every 10 s, changing intensity on a 10 s clock: well
/// above the 16 hosts' capacity, so the queue and rejection paths stay
/// busy.
pub fn stream() -> WorkloadStreamConfig {
    WorkloadStreamConfig {
        gen: WorkloadGenConfig {
            tasks_min: 2,
            tasks_max: 5,
            mean_interarrival: 10 * SECS,
            ..Default::default()
        },
        mean_intensity_change: 10 * SECS,
        ..Default::default()
    }
}

/// A link incident every 20 s over `topo`'s links.
pub fn network(topo: &Topology) -> NetworkEventStreamConfig {
    NetworkEventStreamConfig {
        n_links: topo.link_count() as u32,
        mean_time_between_incidents: 20 * SECS,
        ..Default::default()
    }
}

/// Greedy placement over 8 candidate hosts, a 4-entry wait queue, a
/// migration pass every 15 s and drift re-measurement every 10 s.
pub fn config() -> OnlineConfig {
    OnlineConfig {
        candidate_hosts: 8,
        queue_capacity: 4,
        migration: MigrationConfig { cadence: Some(15 * SECS), ..Default::default() },
        drift: DriftConfig { cadence: Some(10 * SECS), ..Default::default() },
        ..Default::default()
    }
}
