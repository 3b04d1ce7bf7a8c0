//! The saturated golden's tenant stream (`Golden::Saturated`; the
//! failover and 512-host goldens run it on other clocks).
//! `tests/scenarios.rs` includes this file alone with `#[path]`.

use choreo_repro::profile::{WorkloadGenConfig, WorkloadStreamConfig};
use choreo_repro::topology::SECS;

/// 4–8-task tenants every 2 s that change intensity, up to 3×, on a 12 s
/// clock. Against ~120 s median lifetimes that keeps ~30 tenants and a
/// busy wait queue on 128 hosts, and saturates 32.
pub fn stream() -> WorkloadStreamConfig {
    WorkloadStreamConfig {
        gen: WorkloadGenConfig {
            tasks_min: 4,
            tasks_max: 8,
            mean_interarrival: 2 * SECS,
            ..Default::default()
        },
        mean_intensity_change: 12 * SECS,
        max_intensity: 3,
        ..Default::default()
    }
}
