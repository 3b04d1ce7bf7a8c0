//! Service configuration: the settable knobs, and the constants every
//! caller left at one value.

use choreo_topology::{LinkSpec, Nanos, GBIT, MICROS, SECS};

/// Capacity/delay model for co-located traffic: the ≈ 4 Gbit/s intra-host
/// paths the paper measured on EC2, the same model as the cloudlab
/// provider profiles' `loopback`.
pub const LOOPBACK: LinkSpec = LinkSpec { rate_bps: 4.2 * GBIT, delay: 20 * MICROS };

/// Each tenant's heaviest this-many transfers become live simulated
/// flows; placement still sees the full matrix. Not from the paper: a
/// modelling bound of this service that caps the per-tenant flow count
/// of all-to-all patterns.
pub const MAX_MODELED_TRANSFERS: usize = 12;

/// Cost-side hysteresis threshold of the shared
/// `choreo::migrate::improves_enough` rule, applied to reciprocal rates:
/// a move fires only when `predicted > current / (1 − MIN_IMPROVEMENT)`,
/// a ≥ 11 % predicted rate gain. The paper's §2.4 re-evaluation
/// threshold. The band between [`MigrationConfig::degraded_fraction`]
/// and this bar is what keeps tenants from flapping.
pub const MIN_IMPROVEMENT: f64 = 0.10;

/// A tenant counts as drifted when its last-epoch relative error
/// `|cur − prev| / cur` exceeds this: the paper's §4.1 stability envelope
/// (≤ 6 % error for 95 % of paths). More epoch-over-epoch error than the
/// measured cloud baseline means the network changed, not noise.
pub const DRIFT_THRESHOLD: f64 = 0.06;

/// Which placer admission uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Algorithm 1 over live batched what-if probes (the service's point).
    Greedy,
    /// Seeded network-oblivious random placement — the §6 baseline the
    /// online bench compares tenant rates against.
    Random(u64),
}

/// Knobs of the background migration planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Run a cluster-wide re-placement pass every this much simulated
    /// time (`None` disables the planner).
    pub cadence: Option<Nanos>,
    /// A tenant counts as degraded when its current mean per-flow rate
    /// drops strictly below this fraction of the rate it saw right after
    /// its last placement.
    pub degraded_fraction: f64,
    /// Maximum number of tenants moved per pass — migration is not free,
    /// so each pass executes only the best improvements.
    pub budget: usize,
    /// A tenant placed or moved less than this long ago is left alone.
    pub cooldown: Nanos,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            cadence: Some(10 * SECS),
            degraded_fraction: 0.85,
            budget: 2,
            cooldown: 20 * SECS,
        }
    }
}

/// Knobs of the re-measurement cadence and drift detector.
///
/// The paper measures every path each epoch and leans on the §4.1
/// stability result (≤ 6 % relative error for 95 % of paths over a
/// 30-minute horizon) to measure *infrequently*. The online service
/// inverts that: it re-measures each running tenant's service score on a
/// cadence, keeps the last few per-epoch scores, and treats a
/// last-epoch relative error
/// ([`choreo_measure::stability::last_relative_error`]) **above** the
/// paper's envelope ([`DRIFT_THRESHOLD`]) as network
/// drift — something moved underneath the tenant (congestion, a
/// degraded or recovered link), so the tenant is routed into the
/// migration planner ahead of its normal cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Re-measure every running networked tenant on this simulated-time
    /// cadence (`None` disables drift detection).
    pub cadence: Option<Nanos>,
    /// Epoch scores retained per tenant (the drift series window).
    pub window: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { cadence: Some(30 * SECS), window: 8 }
    }
}

/// Configuration of an [`crate::OnlineScheduler`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// CPU cores per host (§6.1: four-core machines).
    pub cores_per_host: f64,
    /// Placement works within the `candidate_hosts` hosts with the most
    /// free CPU (deterministic tie-break on host index) instead of the
    /// whole cluster: candidate probing is one batched what-if solve per
    /// transfer, so the subset bounds per-arrival latency at large host
    /// counts the way power-of-k-choices schedulers do. The ranking is
    /// made once per CPU-ledger change and reused while the ledger is
    /// unchanged, so a queue retry after a failed attempt ranks nothing.
    pub candidate_hosts: usize,
    /// Arrivals that do not fit wait in a FIFO queue of at most this many
    /// tenants (retried on departures); beyond it they are rejected.
    pub queue_capacity: usize,
    /// Admission placer.
    pub policy: PlacementPolicy,
    /// Background migration planner knobs.
    pub migration: MigrationConfig,
    /// Re-measurement cadence and drift detector knobs.
    pub drift: DriftConfig,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            cores_per_host: 4.0,
            candidate_hosts: 16,
            queue_capacity: 64,
            policy: PlacementPolicy::Greedy,
            migration: MigrationConfig::default(),
            drift: DriftConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = OnlineConfig::default();
        assert_eq!(c.policy, PlacementPolicy::Greedy);
        assert!(c.candidate_hosts >= 2 && c.queue_capacity > 0);
        assert!(c.migration.degraded_fraction < 1.0);
        assert!(c.drift.window >= 2);
    }
}
