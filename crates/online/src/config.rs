//! Service configuration: the knobs a shipped caller or a golden sets,
//! and the constants every caller left at one value. Co-located
//! transfers score at [`choreo_topology::LOOPBACK`], the one loopback
//! model the simulators and the provider profiles share.

use choreo_topology::{Nanos, SECS};

/// Each tenant's heaviest this-many transfers become live simulated
/// flows; placement still sees the full matrix. Not from the paper: a
/// modelling bound of this service that caps the per-tenant flow count
/// of all-to-all patterns.
pub const MAX_MODELED_TRANSFERS: usize = 12;

/// Cost-side hysteresis threshold of the shared
/// `choreo::migrate::improves_enough` rule, applied to reciprocal rates:
/// a move fires only when `predicted > current / (1 − MIN_IMPROVEMENT)`,
/// a ≥ 11 % predicted rate gain. The paper's §2.4 re-evaluation
/// threshold. The band between [`DEGRADED_FRACTION`] and this bar is
/// what keeps tenants from flapping.
pub const MIN_IMPROVEMENT: f64 = 0.10;

/// CPU cores per host (§6.1: four-core machines).
pub const CORES_PER_HOST: f64 = 4.0;

/// A tenant counts as degraded when its current mean per-flow rate drops
/// strictly below this fraction of the rate it saw right after its last
/// placement.
pub const DEGRADED_FRACTION: f64 = 0.85;

/// Maximum number of tenants the migration planner moves per pass —
/// migration is not free, so each pass executes only the best
/// improvements.
pub const MIGRATION_BUDGET: usize = 2;

/// A tenant placed or moved less than this long ago is left alone by the
/// migration planner's cadence scan.
pub const MIGRATION_COOLDOWN: Nanos = 20 * SECS;

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

/// The background migration planner's one knob; its arm, budget and
/// cooldown are [`DEGRADED_FRACTION`], [`MIGRATION_BUDGET`] and
/// [`MIGRATION_COOLDOWN`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Run a cluster-wide re-placement pass every this much simulated
    /// time (`None` disables the planner).
    pub cadence: Option<Nanos>,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig { cadence: Some(10 * SECS) }
    }
}

/// The drift detector's one knob: its re-measurement cadence.
///
/// The paper measures every path each epoch and leans on the §4.1
/// stability result (≤ 6 % relative error for 95 % of paths over a
/// 30-minute horizon) to measure *infrequently*. The online service
/// inverts that: it re-measures each running tenant's service score on a
/// cadence, keeps the last one, and treats an epoch-over-epoch relative
/// error `|cur − prev| / cur` **above** the paper's envelope
/// ([`DRIFT_THRESHOLD`]) as network drift — something moved underneath
/// the tenant (congestion, a degraded or recovered link), so the tenant
/// is routed into the migration planner ahead of its normal cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Re-measure every running networked tenant on this simulated-time
    /// cadence (`None` disables drift detection).
    pub cadence: Option<Nanos>,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { cadence: Some(30 * SECS) }
    }
}

/// Configuration of an [`crate::OnlineScheduler`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
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
        // No `..`: a new knob fails to compile here until its default is
        // checked too.
        let OnlineConfig { candidate_hosts, queue_capacity, policy, migration, drift } =
            OnlineConfig::default();
        let MigrationConfig { cadence: migration_cadence } = migration;
        let DriftConfig { cadence: drift_cadence } = drift;
        assert_eq!(candidate_hosts, 16);
        assert_eq!(queue_capacity, 64);
        assert_eq!(policy, PlacementPolicy::Greedy);
        assert_eq!(migration_cadence, Some(10 * SECS));
        assert_eq!(drift_cadence, Some(30 * SECS));
    }
}
