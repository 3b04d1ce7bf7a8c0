//! Orchestrator configuration.

use choreo_measure::RateModel;

/// Which placement algorithm the orchestrator uses.
#[derive(Debug, Clone)]
pub enum PlacerKind {
    /// Algorithm 1 (the default; near-optimal and fast, §5).
    Greedy,
    /// §6 baseline: random assignment (seeded).
    Random(u64),
    /// §6 baseline: round-robin assignment.
    RoundRobin,
    /// §6 baseline: fewest machines.
    MinMachines,
}

/// Orchestrator knobs.
#[derive(Debug, Clone)]
pub struct ChoreoConfig {
    /// How concurrent connections share capacity when predicting rates.
    /// §4.4 found both EC2 and Rackspace hose-limited, so `Hose` is the
    /// default.
    pub rate_model: RateModel,
    /// Placement algorithm.
    pub placer: PlacerKind,
}

impl Default for ChoreoConfig {
    fn default() -> Self {
        ChoreoConfig { rate_model: RateModel::Hose, placer: PlacerKind::Greedy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_greedy_hose() {
        let c = ChoreoConfig::default();
        assert!(matches!(c.placer, PlacerKind::Greedy));
        assert_eq!(c.rate_model, RateModel::Hose);
    }
}
