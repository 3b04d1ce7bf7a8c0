//! Bottleneck location and rate-limit inference (paper §3.3, §4.3).
//!
//! To decide whether paths `A→B` and `C→D` share a bottleneck, run
//! transfers on both concurrently: if `A→B`'s throughput drops
//! significantly below its solo value, they share one. Two structural
//! rules (§3.3.2) make the search cheap in tree topologies, and the test
//! doubles as a rate-limit detector: if same-source pairs always interfere
//! while distinct-endpoint pairs never do — and the same-source rates *sum*
//! to the solo rate — the provider rate-limits each VM's egress hose
//! (exactly what §4.3 found on EC2 and Rackspace).

use choreo_topology::VmId;

use crate::snapshot::{MeasureBackend, RateModel};

/// Fractional throughput drop above which two paths are declared to share
/// a bottleneck (the paper requires a "significant" decrease; 25% cleanly
/// separates a halved rate from noise).
pub const INTERFERENCE_THRESHOLD: f64 = 0.25;

/// Does a concurrent rate constitute interference against a solo rate?
pub fn interferes(solo_bps: f64, concurrent_bps: f64) -> bool {
    if solo_bps <= 0.0 {
        return false;
    }
    (solo_bps - concurrent_bps) / solo_bps > INTERFERENCE_THRESHOLD
}

/// Result of one pairwise interference experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceTest {
    /// First path.
    pub path_a: (VmId, VmId),
    /// Second path.
    pub path_b: (VmId, VmId),
    /// Solo throughput of the first path.
    pub solo_a_bps: f64,
    /// First path's throughput while the second transferred concurrently.
    pub concurrent_a_bps: f64,
    /// Second path's concurrent throughput (for hose-sum checks).
    pub concurrent_b_bps: f64,
}

impl InterferenceTest {
    /// Did the two paths interfere?
    pub fn interfered(&self) -> bool {
        interferes(self.solo_a_bps, self.concurrent_a_bps)
    }

    /// Do the concurrent rates sum back to the solo rate (within `tol`)?
    /// True for hose-model rate limiting: the hose capacity is conserved.
    pub fn conserves_sum(&self, tol: f64) -> bool {
        let sum = self.concurrent_a_bps + self.concurrent_b_bps;
        self.solo_a_bps > 0.0 && ((sum - self.solo_a_bps) / self.solo_a_bps).abs() <= tol
    }
}

/// Run one interference experiment on a backend.
pub fn run_interference_test<B: MeasureBackend>(
    backend: &mut B,
    path_a: (VmId, VmId),
    path_b: (VmId, VmId),
    duration: choreo_topology::Nanos,
) -> InterferenceTest {
    let solo_a_bps = backend.netperf(&[path_a], duration)[0];
    let rates = backend.netperf(&[path_a, path_b], duration);
    InterferenceTest {
        path_a,
        path_b,
        solo_a_bps,
        concurrent_a_bps: rates[0],
        concurrent_b_bps: rates[1],
    }
}

/// Aggregate results of the §4.3 experiment: many distinct-endpoint pairs
/// and many same-source pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckSurvey {
    /// Fraction of distinct-endpoint (4 unique VMs) pairs that interfered.
    pub distinct_interference: f64,
    /// Fraction of same-source pairs that interfered.
    pub same_source_interference: f64,
    /// Fraction of same-source pairs whose concurrent rates summed to the
    /// solo rate (hose conservation).
    pub hose_conservation: f64,
    /// Number of experiments of each kind.
    pub trials: usize,
}

impl BottleneckSurvey {
    /// Infer the provider's rate-limiting model: if same-source connections
    /// always collide, distinct ones never do, and capacity is conserved,
    /// the bottleneck is the source hose; otherwise treat paths as
    /// independent pipes.
    pub fn infer_model(&self) -> RateModel {
        if self.same_source_interference > 0.9
            && self.distinct_interference < 0.1
            && self.hose_conservation > 0.8
        {
            RateModel::Hose
        } else {
            RateModel::Pipe
        }
    }
}

/// Run the full §4.3 survey on `vms` (needs ≥ 4 VMs): `trials` experiments
/// of each kind over rotating VM choices.
pub fn survey<B: MeasureBackend>(
    backend: &mut B,
    vms: &[VmId],
    trials: usize,
    duration: choreo_topology::Nanos,
) -> BottleneckSurvey {
    assert!(vms.len() >= 4, "survey needs at least 4 VMs");
    let n = vms.len();
    let mut distinct_hits = 0usize;
    let mut same_hits = 0usize;
    let mut conserved = 0usize;
    for t in 0..trials {
        // Distinct endpoints: A->B with C->D (all different VMs).
        let a = vms[t % n];
        let b = vms[(t + 1) % n];
        let c = vms[(t + 2) % n];
        let d = vms[(t + 3) % n];
        let test = run_interference_test(backend, (a, b), (c, d), duration);
        if test.interfered() {
            distinct_hits += 1;
        }
        // Same source: A->B with A->C.
        let test = run_interference_test(backend, (a, b), (a, c), duration);
        if test.interfered() {
            same_hits += 1;
        }
        if test.conserves_sum(0.15) {
            conserved += 1;
        }
    }
    BottleneckSurvey {
        distinct_interference: distinct_hits as f64 / trials as f64,
        same_source_interference: same_hits as f64 / trials as f64,
        hose_conservation: conserved as f64 / trials as f64,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halved_rate_is_interference() {
        assert!(interferes(1e9, 0.5e9));
        assert!(!interferes(1e9, 0.9e9), "10% dip is noise");
        assert!(!interferes(0.0, 0.0), "dead path can't interfere");
    }

    #[test]
    fn hose_conservation_detected() {
        let t = InterferenceTest {
            path_a: (VmId(0), VmId(1)),
            path_b: (VmId(0), VmId(2)),
            solo_a_bps: 1e9,
            concurrent_a_bps: 0.52e9,
            concurrent_b_bps: 0.49e9,
        };
        assert!(t.interfered());
        assert!(t.conserves_sum(0.15));
        let not = InterferenceTest { concurrent_b_bps: 1e9, ..t };
        assert!(!not.conserves_sum(0.15), "sum far above solo: not a hose");
    }

    #[test]
    fn survey_infers_hose_from_clean_signals() {
        let s = BottleneckSurvey {
            distinct_interference: 0.0,
            same_source_interference: 1.0,
            hose_conservation: 1.0,
            trials: 20,
        };
        assert_eq!(s.infer_model(), RateModel::Hose);
    }

    #[test]
    fn survey_falls_back_to_pipe() {
        let s = BottleneckSurvey {
            distinct_interference: 0.6, // middle-of-network congestion
            same_source_interference: 1.0,
            hose_conservation: 0.9,
            trials: 20,
        };
        assert_eq!(s.infer_model(), RateModel::Pipe);
    }
}
