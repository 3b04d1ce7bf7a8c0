//! ON–OFF background traffic sources.
//!
//! Fig. 4's validation runs nine background sender/receiver pairs following
//! "an ON-OFF model whose transition time follows an exponential
//! distribution with µ = 5 s". While ON, a source is a backlogged bulk TCP
//! connection; while OFF it is silent. Each transition samples a fresh
//! exponential holding time ([`choreo_topology::exp_holding`]).

use choreo_topology::Nanos;

use crate::packet::FlowId;

/// Index of an ON–OFF source inside a [`crate::Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(pub u32);

/// State of one ON–OFF source.
#[derive(Debug)]
pub struct OnOffSource {
    /// Mean ON duration.
    pub mean_on: Nanos,
    /// Mean OFF duration.
    pub mean_off: Nanos,
    /// Currently transmitting?
    pub on: bool,
    /// The active bulk flow while ON.
    pub flow: Option<FlowId>,
    /// Count of completed ON periods (for tests/stats).
    pub on_periods: u64,
}

impl OnOffSource {
    /// New source, initially OFF.
    pub fn new(mean_on: Nanos, mean_off: Nanos) -> Self {
        assert!(mean_on > 0 && mean_off > 0);
        OnOffSource { mean_on, mean_off, on: false, flow: None, on_periods: 0 }
    }

    /// Mean holding time of the *current* state (used to sample the time
    /// until the next toggle).
    pub fn current_mean(&self) -> Nanos {
        if self.on {
            self.mean_on
        } else {
            self.mean_off
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choreo_topology::exp_holding;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exp_sample_mean_converges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mean = 5_000_000_000u64; // 5 s, as in the paper
        let n = 20_000;
        let sum: f64 =
            (0..n).map(|_| exp_holding(mean, rng.gen_range(f64::EPSILON..=1.0)) as f64).sum();
        let avg = sum / n as f64;
        assert!((avg - mean as f64).abs() / (mean as f64) < 0.05, "avg = {avg}");
    }

    #[test]
    fn exp_sample_is_monotone_in_u() {
        // Smaller u (rarer) gives longer holding times.
        assert!(exp_holding(1000, 0.01) > exp_holding(1000, 0.99));
    }

    #[test]
    fn source_tracks_state_mean() {
        let mut s = OnOffSource::new(10, 20);
        assert_eq!(s.current_mean(), 20, "starts OFF");
        s.on = true;
        assert_eq!(s.current_mean(), 10);
    }
}
