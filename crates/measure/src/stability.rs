//! Temporal stability analysis (paper §4.1, Fig. 7).
//!
//! The paper measures each path's throughput every 10 seconds for
//! 30 minutes and asks: how well does the measurement from τ minutes ago
//! predict the current one? The answer (≤ 6% error for 95% of EC2 paths,
//! even at τ = 30 min) is what lets Choreo measure infrequently.

use choreo_topology::Nanos;

/// A regularly sampled throughput series for one path.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilitySeries {
    /// Sampling interval.
    pub interval: Nanos,
    /// Throughput samples (bits/s), oldest first.
    pub samples: Vec<f64>,
}

impl StabilitySeries {
    /// New series; panics on a zero interval.
    pub fn new(interval: Nanos, samples: Vec<f64>) -> Self {
        assert!(interval > 0, "zero sampling interval");
        StabilitySeries { interval, samples }
    }

    /// Relative prediction errors `|λ_c − λ_{c−τ}| / λ_c` for every sample
    /// `c` that has a predecessor τ ago. τ is rounded down to a whole
    /// number of intervals.
    pub fn relative_errors(&self, tau: Nanos) -> Vec<f64> {
        let lag = (tau / self.interval).max(1) as usize;
        (lag..self.samples.len()).filter_map(|c| relative_error_at(&self.samples, c, lag)).collect()
    }

    /// Median of the relative errors at lag τ.
    pub fn median_error(&self, tau: Nanos) -> f64 {
        percentile(&mut self.relative_errors(tau), 0.5)
    }

    /// Mean of the relative errors at lag τ.
    pub fn mean_error(&self, tau: Nanos) -> f64 {
        let e = self.relative_errors(tau);
        assert!(!e.is_empty(), "series shorter than lag");
        e.iter().sum::<f64>() / e.len() as f64
    }
}

/// `|λ_c − λ_{c−lag}| / λ_c` for sample `c ≥ lag`; `None` when `λ_c` is not
/// positive (the error relative to nothing is undefined).
fn relative_error_at(samples: &[f64], c: usize, lag: usize) -> Option<f64> {
    let cur = samples[c];
    (cur > 0.0).then(|| (cur - samples[c - lag]).abs() / cur)
}

/// p-th percentile (0 ≤ p ≤ 1) of an unsorted slice (sorted in place).
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&p));
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in data"));
    let idx = ((values.len() - 1) as f64 * p).round() as usize;
    values[idx]
}

/// Empirical CDF points `(value, fraction ≤ value)` for plotting, one per
/// sample, sorted ascending — the form every CDF figure in the paper uses.
pub fn cdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in data"));
    let n = sorted.len() as f64;
    sorted.into_iter().enumerate().map(|(i, v)| (v, (i + 1) as f64 / n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use choreo_topology::SECS;

    #[test]
    fn constant_series_has_zero_error() {
        // 30 min of 10 s samples plus one extra so even the longest paper
        // lag (τ = 30 min) has a sample to predict.
        let s = StabilitySeries::new(10 * SECS, vec![1e9; 181]);
        for tau in [60 * SECS, 300 * SECS, 1800 * SECS] {
            assert_eq!(s.median_error(tau), 0.0);
            assert_eq!(s.mean_error(tau), 0.0);
        }
    }

    #[test]
    fn step_change_shows_up_at_matching_lags() {
        // 1 Gbit/s for 90 samples then 500 Mbit/s for 90: predictions that
        // straddle the step err by 100% (old/new = 2x), others by 0.
        let mut v = vec![1e9; 90];
        v.extend(vec![5e8; 90]);
        let s = StabilitySeries::new(10 * SECS, v);
        let errs = s.relative_errors(10 * SECS); // lag 1: exactly one bad point
        let bad = errs.iter().filter(|e| **e > 0.5).count();
        assert_eq!(bad, 1);
        let errs = s.relative_errors(300 * SECS); // lag 30: thirty bad points
        let bad = errs.iter().filter(|e| **e > 0.5).count();
        assert_eq!(bad, 30);
    }

    #[test]
    fn relative_error_matches_hand_computation() {
        let s = StabilitySeries::new(SECS, vec![100.0, 80.0]);
        let errs = s.relative_errors(SECS);
        // |80 - 100| / 80 = 0.25.
        assert_eq!(errs, vec![0.25]);
    }

    #[test]
    fn percentile_and_cdf_agree() {
        let vals = vec![3.0, 1.0, 2.0, 4.0];
        let mut v = vals.clone();
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
        let c = cdf(&vals);
        assert_eq!(c.first(), Some(&(1.0, 0.25)));
        assert_eq!(c.last(), Some(&(4.0, 1.0)));
        // CDF is non-decreasing in both coordinates.
        for w in c.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn sub_interval_tau_clamps_to_one_lag() {
        let s = StabilitySeries::new(10 * SECS, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.relative_errors(1).len(), 2, "lag clamps to 1 interval");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_rejected() {
        percentile(&mut [], 0.5);
    }

    #[test]
    fn empty_and_single_sample_series_yield_no_errors() {
        let empty = StabilitySeries::new(10 * SECS, vec![]);
        assert!(empty.relative_errors(10 * SECS).is_empty());
        // One sample has no predecessor at any lag.
        let one = StabilitySeries::new(10 * SECS, vec![1e9]);
        assert!(one.relative_errors(10 * SECS).is_empty());
        assert!(one.relative_errors(1).is_empty());
    }

    #[test]
    fn all_zero_samples_yield_no_errors_and_no_nans() {
        // λ_c = 0 would divide by zero; the cur > 0 filter must drop
        // those points instead of emitting NaN.
        let zeros = StabilitySeries::new(SECS, vec![0.0; 16]);
        assert!(zeros.relative_errors(SECS).is_empty());
        // Mixed zeros: only positive currents are scored, and a zero
        // predecessor gives a finite 100% error, never NaN or inf.
        let mixed = StabilitySeries::new(SECS, vec![0.0, 2.0, 0.0, 4.0]);
        let errs = mixed.relative_errors(SECS);
        assert_eq!(errs, vec![1.0, 1.0]);
        assert!(errs.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn tau_beyond_the_series_yields_no_errors() {
        // Lag 180 against 3 samples: nothing to predict from. The error
        // set is empty rather than panicking or wrapping — callers gate
        // on relative_errors directly.
        let s = StabilitySeries::new(10 * SECS, vec![1.0, 2.0, 3.0]);
        assert!(s.relative_errors(1800 * SECS).is_empty());
    }

    #[test]
    #[should_panic(expected = "shorter than lag")]
    fn mean_error_beyond_the_series_panics_loudly() {
        // mean_error's contract stays a loud panic, not a quiet NaN.
        StabilitySeries::new(10 * SECS, vec![1.0, 2.0]).mean_error(1800 * SECS);
    }
}
