//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one figure or inline result
//! from the paper and prints both the raw series (tab-separated, ready
//! for plotting) and a summary that can be compared against the
//! published numbers, printed beside it on a `# paper:` line.
//! Everything is seeded; running a binary twice produces identical
//! output.

use choreo_measure::stability::percentile;

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median (sorts a copy).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    percentile(&mut v, 0.5)
}

/// p-th percentile (sorts a copy).
pub fn pctile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    percentile(&mut v, p)
}

/// Largest value.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

/// Print an empirical CDF as `label \t value \t cdf` rows.
pub fn print_cdf(label: &str, values: &[f64], scale: f64) {
    for (v, frac) in choreo_measure::cdf(values) {
        println!("{label}\t{:.4}\t{frac:.4}", v * scale);
    }
}

/// Relative speed-up of `ours` against `theirs` in percent — positive
/// means Choreo is faster, matching the paper's definition
/// `(t_other − t_choreo)/t_other`.
pub fn speedup_pct(ours: f64, theirs: f64) -> f64 {
    assert!(theirs > 0.0);
    100.0 * (theirs - ours) / theirs
}

/// Summarize a set of per-application speed-ups the way §6.2/§6.3 do:
/// fraction improved, mean/median over all, mean/median over winners,
/// max, and the median slow-down among losers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupSummary {
    /// Fraction of applications with positive speed-up.
    pub frac_improved: f64,
    /// Mean speed-up over all applications, %.
    pub mean_all: f64,
    /// Median speed-up over all applications, %.
    pub median_all: f64,
    /// Mean over improved applications only, %.
    pub mean_winners: f64,
    /// Median over improved applications only, %.
    pub median_winners: f64,
    /// Best observed speed-up, %.
    pub max: f64,
    /// Median slow-down among regressions (positive number), %.
    pub median_loser_slowdown: f64,
}

impl SpeedupSummary {
    /// Compute from raw per-app speed-ups (percent).
    pub fn from(speedups: &[f64]) -> SpeedupSummary {
        assert!(!speedups.is_empty());
        let winners: Vec<f64> = speedups.iter().copied().filter(|s| *s > 0.0).collect();
        let losers: Vec<f64> = speedups.iter().copied().filter(|s| *s <= 0.0).map(|s| -s).collect();
        SpeedupSummary {
            frac_improved: winners.len() as f64 / speedups.len() as f64,
            mean_all: mean(speedups),
            median_all: median(speedups),
            mean_winners: if winners.is_empty() { 0.0 } else { mean(&winners) },
            median_winners: if winners.is_empty() { 0.0 } else { median(&winners) },
            max: max(speedups),
            median_loser_slowdown: if losers.is_empty() { 0.0 } else { median(&losers) },
        }
    }

    /// One-line report.
    pub fn print(&self, vs: &str) {
        println!(
            "summary vs {vs}: improved {:.0}% of apps | mean {:+.1}% median {:+.1}% | \
             winners mean {:.1}% median {:.1}% | max {:.1}% | losers' median slow-down {:.1}%",
            100.0 * self.frac_improved,
            self.mean_all,
            self.median_all,
            self.mean_winners,
            self.median_winners,
            self.max,
            self.median_loser_slowdown
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(median(&xs), 3.0); // nearest-rank at p=0.5
        assert_eq!(max(&xs), 4.0);
        assert_eq!(pctile(&xs, 0.0), 1.0);
    }

    #[test]
    fn speedup_sign_convention() {
        // Choreo 4 h vs baseline 5 h = +20% (the paper's example).
        assert!((speedup_pct(4.0, 5.0) - 20.0).abs() < 1e-12);
        assert!(speedup_pct(6.0, 5.0) < 0.0);
    }

    #[test]
    fn summary_partitions_winners_and_losers() {
        let s = SpeedupSummary::from(&[10.0, 30.0, -5.0, -15.0]);
        assert!((s.frac_improved - 0.5).abs() < 1e-12);
        assert_eq!(s.max, 30.0);
        assert_eq!(s.mean_winners, 20.0);
        assert_eq!(s.median_loser_slowdown, 15.0);
    }
}
