//! Order statistics over a run's samples.

/// The `q`-quantile (0..=1) of `sorted`, linearly interpolated between
/// the two nearest ranks. Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// What a report keeps of one metric's repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Third quartile minus first quartile.
    pub iqr: f64,
    pub samples: Vec<f64>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        median: percentile_sorted(&s, 0.5),
        min: s[0],
        max: s[s.len() - 1],
        iqr: percentile_sorted(&s, 0.75) - percentile_sorted(&s, 0.25),
        samples: values.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 100.0);
    }

    #[test]
    fn summary_carries_spread_and_raw_values() {
        let s = summarize(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!((s.median, s.min, s.max), (30.0, 10.0, 50.0));
        assert_eq!(s.iqr, 20.0);
        assert_eq!(s.samples, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
    }
}
