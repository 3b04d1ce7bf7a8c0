//! Distribution samplers built on `rand` (no external distribution crate
//! is used: the build is offline, and `vendor/` holds the only stand-ins).

use rand::Rng;

/// Standard normal via Box–Muller.
pub fn std_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    (-2.0 * u1.ln()).sqrt() * u2.cos()
}

/// Normal with mean and standard deviation.
pub fn normal<R: Rng>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * std_normal(rng)
}

/// Log-normal: `exp(N(mu, sigma))` — heavy-tailed transfer sizes.
pub fn log_normal<R: Rng>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Exponential with the given mean (inverse CDF).
pub fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..=1.0);
    -mean * u.ln()
}

/// Pareto with scale `x_m` (the minimum) and shape `alpha` (inverse CDF).
/// Smaller `alpha` means a heavier tail; `alpha <= 1` has infinite mean.
pub fn pareto<R: Rng>(rng: &mut R, scale: f64, alpha: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    scale / u.powf(1.0 / alpha)
}

/// Bounded Pareto on `[lo, hi]` with shape `alpha` (inverse CDF): the
/// heavy tail of [`pareto`] truncated to a finite support, so elephant
/// draws dominate without escaping the configured range.
pub fn bounded_pareto<R: Rng>(rng: &mut R, lo: f64, hi: f64, alpha: f64) -> f64 {
    assert!(0.0 < lo && lo <= hi, "bounds must satisfy 0 < lo <= hi");
    if lo == hi {
        return lo;
    }
    let u: f64 = rng.gen_range(0.0..1.0);
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
}

/// Zipf-like rank sampler over `{0, …, n−1}` with exponent `s`: rank 0
/// is the most likely. Used for skewed traffic matrices.
///
/// The weight table `1/k^s` and its sum are built once, in [`Zipf::new`],
/// and every [`Zipf::sample`] reuses them: a skewed matrix makes
/// `8·n(n−1)` draws over the same table. A draw scans the table,
/// subtracting one weight at a time, and does not binary-search a
/// prefix-sum table: `draw < w_i` after the subtractions is not bit-equal
/// to `draw < Σ_{j≤i} w_j`, so a prefix sum would shift some ranks and
/// every seeded stream built on them.
#[derive(Debug)]
pub struct Zipf {
    weights: Vec<f64>,
    total: f64,
}

impl Zipf {
    /// The table over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1);
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total = weights.iter().sum();
        Zipf { weights, total }
    }

    /// One rank; makes exactly one `gen_range` draw from `rng`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let mut draw = rng.gen_range(0.0..self.total);
        for (i, w) in self.weights.iter().enumerate() {
            if draw < *w {
                return i;
            }
            draw -= w;
        }
        self.weights.len() - 1
    }
}

/// Diurnal modulation factor for an hour-of-day in `0..24`: a smooth
/// day/night cycle peaking mid-day, averaging ≈1. Cloud application
/// traffic in the HP dataset is time-of-day predictable (§2.1).
pub fn diurnal_factor(hour_of_day: f64) -> f64 {
    // Peak at 14:00, trough at 02:00, amplitude 0.6.
    1.0 + 0.6 * (std::f64::consts::TAU * (hour_of_day - 8.0) / 24.0).sin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn normal_mean_and_sd_converge() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn log_normal_is_positive_and_heavy_tailed() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| log_normal(&mut r, 0.0, 1.5)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        assert!(mean > 2.0 * median, "heavy tail: mean {mean} vs median {median}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| exponential(&mut r, 5.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn pareto_is_heavy_tailed_above_scale() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| pareto(&mut r, 2.0, 1.2)).collect();
        assert!(xs.iter().all(|&x| x >= 2.0), "never below the scale");
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        assert!(mean > 2.0 * median, "heavy tail: mean {mean} vs median {median}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds_and_skews_low() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| bounded_pareto(&mut r, 4.0, 64.0, 1.1)).collect();
        assert!(xs.iter().all(|&x| (4.0..=64.0).contains(&x)), "support respected");
        // Most mass sits near the lower bound, but the tail is reached.
        let small = xs.iter().filter(|&&x| x < 8.0).count();
        let large = xs.iter().filter(|&&x| x > 32.0).count();
        assert!(small > xs.len() / 2, "mass near lo: {small}");
        assert!(large > 0, "tail reached: {large}");
    }

    #[test]
    fn zipf_rank_zero_most_common() {
        let mut r = rng();
        let zipf = Zipf::new(5, 1.2);
        let mut counts = [0usize; 5];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
    }

    /// The sampler as it was before the table was hoisted: the weights
    /// and their sum rebuilt on every draw.
    fn zipf_rebuilt_per_draw<R: Rng>(rng: &mut R, n: usize, s: f64) -> usize {
        assert!(n >= 1);
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut draw = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if draw < *w {
                return i;
            }
            draw -= w;
        }
        n - 1
    }

    #[test]
    fn zipf_table_matches_rebuild_per_draw() {
        for n in 1..=64 {
            for s in [0.5, 1.2, 1.4, 2.0] {
                let zipf = Zipf::new(n, s);
                for seed in [1, 7_000, 0x9E37_79B9] {
                    let mut a = rand::rngs::StdRng::seed_from_u64(seed ^ n as u64);
                    let mut b = a.clone();
                    for k in 0..1_000 {
                        let want = zipf_rebuilt_per_draw(&mut a, n, s);
                        assert_eq!(
                            zipf.sample(&mut b),
                            want,
                            "n {n}, s {s}, seed {seed}, draw {k}"
                        );
                    }
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rng state, n {n}, s {s}");
                }
            }
        }
    }

    /// Replays scripted raw words, so a draw can be put on a rank boundary.
    struct Words(std::vec::IntoIter<u64>);

    impl Rng for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("a scripted word per draw")
        }
    }

    /// Seeded draws almost never land within an ulp of a rank boundary,
    /// where a `<=` for `<` or a total summed in another order flips the
    /// rank. Word `k << 11` is the unit value `k / 2^53` in `rand`, so
    /// these draws sit on the nine unit values nearest every boundary
    /// (exactly on it for `s = 0` and `n` a power of two).
    #[test]
    fn zipf_table_matches_rebuild_per_draw_at_rank_boundaries() {
        const UNIT: f64 = (1u64 << 53) as f64;
        for n in 1..=64 {
            for s in [0.0, 0.5, 1.2, 1.4, 2.0] {
                let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
                let total: f64 = weights.iter().sum();
                let mut words = Vec::new();
                let mut edge = 0.0;
                for w in &weights {
                    edge += w;
                    let k0 = (edge / total * UNIT) as i64;
                    for k in k0 - 4..=k0 + 4 {
                        words.push((k.clamp(0, UNIT as i64 - 1) as u64) << 11);
                    }
                }
                let zipf = Zipf::new(n, s);
                let (mut a, mut b) = (Words(words.clone().into_iter()), Words(words.into_iter()));
                for draw in 0..n * 9 {
                    let want = zipf_rebuilt_per_draw(&mut a, n, s);
                    assert_eq!(zipf.sample(&mut b), want, "n {n}, s {s}, boundary draw {draw}");
                }
            }
        }
    }

    #[test]
    fn diurnal_peaks_afternoon() {
        assert!(diurnal_factor(14.0) > 1.4);
        assert!(diurnal_factor(2.0) < 0.6);
        // Daily average ≈ 1.
        let avg: f64 = (0..24).map(|h| diurnal_factor(h as f64)).sum::<f64>() / 24.0;
        assert!((avg - 1.0).abs() < 0.05, "avg {avg}");
    }
}
