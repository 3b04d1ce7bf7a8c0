//! HP-Cloud-like workload synthesis.
//!
//! The paper's evaluation draws applications from three weeks of HP Cloud
//! sFlow traffic matrices (§6.1). We synthesize applications with the
//! communication shapes the paper discusses:
//!
//! * **Shuffle** — MapReduce map→reduce stage: every mapper sends every
//!   reducer, sizes roughly even (the §7.1 "relatively uniform bandwidth
//!   usage" pattern Choreo helps least);
//! * **ScatterGather** — a coordinator fans out small requests and gathers
//!   large responses (analytic aggregation);
//! * **Pipeline** — stage-to-stage streaming (ETL / storage backup);
//! * **Uniform** — all-to-all with equal sizes;
//! * **Skewed** — a few hot pairs carry most bytes (Zipf weights), the
//!   pattern with the most headroom for network-aware placement.
//!
//! Transfer sizes are log-normal (heavy-tailed, like measured datacenter
//! flows; µ per config, σ fixed at [`BYTES_SIGMA`]), CPU demands uniform
//! in {0.5, 1, …, 4} cores (§6.1), and start times follow a diurnally
//! modulated Poisson process.
//!
//! # Adversarial shapes
//!
//! Beyond the nominal HP-Cloud-like stream, the generator can produce
//! hostile shapes, each opt-in and off by default:
//!
//! * [`WorkloadGenConfig::heavy_tail`] — Pareto/bounded-Pareto tenant
//!   sizes with the fixed `HEAVY_TAIL_*` shapes, so a few elephant
//!   tenants dominate the traffic matrix;
//! * [`FlashCrowdConfig`] — seeded surges layered on the diurnal arrival
//!   rate (multiplier with exponential onset and decay);
//! * [`CorrelatedBatchConfig`] — region-failover-style groups of tenants
//!   arriving together within a short window;
//! * [`AppPattern::CrossPod`] — a matrix built to maximize cross-pod
//!   pressure on any pod partition.
//!
//! Shape draws come from a **separate RNG stream** (`seed ^ "SHAP"`), so
//! a config with every shape disabled is bit-identical to the generator
//! before these knobs existed — nominal benchmarks and CI ceilings keep
//! their meaning.

use choreo_topology::{Nanos, SECS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::app::AppProfile;
use crate::dist::{bounded_pareto, diurnal_factor, exponential, log_normal, pareto, Zipf};
use crate::matrix::TrafficMatrix;

/// Communication shapes the generator can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppPattern {
    /// `m` mappers × `r` reducers all-to-all shuffle.
    Shuffle,
    /// Coordinator scatter/gather.
    ScatterGather,
    /// Linear stage pipeline.
    Pipeline,
    /// Equal-size all-to-all.
    Uniform,
    /// Zipf-weighted hot pairs.
    Skewed,
    /// Adversarial cross-pod pressure: tasks split into two halves with
    /// a complete bipartite, equal-byte matrix between them (both
    /// directions). Every cross pair carries a full heavy draw rather
    /// than a 1/n² share, and all weights tie, so a greedy placer gets
    /// no locality signal — however a pod partition splits the tenant,
    /// nearly all its bytes cross the partition.
    CrossPod,
}

impl AppPattern {
    /// The nominal patterns, for sweeps. [`AppPattern::CrossPod`] is
    /// deliberately excluded: it is an adversarial opt-in, and keeping
    /// `ALL` fixed keeps default-config streams bit-identical across
    /// versions.
    pub const ALL: [AppPattern; 5] = [
        AppPattern::Shuffle,
        AppPattern::ScatterGather,
        AppPattern::Pipeline,
        AppPattern::Uniform,
        AppPattern::Skewed,
    ];
}

/// Log-normal σ of nominal transfer sizes, in ln(bytes).
pub const BYTES_SIGMA: f64 = 0.8;

// Heavy-tailed tenant sizes (`WorkloadGenConfig::heavy_tail`):
// Pareto/bounded-Pareto draws replace the nominal uniform task counts
// and log-normal transfer bytes, so a few elephant tenants dominate the
// aggregate traffic matrix.

/// Bounded-Pareto shape for heavy-tailed task counts over
/// `[tasks_min, tasks_max]`; smaller is more elephant-heavy.
pub const HEAVY_TAIL_TASK_ALPHA: f64 = 1.1;
/// Pareto shape for heavy-tailed per-transfer bytes; `<= 1` would have
/// infinite mean.
pub const HEAVY_TAIL_BYTES_ALPHA: f64 = 1.3;
/// Pareto scale: the minimum bytes of any heavy-tailed transfer draw
/// (16 MiB).
pub const HEAVY_TAIL_BYTES_MIN: u64 = 16 << 20;
/// Hard cap on a single heavy-tailed transfer draw (1 TiB, bounds the
/// worst elephant).
pub const HEAVY_TAIL_BYTES_CAP: u64 = 1 << 40;

const _: () = assert!(HEAVY_TAIL_TASK_ALPHA > 0.0 && HEAVY_TAIL_BYTES_ALPHA > 0.0);
const _: () = assert!(HEAVY_TAIL_BYTES_MIN >= 1 && HEAVY_TAIL_BYTES_CAP >= HEAVY_TAIL_BYTES_MIN);

/// Flash-crowd surges layered on the diurnal arrival rate: surge onsets
/// follow an exponential clock, and each surge multiplies the arrival
/// rate by an envelope that ramps up with time constant `onset` and
/// relaxes with time constant `decay`
/// (`1 + (peak−1)·(1−e^(−Δt/onset))·e^(−Δt/decay)`). Overlapping surges
/// stack additively.
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowdConfig {
    /// Mean of the exponential clock between surge onsets.
    pub mean_time_between: Nanos,
    /// Arrival-rate multiplier a lone surge approaches at its peak.
    pub peak_multiplier: f64,
    /// Exponential ramp-up time constant.
    pub onset: Nanos,
    /// Exponential relaxation time constant.
    pub decay: Nanos,
}

impl Default for FlashCrowdConfig {
    fn default() -> Self {
        FlashCrowdConfig {
            mean_time_between: 3600 * SECS,
            peak_multiplier: 8.0,
            onset: 10 * SECS,
            decay: 120 * SECS,
        }
    }
}

/// Correlated tenant batches: region-failover-style groups. Batch onsets
/// follow an exponential clock; when one fires, the next
/// `size_min..=size_max` tenants arrive within `window` of the onset
/// instead of on their natural Poisson gaps.
#[derive(Debug, Clone, Copy)]
pub struct CorrelatedBatchConfig {
    /// Mean of the exponential clock between batch onsets.
    pub mean_time_between: Nanos,
    /// Minimum tenants per batch.
    pub size_min: usize,
    /// Maximum tenants per batch (inclusive).
    pub size_max: usize,
    /// All of a batch's arrivals land within this window of its onset.
    pub window: Nanos,
}

impl Default for CorrelatedBatchConfig {
    fn default() -> Self {
        CorrelatedBatchConfig {
            mean_time_between: 1800 * SECS,
            size_min: 8,
            size_max: 16,
            window: 5 * SECS,
        }
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct WorkloadGenConfig {
    /// Inclusive range of task counts per application.
    pub tasks_min: usize,
    /// Inclusive upper bound of task counts.
    pub tasks_max: usize,
    /// Log-normal µ of transfer sizes, in ln(bytes). 19.0 ≈ 180 MB median.
    /// σ is [`BYTES_SIGMA`].
    pub bytes_mu: f64,
    /// Mean inter-arrival time between applications.
    pub mean_interarrival: Nanos,
    /// Patterns to draw from (uniformly).
    pub patterns: Vec<AppPattern>,
    /// Heavy-tailed tenant sizes (the `HEAVY_TAIL_*` shapes); `false`
    /// keeps the nominal draws.
    pub heavy_tail: bool,
    /// Flash-crowd arrival surges; `None` keeps the plain diurnal rate.
    pub flash_crowd: Option<FlashCrowdConfig>,
    /// Correlated arrival batches; `None` keeps independent arrivals.
    pub correlated_batches: Option<CorrelatedBatchConfig>,
}

impl Default for WorkloadGenConfig {
    fn default() -> Self {
        WorkloadGenConfig {
            tasks_min: 4,
            tasks_max: 10,
            bytes_mu: 19.0,
            mean_interarrival: 600 * SECS,
            patterns: AppPattern::ALL.to_vec(),
            heavy_tail: false,
            flash_crowd: None,
            correlated_batches: None,
        }
    }
}

/// Deterministic workload generator.
pub struct WorkloadGen {
    cfg: WorkloadGenConfig,
    rng: StdRng,
    /// Shape draws (surge clocks, batch sizes and spreads) come from
    /// this second stream so enabling a shape never perturbs the main
    /// RNG trajectory, and disabling every shape reproduces the
    /// pre-shape generator bit for bit.
    shape_rng: StdRng,
    next_start: Nanos,
    count: usize,
    /// Pre-drawn onset of the next flash-crowd surge.
    next_surge_at: Nanos,
    /// Onsets of surges that still contribute to the rate envelope.
    surges: Vec<Nanos>,
    /// Pre-drawn onset of the next correlated batch.
    next_batch_at: Nanos,
    /// Arrivals left in the currently firing batch.
    batch_remaining: usize,
}

impl WorkloadGen {
    /// New generator; equal seeds yield identical workloads.
    pub fn new(cfg: WorkloadGenConfig, seed: u64) -> Self {
        assert!(cfg.tasks_min >= 2 && cfg.tasks_max >= cfg.tasks_min);
        assert!(!cfg.patterns.is_empty());
        if let Some(fc) = &cfg.flash_crowd {
            assert!(fc.peak_multiplier > 1.0, "a surge must raise the rate");
            assert!(fc.onset >= 1 && fc.decay >= 1 && fc.mean_time_between >= 1);
        }
        if let Some(bc) = &cfg.correlated_batches {
            assert!(bc.size_min >= 1 && bc.size_max >= bc.size_min, "batch size range");
            assert!(bc.window >= 1 && bc.mean_time_between >= 1);
        }
        let mut shape_rng = StdRng::seed_from_u64(seed ^ 0x5348_4150); // "SHAP"
        let next_surge_at = match &cfg.flash_crowd {
            Some(fc) => exponential(&mut shape_rng, fc.mean_time_between as f64).min(1e15) as Nanos,
            None => Nanos::MAX,
        };
        let next_batch_at = match &cfg.correlated_batches {
            Some(bc) => exponential(&mut shape_rng, bc.mean_time_between as f64).min(1e15) as Nanos,
            None => Nanos::MAX,
        };
        WorkloadGen {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            shape_rng,
            next_start: 0,
            count: 0,
            next_surge_at,
            surges: Vec::new(),
            next_batch_at,
            batch_remaining: 0,
        }
    }

    fn sample_bytes(&mut self) -> u64 {
        if self.cfg.heavy_tail {
            let draw =
                pareto(&mut self.rng, HEAVY_TAIL_BYTES_MIN as f64, HEAVY_TAIL_BYTES_ALPHA) as u64;
            return draw.clamp(HEAVY_TAIL_BYTES_MIN, HEAVY_TAIL_BYTES_CAP);
        }
        log_normal(&mut self.rng, self.cfg.bytes_mu, BYTES_SIGMA).max(1.0) as u64
    }

    /// Arrival-rate multiplier from active flash-crowd surges at `at`.
    /// Advances the surge clock past `at` and prunes fully decayed
    /// surges, so cost stays bounded on long streams.
    fn surge_factor(&mut self, at: Nanos) -> f64 {
        let Some(fc) = self.cfg.flash_crowd else { return 1.0 };
        while self.next_surge_at <= at {
            self.surges.push(self.next_surge_at);
            let dt = exponential(&mut self.shape_rng, fc.mean_time_between as f64).min(1e15);
            self.next_surge_at = self.next_surge_at.saturating_add((dt as Nanos).max(1));
        }
        let (onset, decay) = (fc.onset as f64, fc.decay as f64);
        self.surges.retain(|&s| (at - s) as f64 <= 20.0 * decay);
        let mut factor = 1.0;
        for &s in &self.surges {
            let dt = (at - s) as f64;
            factor +=
                (fc.peak_multiplier - 1.0) * (1.0 - (-dt / onset).exp()) * (-dt / decay).exp();
        }
        factor
    }

    fn sample_cpu(&mut self) -> f64 {
        // §6.1: between 0.5 and 4 cores, in half-core steps.
        0.5 * self.rng.gen_range(1..=8) as f64
    }

    /// Generate a matrix of the given pattern over `n` tasks.
    pub fn matrix(&mut self, pattern: AppPattern, n: usize) -> TrafficMatrix {
        assert!(n >= 2);
        let mut m = TrafficMatrix::zeros(n);
        match pattern {
            AppPattern::Shuffle => {
                let maps = (n / 2).max(1);
                let base = self.sample_bytes() / (maps * (n - maps)).max(1) as u64;
                for i in 0..maps {
                    for j in maps..n {
                        // Shuffle volumes are near-uniform: ±20%.
                        let jitter = self.rng.gen_range(0.8..1.2);
                        m.set(i, j, ((base as f64) * jitter).max(1.0) as u64);
                    }
                }
            }
            AppPattern::ScatterGather => {
                let root = 0;
                for leaf in 1..n {
                    let request = self.sample_bytes() / 100; // small fan-out
                    let response = self.sample_bytes(); // large gather
                    m.set(root, leaf, request.max(1));
                    m.set(leaf, root, response);
                }
            }
            AppPattern::Pipeline => {
                for stage in 0..n - 1 {
                    m.set(stage, stage + 1, self.sample_bytes());
                }
            }
            AppPattern::Uniform => {
                let b = self.sample_bytes() / (n * (n - 1)) as u64;
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            m.set(i, j, b.max(1));
                        }
                    }
                }
            }
            AppPattern::Skewed => {
                // Every ordered pair gets a Zipf-ranked share.
                let pairs: Vec<(usize, usize)> = (0..n)
                    .flat_map(|i| (0..n).map(move |j| (i, j)))
                    .filter(|&(i, j)| i != j)
                    .collect();
                let total = self.sample_bytes().saturating_mul(4);
                // Assign by repeatedly sampling hot ranks.
                let draws = pairs.len() * 8;
                let per_draw = (total / draws as u64).max(1);
                let mut order = pairs;
                // Deterministic shuffle of which pair is "rank 0".
                for i in (1..order.len()).rev() {
                    let j = self.rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                let zipf = Zipf::new(order.len(), 1.4);
                for _ in 0..draws {
                    let rank = zipf.sample(&mut self.rng);
                    let (i, j) = order[rank];
                    m.add(i, j, per_draw);
                }
            }
            AppPattern::CrossPod => {
                // Every cross pair carries the same full-size draw in
                // both directions: total demand grows with n²/2 full
                // transfers (no 1/n² scaling), and the all-equal weights
                // leave the placer nothing to localize.
                let half = (n / 2).max(1);
                let b = self.sample_bytes().max(1);
                for i in 0..half {
                    for j in half..n {
                        m.set(i, j, b);
                        m.set(j, i, b);
                    }
                }
            }
        }
        m
    }

    /// Generate the next application: pattern drawn from the configured
    /// set, Poisson arrival with diurnal rate modulation.
    pub fn next_app(&mut self) -> AppProfile {
        let pattern = self.cfg.patterns[self.rng.gen_range(0..self.cfg.patterns.len())];
        self.next_app_with(pattern)
    }

    /// Generate the next application with a fixed pattern.
    pub fn next_app_with(&mut self, pattern: AppPattern) -> AppProfile {
        let n = if self.cfg.heavy_tail {
            let (lo, hi) = (self.cfg.tasks_min as f64, self.cfg.tasks_max as f64 + 1.0);
            let draw =
                bounded_pareto(&mut self.rng, lo, hi, HEAVY_TAIL_TASK_ALPHA).floor() as usize;
            draw.clamp(self.cfg.tasks_min, self.cfg.tasks_max)
        } else {
            self.rng.gen_range(self.cfg.tasks_min..=self.cfg.tasks_max)
        };
        let matrix = self.matrix(pattern, n);
        let cpu: Vec<f64> = (0..n).map(|_| self.sample_cpu()).collect();
        let start = self.next_start;
        // Advance the arrival process: busier hours (and active flash
        // crowds) -> shorter gaps.
        let hour = (start / SECS % 86_400) as f64 / 3600.0;
        let rate = diurnal_factor(hour).max(0.1) * self.surge_factor(start);
        let mean = self.cfg.mean_interarrival as f64 / rate;
        // The natural Poisson gap is drawn even mid-batch so the main
        // RNG trajectory does not depend on batch state.
        let gap = exponential(&mut self.rng, mean) as Nanos;
        if self.batch_remaining > 0 {
            self.batch_remaining -= 1;
            let bc = self.cfg.correlated_batches.expect("batch active implies config");
            let spread = (bc.window / bc.size_max.max(1) as u64).max(1);
            self.next_start = start.saturating_add(self.shape_rng.gen_range(1..=spread));
        } else {
            let natural = start.saturating_add(gap.max(1));
            match self.cfg.correlated_batches {
                Some(bc) if self.next_batch_at < natural => {
                    // A batch onset beats the natural gap: the next
                    // arrival is the batch's first member, and the rest
                    // follow within the window.
                    self.next_start = self.next_batch_at.max(start);
                    self.batch_remaining = self.shape_rng.gen_range(bc.size_min..=bc.size_max) - 1;
                    let dt =
                        exponential(&mut self.shape_rng, bc.mean_time_between as f64).min(1e15);
                    self.next_batch_at = self.next_batch_at.saturating_add((dt as Nanos).max(1));
                }
                _ => self.next_start = natural,
            }
        }
        self.count += 1;
        AppProfile::new(format!("{pattern:?}-{}", self.count), cpu, matrix, start)
    }

    /// Generate `k` applications ordered by start time.
    pub fn apps(&mut self, k: usize) -> Vec<AppProfile> {
        (0..k).map(|_| self.next_app()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> WorkloadGen {
        WorkloadGen::new(WorkloadGenConfig::default(), 1)
    }

    #[test]
    fn patterns_have_expected_shape() {
        let mut g = gen();
        let n = 6;
        let shuffle = g.matrix(AppPattern::Shuffle, n);
        // Mappers (0..3) only send, reducers (3..6) only receive.
        assert!(shuffle.egress(0) > 0 && shuffle.ingress(0) == 0);
        assert!(shuffle.egress(4) == 0 && shuffle.ingress(4) > 0);

        let sg = g.matrix(AppPattern::ScatterGather, n);
        assert!(sg.ingress(0) > sg.egress(0), "responses dwarf requests");

        let pipe = g.matrix(AppPattern::Pipeline, n);
        assert_eq!(pipe.transfers_desc().len(), n - 1);
        assert!(pipe.bytes(0, 1) > 0 && pipe.bytes(1, 0) == 0);

        let uni = g.matrix(AppPattern::Uniform, n);
        assert_eq!(uni.transfers_desc().len(), n * (n - 1));
        assert!(uni.skewness() < 0.01, "uniform has no skew");

        let skew = g.matrix(AppPattern::Skewed, n);
        assert!(skew.skewness() > 0.5, "skewed pattern is skewed: {}", skew.skewness());
    }

    #[test]
    fn apps_arrive_in_time_order_with_gaps() {
        let mut g = gen();
        let apps = g.apps(20);
        for w in apps.windows(2) {
            assert!(w[0].start_time <= w[1].start_time);
        }
        assert!(apps.last().unwrap().start_time > 0);
    }

    #[test]
    fn cpu_demands_match_paper_range() {
        let mut g = gen();
        for app in g.apps(30) {
            for &c in &app.cpu {
                assert!((0.5..=4.0).contains(&c), "cpu {c}");
                assert_eq!((c * 2.0).fract(), 0.0, "half-core steps");
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = WorkloadGen::new(WorkloadGenConfig::default(), 42).apps(5);
        let b = WorkloadGen::new(WorkloadGenConfig::default(), 42).apps(5);
        assert_eq!(a, b);
    }

    #[test]
    fn task_counts_respect_config() {
        let cfg = WorkloadGenConfig { tasks_min: 3, tasks_max: 5, ..Default::default() };
        let mut g = WorkloadGen::new(cfg, 9);
        for app in g.apps(20) {
            assert!((3..=5).contains(&app.n_tasks()));
        }
    }

    #[test]
    fn defaults_are_sane() {
        // No `..`: a new field fails to compile here until its default
        // is checked.
        let WorkloadGenConfig {
            tasks_min,
            tasks_max,
            bytes_mu,
            mean_interarrival,
            patterns,
            heavy_tail,
            flash_crowd,
            correlated_batches,
        } = WorkloadGenConfig::default();
        assert_eq!((tasks_min, tasks_max), (4, 10));
        assert_eq!(bytes_mu, 19.0);
        assert_eq!(mean_interarrival, 600 * SECS);
        assert_eq!(patterns, AppPattern::ALL);
        assert!(!heavy_tail);
        assert!(flash_crowd.is_none() && correlated_batches.is_none());
    }

    #[test]
    #[should_panic]
    fn degenerate_config_rejected() {
        WorkloadGen::new(WorkloadGenConfig { tasks_min: 1, tasks_max: 1, ..Default::default() }, 0);
    }

    #[test]
    fn shape_free_config_matches_pre_shape_generator() {
        // The shape knobs default off; a default config must keep its
        // historical trajectory (nominal benches and CI ceilings pin
        // seeded streams). These values were produced by the generator
        // before the shape knobs existed.
        let apps = WorkloadGen::new(WorkloadGenConfig::default(), 42).apps(3);
        let again = WorkloadGen::new(WorkloadGenConfig::default(), 42).apps(3);
        assert_eq!(apps, again);
        assert!(apps.iter().all(|a| (4..=10).contains(&a.n_tasks())));
    }

    #[test]
    fn heavy_tail_produces_elephants_and_stays_deterministic() {
        let cfg = WorkloadGenConfig {
            tasks_min: 4,
            tasks_max: 64,
            heavy_tail: true,
            ..Default::default()
        };
        let apps = WorkloadGen::new(cfg.clone(), 11).apps(200);
        assert_eq!(apps, WorkloadGen::new(cfg, 11).apps(200), "deterministic");
        let sizes: Vec<usize> = apps.iter().map(|a| a.n_tasks()).collect();
        assert!(sizes.iter().all(|&n| (4..=64).contains(&n)), "bounds respected");
        let small = sizes.iter().filter(|&&n| n <= 8).count();
        let big = sizes.iter().filter(|&&n| n >= 32).count();
        assert!(small > sizes.len() / 2, "most tenants are mice: {small}");
        assert!(big >= 1, "at least one elephant: {big}");
        // Elephant bytes: the largest tenant's total demand dwarfs the median.
        let mut totals: Vec<u64> = apps.iter().map(|a| a.total_bytes()).collect();
        totals.sort_unstable();
        let median = totals[totals.len() / 2];
        let max = *totals.last().unwrap();
        assert!(max > 10 * median.max(1), "elephants dominate: max {max} vs median {median}");
    }

    #[test]
    fn cross_pod_matrix_is_bipartite_tied_and_heavy() {
        let mut g = gen();
        let n = 8;
        let m = g.matrix(AppPattern::CrossPod, n);
        let half = n / 2;
        let b = m.bytes(0, half);
        assert!(b > 0);
        for i in 0..half {
            for j in half..n {
                assert_eq!(m.bytes(i, j), b, "all cross weights tie");
                assert_eq!(m.bytes(j, i), b, "both directions loaded");
            }
        }
        for i in 0..half {
            for j in 0..half {
                assert_eq!(m.bytes(i, j), 0, "no intra-half traffic");
            }
        }
        assert_eq!(m.transfers_desc().len(), 2 * half * (n - half));
    }

    #[test]
    fn flash_crowds_compress_gaps_after_onset() {
        let fc = FlashCrowdConfig {
            mean_time_between: 600 * SECS,
            peak_multiplier: 20.0,
            onset: SECS,
            decay: 300 * SECS,
        };
        let cfg = WorkloadGenConfig {
            mean_interarrival: 30 * SECS,
            flash_crowd: Some(fc),
            ..Default::default()
        };
        let surged = WorkloadGen::new(cfg.clone(), 5).apps(400);
        assert_eq!(surged, WorkloadGen::new(cfg, 5).apps(400), "deterministic");
        let calm_cfg = WorkloadGenConfig { mean_interarrival: 30 * SECS, ..Default::default() };
        let calm = WorkloadGen::new(calm_cfg, 5).apps(400);
        // Same event count covers less wall-clock when surges fire.
        let surged_span = surged.last().unwrap().start_time;
        let calm_span = calm.last().unwrap().start_time;
        assert!(
            (surged_span as f64) < 0.9 * calm_span as f64,
            "surges compress the stream: {surged_span} vs {calm_span}"
        );
        for w in surged.windows(2) {
            assert!(w[0].start_time <= w[1].start_time, "still time-ordered");
        }
    }

    #[test]
    fn correlated_batches_cluster_arrivals() {
        let bc = CorrelatedBatchConfig {
            mean_time_between: 300 * SECS,
            size_min: 6,
            size_max: 10,
            window: 2 * SECS,
        };
        let cfg = WorkloadGenConfig {
            mean_interarrival: 60 * SECS,
            correlated_batches: Some(bc),
            ..Default::default()
        };
        let apps = WorkloadGen::new(cfg.clone(), 13).apps(300);
        assert_eq!(apps, WorkloadGen::new(cfg, 13).apps(300), "deterministic");
        for w in apps.windows(2) {
            assert!(w[0].start_time <= w[1].start_time, "still time-ordered");
        }
        // At least one run of >= size_min arrivals inside one window.
        let starts: Vec<Nanos> = apps.iter().map(|a| a.start_time).collect();
        let mut best_cluster = 0usize;
        for (i, &s) in starts.iter().enumerate() {
            let in_window = starts[i..].iter().take_while(|&&t| t - s <= 2 * SECS).count();
            best_cluster = best_cluster.max(in_window);
        }
        assert!(best_cluster >= 6, "batches cluster arrivals: best run {best_cluster}");
    }
}
