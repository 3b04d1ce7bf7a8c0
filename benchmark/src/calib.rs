//! Cancelling the machine's own noise with a reference computation.
//!
//! On a shared box the same instructions take up to half as long again
//! for seconds at a time, whenever a neighbour is busy. A timed loop
//! therefore stops every [`SEGMENT`] requests to run one fixed unit of
//! benchmark-owned work (a *tick*, ~18 us) of the same kind as the
//! program's hot loop: for each of 1 024 flows, gather six resources and
//! take the minimum of capacity over sharers, over 76 KB it first pulls
//! back into cache by running the unit once untimed. Measured on this box, a child's run time
//! follows its mean tick time with slope 1.04 (dependent arithmetic or
//! pointer chasing alone follow it far less well). The fastest ticks of
//! a pass show the machine undisturbed; a segment whose neighbouring
//! ticks ran slower than that by some factor has its time divided by the
//! same factor. What is reported is the time the pass would have taken
//! had the machine stayed quiet; the raw time is reported beside it. A
//! pass that never saw the machine quiet cannot know it; the parent
//! brings each child the rest of the way to the fastest quiet tick any
//! child of the run reported (a constant of the hardware: 17.98 us here
//! in 17 of 18 children).

use std::hint::black_box;
use std::time::Instant;

/// Requests between two ticks: ~8 ms of work at 65 us a request, far
/// below the seconds a slow spell lasts, for 0.3% of the time spent.
pub const SEGMENT: usize = 128;

/// Resources and flows of the reference computation: 64 KB of state and
/// 12 KB of paths, resident in L2 like the solver's own arrays.
const RESOURCES: usize = 4096;
const FLOWS: usize = 1024;
const HOPS: usize = 6;

pub struct Calibrator {
    capacity: Vec<f64>,
    sharers: Vec<f64>,
    paths: Vec<[u16; HOPS]>,
    /// When each tick started and ended.
    ticks: Vec<(Instant, Instant)>,
}

impl Calibrator {
    pub fn new(expected_requests: usize) -> Calibrator {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % RESOURCES as u64) as u16
        };
        Calibrator {
            capacity: (0..RESOURCES).map(|i| 1e9 + i as f64).collect(),
            sharers: (0..RESOURCES).map(|i| 1.0 + (i % 7) as f64).collect(),
            paths: (0..FLOWS).map(|_| std::array::from_fn(|_| draw())).collect(),
            ticks: Vec::with_capacity(expected_requests / SEGMENT + 2),
        }
    }

    /// One unit of reference work.
    #[inline(never)]
    fn unit(&mut self) {
        let mut total = 0.0;
        for _ in 0..2 {
            for path in &self.paths {
                let mut rate = f64::INFINITY;
                for &hop in path {
                    rate = rate.min(self.capacity[hop as usize] / self.sharers[hop as usize]);
                }
                total += rate;
                self.capacity[path[0] as usize] -= 1e-3;
            }
        }
        black_box(total);
    }

    /// Run the unit twice and record how long the second took. The first
    /// pulls the unit's memory back into cache and the core back up to
    /// speed: how far the program evicted the one and idled the other is
    /// the program's doing, not the machine's.
    pub fn tick(&mut self) {
        self.unit();
        let start = Instant::now();
        self.unit();
        self.ticks.push((start, Instant::now()));
    }

    /// Close the pass. Ticks must bracket every segment: one before the
    /// first request, one after the last.
    pub fn finish(self) -> Quiet {
        assert!(self.ticks.len() >= 2, "a pass has at least one segment between two ticks");
        let tick_ns: Vec<f64> =
            self.ticks.iter().map(|(a, b)| (*b - *a).as_nanos() as f64).collect();
        let mut sorted = tick_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        // Not the single fastest tick, which may be a fluke.
        let quiet_tick = sorted[sorted.len() / 20];
        let mut factors = Vec::with_capacity(self.ticks.len() - 1);
        let (mut raw_ns, mut quiet_ns) = (0.0, 0.0);
        for k in 0..self.ticks.len() - 1 {
            let around = (tick_ns[k] + tick_ns[k + 1]) / 2.0;
            let factor = (quiet_tick / around).min(1.0);
            let segment_ns = (self.ticks[k + 1].0 - self.ticks[k].1).as_nanos() as f64;
            raw_ns += segment_ns;
            quiet_ns += segment_ns * factor;
            factors.push(factor);
        }
        Quiet {
            quiet_tick_ns: quiet_tick,
            factors,
            raw_s: raw_ns / 1e9,
            quiet_s: quiet_ns / 1e9,
            ticks_ns: tick_ns.iter().sum::<f64>() as u64,
        }
    }
}

/// What a calibrated pass knows about the machine while it ran.
pub struct Quiet {
    /// How long a tick takes on the undisturbed machine, as far as this
    /// pass saw it: the fastest twentieth of its ticks.
    pub quiet_tick_ns: f64,
    /// Per segment: the share of its raw time it would have taken on the
    /// quiet machine (at most 1).
    pub factors: Vec<f64>,
    /// Time inside the segments (ticks excluded), as measured and with
    /// each segment scaled by its factor.
    pub raw_s: f64,
    pub quiet_s: f64,
    /// Time inside the ticks themselves, all of it on the CPU.
    pub ticks_ns: u64,
}

impl Quiet {
    /// The factor for the `j`-th timed request of the pass.
    pub fn factor(&self, j: usize) -> f64 {
        self.factors[(j / SEGMENT).min(self.factors.len() - 1)]
    }

    /// Per-request times scaled to the quiet machine.
    pub fn scale(&self, per_request: &[f64]) -> Vec<f64> {
        per_request.iter().enumerate().map(|(j, v)| v * self.factor(j)).collect()
    }

    /// Raw over quiet time: 1.0 on an undisturbed machine.
    pub fn slowdown(&self) -> f64 {
        self.raw_s / self.quiet_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_on_a_steady_machine_is_left_almost_alone() {
        let mut cal = Calibrator::new(4 * SEGMENT);
        cal.tick();
        for _ in 0..4 {
            std::thread::sleep(std::time::Duration::from_millis(1));
            cal.tick();
        }
        let q = cal.finish();
        assert_eq!(q.factors.len(), 4);
        assert!(q.factors.iter().all(|&f| f > 0.0 && f <= 1.0));
        assert!(q.quiet_s <= q.raw_s && q.raw_s >= 0.004);
        assert!(q.slowdown() >= 1.0);
        assert_eq!(q.factor(0), q.factors[0]);
        assert_eq!(q.factor(SEGMENT), q.factors[1]);
        assert_eq!(q.factor(99 * SEGMENT), q.factors[3], "past the end reads the last segment");
    }
}
