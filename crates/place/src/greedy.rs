//! Algorithm 1: greedy network-aware placement.
//!
//! Walk the application's transfers in descending byte order. For each
//! transfer `⟨i, j, b⟩`, enumerate the candidate VM pairs consistent with
//! any placements already made (lines 3–8 of the paper's listing), discard
//! pairs that violate CPU constraints (lines 10–11), estimate the rate the
//! transfer would see on each remaining pair — sharing with transfers
//! already placed under the hose or pipe model (line 13) — and take the
//! fastest (line 14). Intra-machine "paths" have effectively infinite
//! rate, so heavy pairs co-locate when CPU allows, exactly the behaviour
//! §9 describes.
//!
//! # Batched candidate evaluation
//!
//! Raw inter-VM rates come from a [`CandidateRater`], queried **one batch
//! per transfer** rather than one call per `(m, n)` pair: the feasible
//! candidates are enumerated, filtered through the per-pair `RateCache`
//! (a pair is never rated twice in one placement), and the misses go to
//! the rater as a single `path_rates` batch. Against a snapshot that is a
//! memory walk; against a live backend (see
//! [`crate::rater::BackendRater`]) it collapses `O(V²)` what-if solver
//! passes per transfer into one — and that one costs what the batch's
//! *distinct* resources cost, not its `V(V − 1)` pairs: the engine reads
//! its solve log once per resource (`2V` access directions plus the
//! fabric links between them, `O(rounds + events)` each), keeps the
//! answer until the network next changes, and rates a pair by folding the
//! answers along its path. Later transfers of the same placement name new
//! pairs over the same resources and walk nothing. The sharing adjustment
//! for transfers placed earlier in the same call is pure arithmetic
//! applied on top, so cached raw rates never go stale.
//!
//! Committing the placement completes the warm chain: rating candidates
//! against a live flow cloud leaves the engine's solver holding the
//! freeze-round log of the committed allocation, so when the placed
//! transfers start, the engine's next reallocation warm-starts from that
//! probe-era log (`MaxMinSolver::solve_warm` in `choreo-flowsim`) instead
//! of cold-solving.

use choreo_measure::{NetworkSnapshot, RateModel};
use choreo_profile::AppProfile;
use choreo_topology::VmId;

use crate::problem::{Machines, NetworkLoad, PlaceError, Placement};
use crate::rater::{CandidateRater, SnapshotRater};

/// The greedy network-aware placer.
#[derive(Debug, Clone, Default)]
pub struct GreedyPlacer;

/// Memo of raw per-VM-pair rates for one `place()` call.
///
/// Candidate enumeration visits the same `(m, n)` pair `O(V²)` times per
/// transfer; the cache guarantees each pair is rated by the
/// [`CandidateRater`] at most once per placement and acts as the filter in
/// front of the per-transfer batch. Raw rates are placement-independent
/// (the sharing adjustment happens outside), so entries never invalidate.
/// `NaN` marks pairs not yet rated.
#[derive(Debug)]
struct RateCache {
    vals: Vec<f64>,
    n_vms: usize,
}

impl RateCache {
    fn new(n_vms: usize) -> RateCache {
        RateCache { vals: vec![f64::NAN; n_vms * n_vms], n_vms }
    }

    #[inline]
    fn get(&self, m: u32, n: u32) -> Option<f64> {
        let v = self.vals[m as usize * self.n_vms + n as usize];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    #[inline]
    fn put(&mut self, m: u32, n: u32, rate: f64) {
        self.vals[m as usize * self.n_vms + n as usize] = rate;
    }
}

/// Reusable buffers for one transfer's candidate batch.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Feasible candidate pairs, in enumeration order (the tie-break
    /// order).
    cands: Vec<(u32, u32)>,
    /// Cache misses submitted to the rater.
    misses: Vec<(u32, u32)>,
    /// Rater output, parallel to `misses`.
    rates: Vec<f64>,
}

/// Working state of one `place_with_rater` call: the placement inputs
/// plus everything the greedy walk mutates as transfers are placed. One
/// struct instead of a dozen loose parameters threading through
/// `best_pair`.
struct PlaceCtx<'a, R: CandidateRater> {
    app: &'a AppProfile,
    machines: &'a Machines,
    rater: &'a mut R,
    load: &'a NetworkLoad,
    /// Task → VM decided so far.
    assignment: Vec<Option<u32>>,
    /// Per-VM CPU committed (pre-existing load + this placement).
    cpu_used: Vec<f64>,
    /// Transfers placed *by this call* per directed VM pair.
    placed_path: Vec<u32>,
    /// Transfers placed *by this call* per source VM.
    placed_egress: Vec<u32>,
    /// Raw-rate memo (one rater query per pair, ever).
    cache: RateCache,
    /// Per-transfer candidate batch buffers.
    scratch: BatchScratch,
}

impl<R: CandidateRater> PlaceCtx<'_, R> {
    /// Account a placed transfer on its path for the sharing model.
    fn account(&mut self, m: u32, n: u32) {
        if m != n {
            let n_vms = self.machines.len();
            self.placed_path[m as usize * n_vms + n as usize] += 1;
            self.placed_egress[m as usize] += 1;
        }
    }

    /// Sharing-adjusted rate a *new* transfer would see on `(m, n)` (line
    /// 13 of Algorithm 1): the raw path rate divided among the
    /// connections it shares with, under the rater's sharing model.
    /// `raw_path` comes from the [`CandidateRater`] via the cache; the
    /// hose rate is fetched (memoized) from the rater when needed.
    fn shared_rate(&mut self, model: RateModel, m: u32, n: u32, raw_path: f64) -> f64 {
        let n_vms = self.machines.len();
        let (a, b) = (VmId(m), VmId(n));
        match model {
            RateModel::Pipe => {
                let sharing =
                    1 + self.load.on_path(a, b) + self.placed_path[m as usize * n_vms + n as usize];
                raw_path / sharing as f64
            }
            RateModel::Hose => {
                let raw_hose = self.rater.hose_rate(m);
                let sharing = 1 + self.load.egress(a) + self.placed_egress[m as usize];
                let hose_share = raw_hose / sharing as f64;
                // A path cannot beat its own measured rate even if the
                // hose has spare capacity.
                hose_share.min(raw_path)
            }
        }
    }

    /// Candidate enumeration per Algorithm 1 lines 3–11, then rate
    /// maximization (line 14). Deterministic tie-break on (rate, m, n).
    ///
    /// Runs in three phases: enumerate the feasible candidates, submit the
    /// cache misses to the rater as **one batch for the whole transfer**,
    /// then apply the sharing adjustment and maximize. The cache
    /// guarantees no pair is ever rated twice within one placement. A
    /// transfer with a feasible co-located candidate skips the last two:
    /// co-location rates `+∞` and no measured (finite) rate beats it.
    fn best_pair(&mut self, i: usize, j: usize) -> Result<(u32, u32), PlaceError> {
        let n_vms = self.machines.len() as u32;
        // Phase 1: feasible candidates, in deterministic tie-break order.
        {
            let PlaceCtx { app, machines, assignment, cpu_used, scratch, .. } = self;
            let fits = |task: usize, vm: u32, extra: f64| {
                cpu_used[vm as usize] + extra + app.cpu[task] <= machines.cpu[vm as usize] + 1e-9
            };
            scratch.cands.clear();
            match (assignment[i], assignment[j]) {
                (Some(k), None) => {
                    for n in 0..n_vms {
                        if fits(j, n, 0.0) {
                            scratch.cands.push((k, n));
                        }
                    }
                }
                (None, Some(l)) => {
                    for m in 0..n_vms {
                        if fits(i, m, 0.0) {
                            scratch.cands.push((m, l));
                        }
                    }
                }
                (None, None) => {
                    for m in 0..n_vms {
                        if !fits(i, m, 0.0) {
                            continue;
                        }
                        for n in 0..n_vms {
                            let ok = if m == n {
                                fits(j, n, app.cpu[i]) // both tasks land together
                            } else {
                                fits(j, n, 0.0)
                            };
                            if ok {
                                scratch.cands.push((m, n));
                            }
                        }
                    }
                }
                (Some(m), Some(n)) => return Ok((m, n)),
            }
        }
        // Co-location wins outright, the first such pair in tie-break
        // order (nothing compares above `+∞`, not even another `+∞`) — so
        // this transfer's batch never reaches the rater.
        if let Some(&pair) = self.scratch.cands.iter().find(|(m, n)| m == n) {
            return Ok(pair);
        }
        // Phase 2: the cache filters the batch — only never-rated pairs
        // reach the rater, as one call for the whole transfer.
        {
            let PlaceCtx { rater, cache, scratch, .. } = self;
            scratch.misses.clear();
            for &(m, n) in &scratch.cands {
                if cache.get(m, n).is_none() {
                    scratch.misses.push((m, n));
                }
            }
            if !scratch.misses.is_empty() {
                rater.path_rates(&scratch.misses, &mut scratch.rates);
                assert_eq!(scratch.rates.len(), scratch.misses.len(), "rater rated every pair");
                for (&(m, n), &r) in scratch.misses.iter().zip(&scratch.rates) {
                    cache.put(m, n, r);
                }
            }
        }
        // Phase 3: sharing adjustment + maximization.
        let model = self.rater.model();
        let mut best: Option<(f64, u32, u32)> = None;
        for idx in 0..self.scratch.cands.len() {
            let (m, n) = self.scratch.cands[idx];
            let raw_path = self.cache.get(m, n).expect("batched above");
            let rate = self.shared_rate(model, m, n, raw_path);
            let better = match best {
                None => true,
                Some((br, bm, bn)) => {
                    rate > br + 1e-12 || ((rate - br).abs() <= 1e-12 && (m, n) < (bm, bn))
                }
            };
            if better {
                best = Some((rate, m, n));
            }
        }
        best.map(|(_, m, n)| (m, n)).ok_or(PlaceError::NoFeasibleMachine { task: i })
    }
}

impl GreedyPlacer {
    /// Place `app` on `machines` given the measured `snapshot`, starting
    /// from a network already carrying `load` (use
    /// [`NetworkLoad::new`] for an idle network).
    pub fn place(
        &self,
        app: &AppProfile,
        machines: &Machines,
        snapshot: &NetworkSnapshot,
        load: &NetworkLoad,
    ) -> Result<Placement, PlaceError> {
        assert_eq!(snapshot.n_vms(), machines.len(), "snapshot covers the machines");
        self.place_with_rater(app, machines, &mut SnapshotRater { snapshot }, load)
    }

    /// [`GreedyPlacer::place`] over any [`CandidateRater`] — e.g. a
    /// [`crate::rater::BackendRater`] that scores each transfer's
    /// candidate set against the live network in one batched what-if
    /// round-trip.
    pub fn place_with_rater<R: CandidateRater>(
        &self,
        app: &AppProfile,
        machines: &Machines,
        rater: &mut R,
        load: &NetworkLoad,
    ) -> Result<Placement, PlaceError> {
        let n_tasks = app.n_tasks();
        let n_vms = machines.len();
        assert_eq!(rater.n_vms(), n_vms, "rater covers the machines");
        assert_eq!(load.n_vms(), n_vms, "load covers the machines");
        let total_cpu: f64 = app.cpu.iter().sum();
        let free_cpu: f64 =
            machines.cpu.iter().zip(&load.cpu_used).map(|(cap, used)| (cap - used).max(0.0)).sum();
        if total_cpu > free_cpu + 1e-9 {
            return Err(PlaceError::InsufficientCpu);
        }

        let mut ctx = PlaceCtx {
            app,
            machines,
            rater,
            load,
            assignment: vec![None; n_tasks],
            cpu_used: load.cpu_used.clone(),
            placed_path: vec![0u32; n_vms * n_vms],
            placed_egress: vec![0u32; n_vms],
            cache: RateCache::new(n_vms),
            scratch: BatchScratch::default(),
        };

        let transfers = app.matrix.transfers_desc();
        for (i, j, _bytes) in &transfers {
            let (i, j) = (*i, *j);
            match (ctx.assignment[i], ctx.assignment[j]) {
                (Some(m), Some(n)) => {
                    // Both fixed: just account the transfer on its path.
                    ctx.account(m, n);
                }
                _ => {
                    let (m, n) = ctx.best_pair(i, j)?;
                    if ctx.assignment[i].is_none() {
                        ctx.assignment[i] = Some(m);
                        ctx.cpu_used[m as usize] += app.cpu[i];
                    }
                    if ctx.assignment[j].is_none() {
                        ctx.assignment[j] = Some(n);
                        ctx.cpu_used[n as usize] += app.cpu[j];
                    }
                    ctx.account(m, n);
                }
            }
        }

        // Tasks with no transfers: first-fit by CPU.
        for (t, slot) in ctx.assignment.iter_mut().enumerate() {
            if slot.is_none() {
                let vm = (0..n_vms)
                    .find(|&m| ctx.cpu_used[m] + app.cpu[t] <= machines.cpu[m] + 1e-9)
                    .ok_or(PlaceError::NoFeasibleMachine { task: t })?;
                *slot = Some(vm as u32);
                ctx.cpu_used[vm] += app.cpu[t];
            }
        }
        Ok(Placement {
            assignment: ctx.assignment.into_iter().map(|a| a.expect("placed")).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::predict_completion_secs;
    use choreo_profile::TrafficMatrix;

    /// Snapshot from a dense directed rate list (units arbitrary).
    fn snap(n: usize, entries: &[(usize, usize, f64)], model: RateModel) -> NetworkSnapshot {
        let mut rates = vec![1.0; n * n];
        for &(a, b, r) in entries {
            rates[a * n + b] = r;
        }
        NetworkSnapshot::from_rates(n, rates, model)
    }

    fn one_core_each(n: usize) -> Machines {
        Machines::uniform(n, 1.0)
    }

    #[test]
    fn heaviest_transfer_gets_fastest_path() {
        // 3 tasks, 3 machines, star traffic: S->A heavy, S->B light.
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 1000);
        m.set(0, 2, 10);
        let app = AppProfile::new("star", vec![1.0; 3], m, 0);
        // Path 0->1 fast (100), 0->2 slow (10), 1->2 medium.
        let s = snap(
            3,
            &[(0, 1, 100.0), (1, 0, 100.0), (0, 2, 10.0), (2, 0, 10.0), (1, 2, 50.0), (2, 1, 50.0)],
            RateModel::Pipe,
        );
        let p = GreedyPlacer
            .place(&app, &one_core_each(3), &s, &NetworkLoad::new(3))
            .expect("feasible");
        // The heavy pair (0,1) must land on the 100-rate pair (0,1).
        let (a, b) = (p.assignment[0], p.assignment[1]);
        assert_eq!((a, b), (0, 1), "heavy transfer on the fast path: {:?}", p.assignment);
    }

    #[test]
    fn colocates_heavy_pairs_when_cpu_allows() {
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 1_000_000);
        let app = AppProfile::new("pair", vec![1.0, 1.0], m, 0);
        let s = snap(2, &[(0, 1, 5.0), (1, 0, 5.0)], RateModel::Pipe);
        // Two 4-core machines: both tasks fit on one.
        let p = GreedyPlacer
            .place(&app, &Machines::uniform(2, 4.0), &s, &NetworkLoad::new(2))
            .expect("feasible");
        assert_eq!(p.assignment[0], p.assignment[1], "intra-machine rate is infinite");
    }

    #[test]
    fn cpu_constraints_force_spreading() {
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 1_000_000);
        let app = AppProfile::new("pair", vec![1.0, 1.0], m, 0);
        let s = snap(2, &[(0, 1, 5.0), (1, 0, 5.0)], RateModel::Pipe);
        let p = GreedyPlacer
            .place(&app, &one_core_each(2), &s, &NetworkLoad::new(2))
            .expect("feasible");
        assert_ne!(p.assignment[0], p.assignment[1], "1-core machines cannot co-host");
    }

    #[test]
    fn respects_existing_network_load_under_hose() {
        // Two identical machines-pairs; existing load saturates VM 0's hose.
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 100);
        let app = AppProfile::new("x", vec![1.0, 1.0], m, 0);
        let s = snap(
            4,
            &[
                (0, 1, 10.0),
                (1, 0, 10.0),
                (2, 3, 10.0),
                (3, 2, 10.0),
                (0, 2, 10.0),
                (0, 3, 10.0),
                (1, 2, 10.0),
                (1, 3, 10.0),
                (2, 0, 10.0),
                (2, 1, 10.0),
                (3, 0, 10.0),
                (3, 1, 10.0),
            ],
            RateModel::Hose,
        );
        let mut load = NetworkLoad::new(4);
        // Three running transfers out of VM 0.
        let bg_m = TrafficMatrix::from_rows(
            4,
            vec![
                0, 1, 1, 1, //
                0, 0, 0, 0, //
                0, 0, 0, 0, //
                0, 0, 0, 0,
            ],
        );
        let bg = AppProfile::new("bg", vec![0.1; 4], bg_m, 0);
        load.apply(&bg, &Placement { assignment: vec![0, 1, 2, 3] });
        assert_eq!(load.egress(VmId(0)), 3);
        let p = GreedyPlacer.place(&app, &Machines::uniform(4, 2.0), &s, &load).expect("feasible");
        // The fresh transfer avoids VM 0 as its source.
        assert_ne!(p.assignment[0], 0, "avoids the loaded hose: {:?}", p.assignment);
    }

    #[test]
    fn fig9_style_greedy_is_suboptimal_but_valid() {
        // Reproduction of the paper's Fig. 9 structure: the greedy placer
        // grabs the rate-10 path for the 100-unit transfer and strands the
        // 50-unit transfers on rate-4 paths; placing the big transfer on
        // the rate-9 pair (2,3) would have been better overall.
        let mut m = TrafficMatrix::zeros(4);
        m.set(0, 1, 100); // J1 -> J2
        m.set(0, 2, 50); // J1 -> J3
        m.set(1, 3, 50); // J2 -> J4
        let app = AppProfile::new("fig9", vec![1.0; 4], m, 0);
        let s = snap(
            4,
            &[
                (0, 1, 10.0),
                (2, 3, 9.0),
                (2, 0, 8.0),
                (2, 1, 8.0),
                (3, 0, 8.0),
                (3, 1, 8.0),
                (0, 2, 4.0),
                (0, 3, 4.0),
                (1, 2, 4.0),
                (1, 3, 4.0),
                (1, 0, 4.0),
                (3, 2, 4.0),
            ],
            RateModel::Pipe,
        );
        let machines = one_core_each(4);
        let p = GreedyPlacer.place(&app, &machines, &s, &NetworkLoad::new(4)).expect("feasible");
        assert!(crate::problem::validate(&app, &machines, &p).is_ok());
        // Greedy takes (0,1) for the heavy transfer...
        assert_eq!((p.assignment[0], p.assignment[1]), (0, 1));
        let greedy_time = predict_completion_secs(&app, &p, &s);
        // ... but the J1@2, J2@3, J3@0, J4@1 placement is faster.
        let better = Placement { assignment: vec![2, 3, 0, 1] };
        let better_time = predict_completion_secs(&app, &better, &s);
        assert!(
            better_time < greedy_time,
            "greedy {greedy_time} should exceed optimal-ish {better_time}"
        );
    }

    #[test]
    fn infeasible_cpu_reports_error() {
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 10);
        let app = AppProfile::new("big", vec![3.0, 3.0], m, 0);
        let s = snap(2, &[(0, 1, 1.0), (1, 0, 1.0)], RateModel::Pipe);
        let err =
            GreedyPlacer.place(&app, &one_core_each(2), &s, &NetworkLoad::new(2)).unwrap_err();
        assert_eq!(err, PlaceError::InsufficientCpu);
    }

    #[test]
    fn isolated_tasks_first_fit() {
        // No transfers at all: every task still gets a machine.
        let app = AppProfile::new("quiet", vec![1.0; 3], TrafficMatrix::zeros(3), 0);
        let s = snap(3, &[], RateModel::Pipe);
        let machines = Machines::uniform(3, 2.0);
        let p = GreedyPlacer.place(&app, &machines, &s, &NetworkLoad::new(3)).expect("ok");
        assert!(crate::problem::validate(&app, &machines, &p).is_ok());
    }

    #[test]
    fn deterministic_output() {
        let mut m = TrafficMatrix::zeros(4);
        m.set(0, 1, 100);
        m.set(2, 3, 100);
        let app = AppProfile::new("sym", vec![1.0; 4], m, 0);
        let s = snap(4, &[], RateModel::Pipe); // all rates equal
        let p1 = GreedyPlacer.place(&app, &one_core_each(4), &s, &NetworkLoad::new(4)).unwrap();
        let p2 = GreedyPlacer.place(&app, &one_core_each(4), &s, &NetworkLoad::new(4)).unwrap();
        assert_eq!(p1, p2);
    }
}
