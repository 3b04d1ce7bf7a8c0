//! Algorithm 1: greedy network-aware placement.
//!
//! Walk the application's transfers in descending byte order. For each
//! transfer `⟨i, j, b⟩`, enumerate the candidate VM pairs consistent with
//! any placements already made (lines 3–8 of the paper's listing), discard
//! pairs that violate CPU constraints (lines 10–11: the shared fit test
//! [`Machines::fits`], after the [`Machines::check_room`] pre-check),
//! estimate the rate the transfer would see on each remaining pair —
//! sharing with transfers already placed under the hose or pipe model
//! (line 13) — and take the fastest (line 14). Intra-machine "paths" have
//! effectively infinite rate, so heavy pairs co-locate when CPU allows,
//! exactly the behaviour §9 describes.
//!
//! # Batched candidate evaluation
//!
//! Raw inter-VM rates come from the caller's `rate` closure (see
//! [`GreedyPlacer::place_with_scratch`]), asked **one batch per transfer** rather
//! than once per `(m, n)` pair: the feasible candidates are enumerated,
//! filtered through the per-pair `RateCache` — the placement's only rate
//! memo, so a pair is never rated twice in one placement — and the misses
//! go to `rate` as a single batch. Under the hose model the sharing rule
//! divides a VM's hose rate, which is the maximum of its egress row
//! ([`NetworkSnapshot::hose_rate`]'s definition): the first time a VM
//! needs one, its row is completed through the same memo (never-rated
//! pairs only, one more batch) and folded.
//!
//! Against a snapshot a batch is a memory walk; against the live network
//! (the online scheduler's flow simulator) it collapses `O(V²)`
//! what-if solver passes per transfer into one — and that one costs what
//! the batch's *distinct* resources cost, not its `V(V − 1)` pairs: the
//! engine reads its solve log once per resource (`2V` access directions
//! plus the fabric links between them, `O(events · log rounds)` each),
//! keeps the answer until the network next changes, and rates a pair by
//! folding the answers along its path. Later transfers of the same
//! placement name new pairs over the same resources and walk nothing. The
//! sharing adjustment for transfers placed earlier in the same call is
//! pure arithmetic applied on top, so cached raw rates never go stale.
//!
//! The placement's working buffers — assignment, CPU ledger, sharing
//! counters, rate memo, candidate batches, the sorted transfer list —
//! live in a [`PlaceScratch`] the caller lends
//! ([`GreedyPlacer::place_with_scratch`]), so a long-running caller such
//! as the online scheduler places without allocating beyond the answer;
//! [`GreedyPlacer::place`] lends a fresh one.
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

/// The greedy network-aware placer.
#[derive(Debug, Clone, Default)]
pub struct GreedyPlacer;

/// Memo of raw per-VM-pair rates for one
/// [`GreedyPlacer::place_with_scratch`] call — the only one the placement
/// keeps.
///
/// Candidate enumeration visits the same `(m, n)` pair `O(V²)` times per
/// transfer, and hose-row completions name pairs no candidate has; the
/// cache guarantees each pair reaches the `rate` closure at most once per
/// placement and filters every batch in front of it. Raw rates are
/// placement-independent (the sharing adjustment happens outside), so
/// entries never invalidate within a placement; a new placement starts
/// from an empty memo. `NaN` marks pairs not yet rated.
#[derive(Debug, Default)]
struct RateCache {
    vals: Vec<f64>,
    n_vms: usize,
}

impl RateCache {
    /// Forget every rate: `n_vms²` pairs, none rated.
    fn reset(&mut self, n_vms: usize) {
        self.vals.clear();
        self.vals.resize(n_vms * n_vms, f64::NAN);
        self.n_vms = n_vms;
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

/// Reusable buffers for one batch.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Feasible candidate pairs, in enumeration order (the tie-break
    /// order).
    cands: Vec<(u32, u32)>,
    /// Cache misses submitted to `rate`.
    misses: Vec<(u32, u32)>,
    /// `rate` output, parallel to `misses`.
    rates: Vec<f64>,
}

/// The buffers one Algorithm 1 call works in, lent by its caller
/// ([`GreedyPlacer::place_with_scratch`]) so that a scratch that has
/// grown to an instance's size places the next one without allocating.
/// A call re-fills every field it reads before it reads it, so nothing
/// carries over from one placement to the next.
#[derive(Debug, Default)]
pub struct PlaceScratch {
    /// Task → VM decided so far.
    assignment: Vec<Option<u32>>,
    /// Per-VM CPU committed (pre-existing load + this placement).
    cpu_used: Vec<f64>,
    /// Transfers placed *by this call* per directed VM pair.
    placed_path: Vec<u32>,
    /// Transfers placed *by this call* per source VM.
    placed_egress: Vec<u32>,
    /// Raw-rate memo (one `rate` query per pair, ever).
    cache: RateCache,
    /// Per-VM raw hose rate (`NaN` = not yet derived): the maximum of the
    /// VM's egress row, completed through `cache`. Sized on first use, so
    /// a pipe-model placement never fills it.
    hose: Vec<f64>,
    /// Per-batch buffers.
    batch: BatchScratch,
    /// The app's transfers, heaviest first.
    transfers: Vec<(usize, usize, u64)>,
}

impl PlaceScratch {
    /// Start a placement of `app` on `n_vms` machines carrying `load`.
    fn reset(&mut self, app: &AppProfile, n_vms: usize, load: &NetworkLoad) {
        self.assignment.clear();
        self.assignment.resize(app.n_tasks(), None);
        self.cpu_used.clone_from(&load.cpu_used);
        self.placed_path.clear();
        self.placed_path.resize(n_vms * n_vms, 0);
        self.placed_egress.clear();
        self.placed_egress.resize(n_vms, 0);
        self.cache.reset(n_vms);
        self.hose.clear();
        app.matrix.transfers_desc_into(&mut self.transfers);
    }
}

/// One [`GreedyPlacer::place_with_scratch`] call: the placement inputs,
/// and the scratch everything the greedy walk mutates as transfers are
/// placed lives in. One struct instead of a dozen loose parameters
/// threading through `best_pair`.
struct PlaceCtx<'a, F> {
    app: &'a AppProfile,
    machines: &'a Machines,
    /// The sharing rule applied on top of raw rates.
    model: RateModel,
    /// The caller's batch rater: `out[i]` for `pairs[i]`.
    rate: F,
    load: &'a NetworkLoad,
    s: &'a mut PlaceScratch,
}

impl<'a, F: FnMut(&[(u32, u32)], &mut Vec<f64>)> PlaceCtx<'a, F> {
    fn new(
        app: &'a AppProfile,
        machines: &'a Machines,
        model: RateModel,
        load: &'a NetworkLoad,
        s: &'a mut PlaceScratch,
        rate: F,
    ) -> Self {
        s.reset(app, machines.len(), load);
        PlaceCtx { app, machines, model, rate, load, s }
    }

    /// Account a placed transfer on its path for the sharing model.
    fn account(&mut self, m: u32, n: u32) {
        if m != n {
            let n_vms = self.machines.len();
            self.s.placed_path[m as usize * n_vms + n as usize] += 1;
            self.s.placed_egress[m as usize] += 1;
        }
    }

    /// Rate `batch.misses` as one batch, if there are any, and commit the
    /// answers to the cache.
    fn rate_misses(&mut self) {
        let PlaceScratch { cache, batch, .. } = &mut *self.s;
        if batch.misses.is_empty() {
            return;
        }
        (self.rate)(&batch.misses, &mut batch.rates);
        assert_eq!(batch.rates.len(), batch.misses.len(), "rate answered every pair");
        for (&(m, n), &r) in batch.misses.iter().zip(&batch.rates) {
            cache.put(m, n, r);
        }
    }

    /// Raw hose (egress) rate of VM `m`, the denominator of the hose
    /// sharing rule: on first request, complete `m`'s row through the
    /// cache and keep its maximum. Under source rate-limiting one
    /// connection can saturate the hose, so the row maximum estimates it.
    fn hose_rate(&mut self, m: u32) -> f64 {
        let n_vms = self.machines.len() as u32;
        if self.s.hose.is_empty() {
            self.s.hose.resize(n_vms as usize, f64::NAN);
        }
        if self.s.hose[m as usize].is_nan() {
            let row = (0..n_vms).filter(|&j| j != m);
            let PlaceScratch { cache, batch, .. } = &mut *self.s;
            batch.misses.clear();
            batch.misses.extend(row.clone().filter(|&j| cache.get(m, j).is_none()).map(|j| (m, j)));
            self.rate_misses();
            let s = &mut *self.s;
            s.hose[m as usize] = row.filter_map(|j| s.cache.get(m, j)).fold(0.0, f64::max);
        }
        self.s.hose[m as usize]
    }

    /// Sharing-adjusted rate a *new* transfer would see on `(m, n)` (line
    /// 13 of Algorithm 1): the raw path rate divided among the
    /// connections it shares with, under the placement's sharing model.
    fn shared_rate(&mut self, m: u32, n: u32, raw_path: f64) -> f64 {
        let n_vms = self.machines.len();
        let (a, b) = (VmId(m), VmId(n));
        match self.model {
            RateModel::Pipe => {
                let sharing = 1
                    + self.load.on_path(a, b)
                    + self.s.placed_path[m as usize * n_vms + n as usize];
                raw_path / sharing as f64
            }
            RateModel::Hose => {
                let raw_hose = self.hose_rate(m);
                let sharing = 1 + self.load.egress(a) + self.s.placed_egress[m as usize];
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
    /// cache misses to `rate` as **one batch for the whole transfer**,
    /// then apply the sharing adjustment and maximize. A transfer with a
    /// feasible co-located candidate skips the last two: co-location
    /// rates `+∞` and no measured (finite) rate beats it.
    fn best_pair(&mut self, i: usize, j: usize) -> Result<(u32, u32), PlaceError> {
        let n_vms = self.machines.len() as u32;
        // Phase 1: feasible candidates, in deterministic tie-break order.
        {
            let (app, machines) = (self.app, self.machines);
            let PlaceScratch { assignment, cpu_used, batch, .. } = &mut *self.s;
            // `extra`: a task of the same pair already bound for `vm`.
            let fits = |task: usize, vm: u32, extra: f64| {
                let vm = vm as usize;
                machines.fits(vm, cpu_used[vm] + extra, app.cpu[task])
            };
            batch.cands.clear();
            match (assignment[i], assignment[j]) {
                (Some(k), None) => {
                    for n in 0..n_vms {
                        if fits(j, n, 0.0) {
                            batch.cands.push((k, n));
                        }
                    }
                }
                (None, Some(l)) => {
                    for m in 0..n_vms {
                        if fits(i, m, 0.0) {
                            batch.cands.push((m, l));
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
                                batch.cands.push((m, n));
                            }
                        }
                    }
                }
                (Some(m), Some(n)) => return Ok((m, n)),
            }
        }
        // Co-location wins outright, the first such pair in tie-break
        // order (nothing compares above `+∞`, not even another `+∞`) — so
        // this transfer's batch is never rated.
        if let Some(&pair) = self.s.batch.cands.iter().find(|(m, n)| m == n) {
            return Ok(pair);
        }
        // Phase 2: the cache filters the batch — only never-rated pairs
        // reach `rate`, as one call for the whole transfer.
        {
            let PlaceScratch { cache, batch, .. } = &mut *self.s;
            batch.misses.clear();
            batch.misses.extend(batch.cands.iter().filter(|&&(m, n)| cache.get(m, n).is_none()));
        }
        self.rate_misses();
        // Phase 3: sharing adjustment + maximization.
        let mut best: Option<(f64, u32, u32)> = None;
        for idx in 0..self.s.batch.cands.len() {
            let (m, n) = self.s.batch.cands[idx];
            let raw_path = self.s.cache.get(m, n).expect("batched above");
            let rate = self.shared_rate(m, n, raw_path);
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

    /// The greedy walk: every transfer heaviest first, then first-fit by
    /// CPU for tasks with no transfers.
    fn run(&mut self) -> Result<(), PlaceError> {
        let (app, machines) = (self.app, self.machines);
        for t in 0..self.s.transfers.len() {
            let (i, j, _bytes) = self.s.transfers[t];
            let (m, n) = match (self.s.assignment[i], self.s.assignment[j]) {
                // Both fixed: just account the transfer on its path.
                (Some(m), Some(n)) => (m, n),
                _ => {
                    let (m, n) = self.best_pair(i, j)?;
                    let s = &mut *self.s;
                    if s.assignment[i].is_none() {
                        s.assignment[i] = Some(m);
                        s.cpu_used[m as usize] += app.cpu[i];
                    }
                    if s.assignment[j].is_none() {
                        s.assignment[j] = Some(n);
                        s.cpu_used[n as usize] += app.cpu[j];
                    }
                    (m, n)
                }
            };
            self.account(m, n);
        }
        let s = &mut *self.s;
        for t in 0..app.n_tasks() {
            if s.assignment[t].is_none() {
                let vm = (0..machines.len())
                    .find(|&m| machines.fits(m, s.cpu_used[m], app.cpu[t]))
                    .ok_or(PlaceError::NoFeasibleMachine { task: t })?;
                s.assignment[t] = Some(vm as u32);
                s.cpu_used[vm] += app.cpu[t];
            }
        }
        Ok(())
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
        let mut scratch = PlaceScratch::default();
        self.place_with_scratch(app, machines, snapshot.model, load, &mut scratch, |pairs, out| {
            out.clear();
            out.extend(pairs.iter().map(|&(m, n)| snapshot.rate(VmId(m), VmId(n))));
        })
    }

    /// [`GreedyPlacer::place`] over any source of raw rates, shared under
    /// `model`, in buffers the caller lends and keeps: once `scratch` has
    /// grown to an instance's size, a placement allocates only the
    /// [`Placement`] it returns. The answer does not depend on what
    /// `scratch` held before.
    ///
    /// `rate(pairs, out)` fills `out[i]` with the raw (sharing-unadjusted)
    /// rate of `pairs[i]`, a `(source VM, destination VM)` pair with
    /// distinct endpoints. It is called at most once per transfer with
    /// that transfer's never-rated candidates, plus once per VM whose
    /// hose row the hose model completes; no pair is asked twice, so the
    /// rates must be stable for the call. A live network answers each
    /// batch with one what-if solve (the online scheduler), placing
    /// against the network as it is *now*.
    pub fn place_with_scratch(
        &self,
        app: &AppProfile,
        machines: &Machines,
        model: RateModel,
        load: &NetworkLoad,
        scratch: &mut PlaceScratch,
        rate: impl FnMut(&[(u32, u32)], &mut Vec<f64>),
    ) -> Result<Placement, PlaceError> {
        assert_eq!(load.n_vms(), machines.len(), "load covers the machines");
        machines.check_room(app, &load.cpu_used)?;
        let mut ctx = PlaceCtx::new(app, machines, model, load, scratch, rate);
        ctx.run()?;
        Ok(Placement { assignment: ctx.s.assignment.iter().map(|a| a.expect("placed")).collect() })
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

    /// A hose-model placement whose every batch is predictable: four VMs
    /// (VM 3 alone fits the 2-core task), transfers `0 → 1` then
    /// `1 → 2`, and one running transfer out of VM 0. Each candidate
    /// source's row maximum lies off the pair the placer picks, so the
    /// hose must come from completing the row.
    fn hose_scenario() -> (AppProfile, Machines, NetworkSnapshot, NetworkLoad) {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 100);
        m.set(1, 2, 50);
        let app = AppProfile::new("hose", vec![1.0, 2.0, 1.0], m, 0);
        let machines = Machines { cpu: vec![1.0, 1.0, 1.0, 2.0] };
        let s = snap(
            4,
            &[
                (0, 1, 100.0),
                (0, 2, 20.0),
                (0, 3, 90.0),
                (1, 0, 70.0),
                (1, 2, 10.0),
                (1, 3, 60.0),
                (2, 0, 10.0),
                (2, 1, 10.0),
                (2, 3, 50.0),
                (3, 0, 40.0),
                (3, 1, 80.0),
                (3, 2, 30.0),
            ],
            RateModel::Hose,
        );
        let mut load = NetworkLoad::new(4);
        let mut bg_m = TrafficMatrix::zeros(2);
        bg_m.set(0, 1, 1);
        let bg = AppProfile::new("bg", vec![0.1; 2], bg_m, 0);
        load.apply(&bg, &Placement { assignment: vec![0, 2] });
        load.cpu_used.fill(0.0);
        (app, machines, s, load)
    }

    #[test]
    fn closure_is_asked_once_per_transfer_and_each_pair_once() {
        let (app, machines, s, load) = hose_scenario();
        let mut batches: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut scratch = PlaceScratch::default();
        let p = GreedyPlacer
            .place_with_scratch(
                &app,
                &machines,
                RateModel::Hose,
                &load,
                &mut scratch,
                |pairs, out| {
                    batches.push(pairs.to_vec());
                    out.clear();
                    out.extend(pairs.iter().map(|&(m, n)| s.rate(VmId(m), VmId(n))));
                },
            )
            .expect("feasible");
        assert_eq!(p, GreedyPlacer.place(&app, &machines, &s, &load).unwrap(), "same as place");
        // VM 0's raw 90 would win, but its hose (100) is shared with the
        // running transfer: 50 < VM 1's 60.
        assert_eq!(p.assignment, vec![1, 3, 0]);
        assert_eq!(
            batches,
            vec![
                vec![(0, 3), (1, 3), (2, 3)], // transfer 0 → 1's candidates
                vec![(0, 1), (0, 2)],         // hose rows, unseen pairs only
                vec![(1, 0), (1, 2)],
                vec![(2, 0), (2, 1)],
                vec![(3, 0), (3, 2)], // transfer 1 → 2's candidates
                vec![(3, 1)],         // VM 3's row minus the two just rated
            ]
        );
        let mut rated = batches.concat();
        rated.sort_unstable();
        rated.dedup();
        assert_eq!(rated.len(), 12, "no pair is rated twice");
    }

    #[test]
    fn derived_hose_is_the_snapshot_row_max() {
        let (app, machines, s, load) = hose_scenario();
        let read = |pairs: &[(u32, u32)], out: &mut Vec<f64>| {
            out.clear();
            out.extend(pairs.iter().map(|&(m, n)| s.rate(VmId(m), VmId(n))));
        };
        let mut scratch = PlaceScratch::default();
        let mut ctx = PlaceCtx::new(&app, &machines, RateModel::Hose, &load, &mut scratch, read);
        ctx.run().expect("feasible");
        let want: Vec<f64> = (0..4).map(|v| s.hose_rate(VmId(v))).collect();
        assert_eq!(ctx.s.hose, want);
        // The pipe model never derives a hose, so never fills the memo —
        // not even in a scratch a hose placement filled before.
        let mut ctx = PlaceCtx::new(&app, &machines, RateModel::Pipe, &load, &mut scratch, read);
        ctx.run().expect("feasible");
        assert!(ctx.s.hose.is_empty());
    }

    #[test]
    fn a_reused_scratch_places_like_a_fresh_one() {
        let (app, machines, s, load) = hose_scenario();
        // The same network with every rate out of VM 1 cut tenfold: a
        // rate memo left over from a placement on `s` would hand a
        // placement on `slow` the old rates, and ask for fewer pairs.
        let entries: Vec<(usize, usize, f64)> = (0..4)
            .flat_map(|a| (0..4).filter(move |&b| b != a).map(move |b| (a, b)))
            .map(|(a, b)| {
                let r = s.rate(VmId(a as u32), VmId(b as u32));
                (a, b, if a == 1 { r / 10.0 } else { r })
            })
            .collect();
        let slow = snap(4, &entries, RateModel::Hose);
        let place = |scratch: &mut PlaceScratch, net: &NetworkSnapshot, model: RateModel| {
            let mut batches: Vec<Vec<(u32, u32)>> = Vec::new();
            let p = GreedyPlacer
                .place_with_scratch(&app, &machines, model, &load, scratch, |pairs, out| {
                    batches.push(pairs.to_vec());
                    out.clear();
                    out.extend(pairs.iter().map(|&(m, n)| net.rate(VmId(m), VmId(n))));
                })
                .expect("feasible");
            (p, batches)
        };
        let mut shared = PlaceScratch::default();
        let mut placements = Vec::new();
        for (net, model) in [(&s, RateModel::Hose), (&slow, RateModel::Hose), (&s, RateModel::Pipe)]
        {
            let reused = place(&mut shared, net, model);
            assert_eq!(reused, place(&mut PlaceScratch::default(), net, model), "{model:?}");
            placements.push(reused.0.assignment);
        }
        assert_ne!(placements[0], placements[1], "the slowed network places elsewhere");
    }
}
