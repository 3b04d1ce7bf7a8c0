//! Events, ON–OFF sources, the run loop, integration and completions.
//!
//! Events wait in a [`choreo_topology::TimerQueue`] (earliest first, in
//! scheduling order at one instant); ON–OFF holding times are
//! [`choreo_topology::exp_holding`] draws.
//!
//! Invariant: a solve runs only where a rate is read. Mutations mark the
//! arena's dirty window; `reallocate_if_dirty` is the one place the solver
//! runs, called by the readers of the rate column alone, so however many
//! mutations land between two reads they cost one warm solve.

use rand::Rng;

use choreo_metrics::span;
use choreo_topology::{exp_holding, Nanos, NodeId};

use super::{FlowKey, FlowSim, FlowStatus, HoseId};

/// Tag of background ON–OFF flows; their records are reclaimed as soon as
/// the toggle-off stop fires (no caller ever harvests their stats).
const TAG_ONOFF: u64 = u64::MAX - 1;

#[derive(Debug, Clone, Copy)]
pub(super) enum Ev {
    Start(FlowKey),
    Stop(FlowKey),
    Toggle(u32),
}

#[derive(Debug)]
pub(super) struct OnOff {
    src: NodeId,
    dst: NodeId,
    hose: Option<HoseId>,
    mean_on: Nanos,
    mean_off: Nanos,
    on: bool,
    flow: Option<FlowKey>,
}

/// Numerical slop (bytes) below which a flow counts as finished.
const DONE_EPS: f64 = 0.5;

impl FlowSim {
    /// Schedule a flow of `bytes` (`None` = unbounded) from `src` to `dst`
    /// starting at `at`, optionally constrained by a hose cap, grouped
    /// under `tag`.
    pub fn start_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        hose: Option<HoseId>,
        at: Nanos,
        tag: u64,
    ) -> FlowKey {
        let key = self.push_flow(src, dst, bytes, hose, tag);
        self.events.push(at.max(self.now), Ev::Start(key));
        key
    }

    /// Stop (kill) a flow at time `at`.
    pub fn stop_flow_at(&mut self, key: FlowKey, at: Nanos) {
        self.events.push(at.max(self.now), Ev::Stop(key));
    }

    /// Register an ON–OFF background source (starts OFF; exponential
    /// holding times, as in the paper's Fig. 4 validation).
    pub fn add_onoff(
        &mut self,
        src: NodeId,
        dst: NodeId,
        hose: Option<HoseId>,
        mean_on: Nanos,
        mean_off: Nanos,
        at: Nanos,
    ) -> u32 {
        let id = self.sources.len() as u32;
        self.sources.push(OnOff { src, dst, hose, mean_on, mean_off, on: false, flow: None });
        let first = at.max(self.now) + self.sample_exp(mean_off);
        self.events.push(first, Ev::Toggle(id));
        id
    }

    fn sample_exp(&mut self, mean: Nanos) -> Nanos {
        exp_holding(mean, self.rng.gen_range(f64::EPSILON..=1.0))
    }

    // ------------------------------------------------------------ dynamics

    /// Recompute the max-min allocation if the active flow set or a
    /// capacity changed since the last solve.
    ///
    /// Mutations only mark the arena's dirty window, which is the
    /// perturbation set the solve starts from; the solve runs here, called
    /// by the readers of `rates` alone — [`FlowSim::rate_bps`], the probe
    /// log, the cold-solve check, the completion search of
    /// [`FlowSim::run_to_completion`] and the two rate reads of
    /// [`FlowSim::run_until`] — so however many
    /// mutations land between two reads, they cost one solve.
    ///
    /// The arena already reflects every start/stop, so this is a single
    /// solver run straight into the slot-indexed rate column — no
    /// per-call `Vec` construction, and no pass over the flow records
    /// afterwards. The solve is **warm-started**:
    /// flow starts, stops and ON–OFF toggles leave the previous solve's
    /// freeze-round log hot, and the solver edits it in place — carrying
    /// the rounds the churn left alone, running live only the ones it
    /// perturbed — instead of cold-solving; bit-identical either way, so
    /// the simulation's trajectory is unchanged.
    ///
    /// Contract with the solver ([`MaxMinSolver::solve_warm`]):
    /// `self.rates` is the buffer the previous solve filled, and between
    /// solves the engine only ever zeroes vacant slots in it
    /// ([`FlowSim::arena_evict`]) and zero-extends it
    /// ([`FlowSim::arena_insert`]) — a carried round's flows still read
    /// the rate that solve gave them.
    pub(super) fn reallocate_if_dirty(&mut self) {
        if self.arena.dirty_len() == 0 {
            return;
        }
        // Everything around the solve is observational: the span timer
        // and values and the `SolveStats` adds read already-computed
        // state and feed nothing back, so instrumented and bare runs
        // follow bit-identical trajectories.
        let dirty_window = self.arena.dirty_len() as u64;
        let cold = self.solver.will_solve_cold(&self.arena);
        let timer = span::start(if cold { "solve_cold" } else { "solve_warm" });
        self.solver.solve_warm(&self.capacities, &mut self.arena, &mut self.rates);
        drop(timer);
        if cold {
            self.stats.cold_solves += 1;
        } else {
            self.stats.warm_solves += 1;
        }
        self.stats.dirty_resources += dirty_window;
        self.stats.live_rounds += self.solver.last_live_rounds();
        self.stats.replayed_rounds += self.solver.last_replayed_rounds();
        self.stats.chained_rounds += self.solver.last_chained_rounds();
        if span::enabled() {
            span::value("solve_dirty_window", dirty_window as f64);
            span::value("solve_live_rounds", self.solver.last_live_rounds() as f64);
            span::value("solve_replayed_rounds", self.solver.last_replayed_rounds() as f64);
        }
    }

    /// Advance all active flows by `dt` nanoseconds at current rates: one
    /// streaming add over the slot columns (a vacant or rate-less slot
    /// adds `0.0`, which leaves its counter as it was), then the byte
    /// budgets of the bounded flows.
    fn integrate(&mut self, dt: Nanos) {
        if dt == 0 {
            return;
        }
        let secs = dt as f64 / 1e9;
        for (delivered, &rate) in self.delivered.iter_mut().zip(&self.rates) {
            *delivered += rate * secs / 8.0;
        }
        for &slot in &self.bounded {
            let f = &mut self.flows[self.slot_owner[slot as usize] as usize];
            let rem = f.remaining.as_mut().expect("listed flows are bounded");
            *rem -= self.rates[slot as usize] * secs / 8.0;
        }
    }

    /// Remaining byte budget of the bounded flow in `slot`.
    fn remaining_in(&self, slot: u32) -> f64 {
        let f = &self.flows[self.slot_owner[slot as usize] as usize];
        f.remaining.expect("listed flows are bounded")
    }

    /// Earliest completion among active bounded flows.
    fn next_completion(&self) -> Option<Nanos> {
        let mut best: Option<f64> = None;
        for &slot in &self.bounded {
            let rem = self.remaining_in(slot);
            let rate = self.rates[slot as usize];
            if rate > 0.0 {
                let dt = (rem.max(0.0)) * 8.0 / rate * 1e9;
                best = Some(best.map_or(dt, |b: f64| b.min(dt)));
            } else if rem <= DONE_EPS {
                best = Some(0.0);
            }
        }
        best.map(|dt| self.now + dt.ceil() as Nanos)
    }

    /// Retire every bounded flow whose budget is spent — in ascending
    /// slot order, whatever order `bounded` lists them in: retire order
    /// is the order the arena's free list hands the slots out again, so
    /// it decides which slot every later flow lands in.
    fn finish_completed(&mut self) {
        let mut finished = std::mem::take(&mut self.finished);
        finished.clear();
        finished.extend(self.bounded.iter().filter(|&&slot| self.remaining_in(slot) <= DONE_EPS));
        finished.sort_unstable();
        for &slot in &finished {
            self.retire(self.slot_owner[slot as usize] as usize);
        }
        self.finished = finished;
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Start(key) => {
                // Stale keys (flow released while the event was queued)
                // dispatch as no-ops: a release requires the flow to be
                // retired, and a retired flow ignored these events before
                // recycling existed too.
                if let Some(i) = self.live_idx(key) {
                    let f = &mut self.flows[i];
                    if f.status == FlowStatus::Pending {
                        f.status = FlowStatus::Active;
                        self.arena_insert(i);
                    }
                }
            }
            Ev::Stop(key) => {
                if let Some(i) = self.live_idx(key) {
                    self.retire(i);
                    // Background ON–OFF flows are never harvested by any
                    // caller; reclaim the record as soon as the toggle-off
                    // stop lands.
                    if self.flows[i].tag == TAG_ONOFF {
                        self.release_index(i);
                    }
                }
            }
            Ev::Toggle(id) => {
                let (src, dst, hose, mean_next, turning_on, old_flow) = {
                    let s = &mut self.sources[id as usize];
                    s.on = !s.on;
                    let turning_on = s.on;
                    let old = if turning_on { None } else { s.flow.take() };
                    (s.src, s.dst, s.hose, s.current_mean(), turning_on, old)
                };
                if turning_on {
                    let key = self.start_flow(src, dst, None, hose, self.now, TAG_ONOFF);
                    self.sources[id as usize].flow = Some(key);
                } else if let Some(f) = old_flow {
                    self.stop_flow_at(f, self.now);
                }
                let dt = self.sample_exp(mean_next);
                self.events.push(self.now + dt, Ev::Toggle(id));
            }
        }
    }

    /// Run the simulation until time `t`, which must not be before
    /// [`FlowSim::now`]: running the clock backwards is a panic.
    ///
    /// The loop reads rates in two places only, and solves a pending
    /// reallocation just before each: the completion search, while a
    /// byte-bounded flow is live, and the integration of an interval of
    /// positive length. Everything else it does — retiring spent flows,
    /// firing heap events — reads no rate. So an advance that does not
    /// move the clock over unbounded flows solves nothing, and leaves the
    /// dirty window to whichever reader comes next: a burst of capacity
    /// changes at one instant then shares one warm solve, bit-identical
    /// to a cold solve like every solve.
    pub fn run_until(&mut self, t: Nanos) {
        assert!(t >= self.now, "run_until({t}) would run the clock backwards from {}", self.now);
        loop {
            if !self.bounded.is_empty() {
                self.reallocate_if_dirty();
            }
            let next_ev = self.events.peek_time();
            let next_done = self.next_completion();
            // Heap events and completions never lie before `now`, so
            // `now ≤ target ≤ t`.
            let target = [Some(t), next_ev, next_done].into_iter().flatten().min().expect("t");
            if target > self.now {
                self.reallocate_if_dirty();
                self.integrate(target - self.now);
            }
            self.now = target;
            self.finish_completed();
            // Fire all events scheduled at exactly `target`.
            while self.events.peek_time().is_some_and(|at| at <= self.now) {
                let (_, ev) = self.events.pop().expect("peeked");
                self.dispatch(ev);
            }
            if self.now == t && next_ev.is_none_or(|e| e > t) && next_done.is_none_or(|d| d > t) {
                break;
            }
        }
    }

    /// Run until every bounded, tagged flow has completed (ignores
    /// unbounded background flows). Returns the final time.
    ///
    /// Panics if no progress is possible (e.g. an active flow with rate 0
    /// and no pending events), which indicates a modelling bug.
    pub fn run_to_completion(&mut self) -> Nanos {
        // Maintained at creation/retirement, so the check is O(1) instead
        // of a scan over all-time flow records per step.
        while self.unfinished_bounded > 0 {
            // The completion search reads rates, so it needs the solve.
            self.reallocate_if_dirty();
            let next_ev = self.events.peek_time();
            let target = [next_ev, self.next_completion()]
                .into_iter()
                .flatten()
                .min()
                .expect("no events and no completions but flows unfinished");
            self.run_until(target);
        }
        self.now
    }
}

impl OnOff {
    fn current_mean(&self) -> Nanos {
        if self.on {
            self.mean_on
        } else {
            self.mean_off
        }
    }
}
