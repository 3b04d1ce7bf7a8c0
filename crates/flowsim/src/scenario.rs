//! Parallel what-if scenario evaluation over cloned solver state.
//!
//! The allocation engine is a *pure function* of the live flow set
//! ([`FlowArena`] + capacities), and an arena clone is cheap (flat
//! buffers). That makes independent what-if scenarios — alternative
//! placements, failure cases, cross-traffic hypotheses — embarrassingly
//! parallel: give every worker thread its own arena clone and
//! [`MaxMinSolver`], score scenarios, and merge results by scenario index.
//!
//! Determinism is the design constraint, not an accident: results are
//! **bit-identical regardless of worker count**, because each scenario's
//! score depends only on `(base flow set, capacities, scenario)` and the
//! solver freezes rounds with order-insensitive arithmetic. The workspace
//! property suite pins this down for 1, 2 and 8 workers.

use std::sync::{Arc, OnceLock};

use crate::fairshare::{FlowArena, MaxMinSolver};
use crate::pool::SolvePool;

/// Per-worker evaluation context: a private arena clone plus reusable
/// solver and rate buffer.
///
/// Scenario closures may mutate the arena freely (add hypothetical flows,
/// remove victims) but **must restore it** — same live flow set on exit as
/// on entry — so later scenarios on the same worker start from the base
/// state. The pool checks the flow count in debug builds. Slot indices and
/// internal ordering may drift across scenarios; that is fine, the
/// allocation is a function of the flow *set*.
pub struct ScenarioCtx {
    /// Clone of the base flow set; restore it before returning.
    pub arena: FlowArena,
    /// Private solver (scratch state warms up across scenarios).
    pub solver: MaxMinSolver,
    /// Reusable rate buffer for solves.
    pub rates: Vec<f64>,
}

impl ScenarioCtx {
    /// Solve the context's current flow set into [`ScenarioCtx::rates`],
    /// **warm-starting** from the previous solve on this worker: scenario
    /// `i + 1` replays the freeze-round log scenario `i` left behind,
    /// re-running only the rounds its own mutations perturbed. Because a
    /// warm solve is bit-identical to a cold one, chaining changes
    /// nothing observable — results stay independent of worker count and
    /// of how scenarios are chunked — it just makes each worker's sweep
    /// cheaper. The log stays hot afterwards, so
    /// [`MaxMinSolver::probe_batch`] can follow directly.
    pub fn solve(&mut self, capacities: &[f64]) -> &[f64] {
        self.solver.solve_warm(capacities, &mut self.arena, &mut self.rates);
        &self.rates
    }
}

/// Fan-out evaluator for independent what-if scenarios.
///
/// ```
/// use choreo_flowsim::{FlowArena, ScenarioPool};
///
/// let mut arena = FlowArena::new(2);
/// arena.add(&[0]);
/// let caps = [10.0, 4.0];
/// // Score "what would a flow on this path get" for three paths. Each
/// // worker chains warm solves: `ctx.solve` replays the freeze rounds the
/// // previous scenario on that worker validated.
/// let paths: Vec<Vec<u32>> = vec![vec![0], vec![1], vec![0, 1]];
/// let scores = ScenarioPool::new(2).evaluate(&arena, &paths, |ctx, path| {
///     let probe = ctx.arena.add(path);
///     ctx.solve(&caps);
///     let rate = ctx.rates[probe.0 as usize];
///     ctx.arena.remove(probe); // restore the base state
///     rate
/// });
/// assert_eq!(scores, vec![5.0, 4.0, 4.0]);
/// ```
///
/// Worker count never affects results, only wall-clock.
///
/// The worker threads are a persistent [`SolvePool`], spawned lazily on
/// the first multi-worker [`ScenarioPool::evaluate`] and parked between
/// calls — steady-state evaluation never spawns a thread. Clones share
/// the pool (concurrent evaluates from clones serialize), so one warm
/// pool can serve a whole benchmark or service loop.
#[derive(Debug, Clone)]
pub struct ScenarioPool {
    workers: usize,
    /// Lazily spawned shared worker pool (`None` until the first
    /// evaluate that actually fans out).
    pool: Arc<OnceLock<SolvePool>>,
}

impl ScenarioPool {
    /// Pool with a fixed worker count (clamped to ≥ 1). Worker count
    /// affects wall-clock only, never results. No threads are spawned
    /// until the first [`ScenarioPool::evaluate`] that fans out.
    pub fn new(workers: usize) -> ScenarioPool {
        ScenarioPool { workers: workers.max(1), pool: Arc::new(OnceLock::new()) }
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// All-time jobs executed by the shared persistent pool (`0` before
    /// the first multi-worker evaluate). Strictly increases across
    /// evaluates on one (possibly cloned) pool while
    /// [`ScenarioPool::workers`] stays constant — the diagnostic that
    /// pins down pool reuse over fresh spawns.
    pub fn jobs_executed(&self) -> u64 {
        self.pool.get().map_or(0, SolvePool::jobs_executed)
    }

    /// Evaluate every scenario against a clone of `arena`, returning the
    /// scores **in scenario order** (the merge is deterministic: worker
    /// scheduling cannot reorder or interleave results).
    ///
    /// `eval` runs on worker threads; it gets a [`ScenarioCtx`] whose
    /// arena starts as a clone of `arena` and must be restored between
    /// scenarios (see [`ScenarioCtx`]). Scenarios are split into one
    /// contiguous chunk per worker, so each worker pays one arena clone.
    pub fn evaluate<S, R, F>(&self, arena: &FlowArena, scenarios: &[S], eval: F) -> Vec<R>
    where
        S: Sync,
        R: Send,
        F: Fn(&mut ScenarioCtx, &S) -> R + Sync,
    {
        let workers = self.workers.min(scenarios.len());
        if workers <= 1 {
            let mut ctx = new_ctx(arena);
            return scenarios.iter().map(|s| run_one(&mut ctx, &eval, s)).collect();
        }
        let chunk = scenarios.len().div_ceil(workers);
        let mut results: Vec<Option<R>> = Vec::with_capacity(scenarios.len());
        results.resize_with(scenarios.len(), || None);
        let pool = self.pool.get_or_init(|| SolvePool::new(self.workers));
        let mut tasks: Vec<ChunkTask<'_, S, R, F>> = scenarios
            .chunks(chunk)
            .zip(results.chunks_mut(chunk))
            .map(|(scenarios, results)| ChunkTask { arena, eval: &eval, scenarios, results })
            .collect();
        {
            let mut scope = pool.scope();
            for (i, t) in tasks.iter_mut().enumerate() {
                // Safety: each task points at a disjoint results chunk and
                // at Sync shared state; `tasks` outlives the scope, whose
                // drop drains every job even on unwind.
                unsafe {
                    scope.submit(
                        i as u32,
                        run_chunk::<S, R, F>,
                        (t as *mut ChunkTask<S, R, F>).cast(),
                    )
                };
            }
            for _ in 0..tasks.len() {
                scope.wait_done();
            }
        }
        results.into_iter().map(|r| r.expect("every chunk was evaluated")).collect()
    }
}

/// Raw-pointer job payload for one worker's scenario chunk.
struct ChunkTask<'a, S, R, F> {
    arena: &'a FlowArena,
    eval: &'a F,
    scenarios: &'a [S],
    results: &'a mut [Option<R>],
}

/// Pool trampoline, monomorphized per scenario/result/closure type:
/// evaluate one contiguous chunk with a private warm-chained context.
///
/// # Safety
///
/// `p` must point at a live [`ChunkTask`] of matching `S, R, F` that
/// this job exclusively owns until it is reported done; `S: Sync`,
/// `R: Send` and `F: Sync` (enforced by [`ScenarioPool::evaluate`])
/// make the pointee safe to use from the worker thread.
unsafe fn run_chunk<S, R, F>(p: *mut ())
where
    F: Fn(&mut ScenarioCtx, &S) -> R,
{
    let t = &mut *(p.cast::<ChunkTask<'_, S, R, F>>());
    let mut ctx = new_ctx(t.arena);
    for (s, slot) in t.scenarios.iter().zip(t.results.iter_mut()) {
        *slot = Some(run_one(&mut ctx, t.eval, s));
    }
}

fn new_ctx(arena: &FlowArena) -> ScenarioCtx {
    ScenarioCtx { arena: arena.clone(), solver: MaxMinSolver::new(), rates: Vec::new() }
}

fn run_one<S, R, F>(ctx: &mut ScenarioCtx, eval: &F, scenario: &S) -> R
where
    F: Fn(&mut ScenarioCtx, &S) -> R,
{
    let flows_before = ctx.arena.n_flows();
    let result = eval(ctx, scenario);
    debug_assert_eq!(
        flows_before,
        ctx.arena.n_flows(),
        "scenario closure must restore the arena to the base flow set"
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairshare::ProbeBatch;

    /// A small congested base set over 6 resources.
    fn base() -> (Vec<f64>, FlowArena) {
        let caps = vec![10.0, 8.0, 6.0, 12.0, 5.0, 300.0];
        let mut arena = FlowArena::new(caps.len());
        for f in [
            vec![0u32, 1],
            vec![1, 2],
            vec![2, 3],
            vec![3, 4],
            vec![4, 5],
            vec![0, 5],
            vec![1, 3, 5],
        ] {
            arena.add(&f);
        }
        (caps, arena)
    }

    fn scenarios() -> Vec<Vec<u32>> {
        (0..40u32)
            .map(|i| {
                let a = i % 6;
                let b = (i * 7 + 1) % 6;
                if a == b {
                    vec![a]
                } else {
                    vec![a.min(b), a.max(b)]
                }
            })
            .collect()
    }

    #[test]
    fn results_are_bit_identical_across_worker_counts() {
        let (caps, arena) = base();
        let scen = scenarios();
        // Warm-chained per worker: scenario i+1 replays scenario i's log.
        let score = |ctx: &mut ScenarioCtx, path: &Vec<u32>| {
            let probe = ctx.arena.add(path);
            ctx.solve(&caps);
            let rate = ctx.rates[probe.0 as usize];
            ctx.arena.remove(probe);
            rate.to_bits()
        };
        let serial = ScenarioPool::new(1).evaluate(&arena, &scen, score);
        for workers in [2usize, 3, 8, 64] {
            let parallel = ScenarioPool::new(workers).evaluate(&arena, &scen, score);
            assert_eq!(serial, parallel, "{workers} workers diverged from serial");
        }
        // Warm chaining is an implementation detail: a pool whose closure
        // cold-solves every scenario must produce the same bits.
        let cold = ScenarioPool::new(3).evaluate(&arena, &scen, |ctx, path: &Vec<u32>| {
            let probe = ctx.arena.add(path);
            ctx.solver.solve_logged(&caps, &ctx.arena, &mut ctx.rates);
            let rate = ctx.rates[probe.0 as usize];
            ctx.arena.remove(probe);
            rate.to_bits()
        });
        assert_eq!(serial, cold, "warm-chained workers diverged from cold solves");
    }

    #[test]
    fn pool_composes_with_probe_batches() {
        // Each scenario = one *batch* of candidate probes under a
        // hypothetical extra background flow: the batched and parallel
        // layers stack.
        let (caps, arena) = base();
        let hypos: Vec<Vec<u32>> = vec![vec![0], vec![2, 4], vec![5]];
        let out = ScenarioPool::new(2).evaluate(&arena, &hypos, |ctx, hypo| {
            let bg = ctx.arena.add(hypo);
            let mut batch = ProbeBatch::new();
            batch.push(&[0, 1]);
            batch.push(&[3]);
            let mut rates = Vec::new();
            ctx.solver.solve_batch(&caps, &ctx.arena, &batch, &mut ctx.rates, &mut rates);
            ctx.arena.remove(bg);
            (rates[0].to_bits(), rates[1].to_bits())
        });
        let serial = ScenarioPool::new(1).evaluate(&arena, &hypos, |ctx, hypo| {
            let bg = ctx.arena.add(hypo);
            let mut batch = ProbeBatch::new();
            batch.push(&[0, 1]);
            batch.push(&[3]);
            let mut rates = Vec::new();
            ctx.solver.solve_batch(&caps, &ctx.arena, &batch, &mut ctx.rates, &mut rates);
            ctx.arena.remove(bg);
            (rates[0].to_bits(), rates[1].to_bits())
        });
        assert_eq!(out, serial);
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let (caps, arena) = base();
        let none: Vec<Vec<u32>> = Vec::new();
        let out = ScenarioPool::new(8).evaluate(&arena, &none, |_, _: &Vec<u32>| 0u64);
        assert!(out.is_empty());
        let one = vec![vec![0u32]];
        let out = ScenarioPool::new(8).evaluate(&arena, &one, |ctx, p| {
            let probe = ctx.arena.add(p);
            ctx.solver.solve_logged(&caps, &ctx.arena, &mut ctx.rates);
            let r = ctx.rates[probe.0 as usize];
            ctx.arena.remove(probe);
            r
        });
        assert_eq!(out.len(), 1);
        assert!(out[0] > 0.0);
    }

    #[test]
    fn evaluate_reuses_one_persistent_pool_across_calls_and_clones() {
        let (caps, arena) = base();
        let scen = scenarios();
        let pool = ScenarioPool::new(2);
        assert_eq!(pool.jobs_executed(), 0, "no threads, no jobs before the first evaluate");
        let score = |ctx: &mut ScenarioCtx, path: &Vec<u32>| {
            let probe = ctx.arena.add(path);
            ctx.solve(&caps);
            let rate = ctx.rates[probe.0 as usize];
            ctx.arena.remove(probe);
            rate.to_bits()
        };
        let first = pool.evaluate(&arena, &scen, score);
        let jobs = pool.jobs_executed();
        assert!(jobs >= 2, "fan-out went through the pool (got {jobs})");
        // A clone shares the same warm pool rather than spawning its own.
        let clone = pool.clone();
        let second = clone.evaluate(&arena, &scen, score);
        assert_eq!(first, second);
        assert!(pool.jobs_executed() > jobs, "clone reused the shared pool");
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn a_pool_has_at_least_one_worker() {
        assert_eq!(ScenarioPool::new(0).workers(), 1);
    }
}
