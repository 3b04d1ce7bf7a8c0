//! Sharded max-min solves: pod-local progressive filling fanned across
//! workers, plus a cross-shard reconciliation pass — bit-identical to a
//! cold [`MaxMinSolver::solve_logged`] of the whole arena.
//!
//! # Shard lifecycle: partition → local solve → reconcile
//!
//! 1. **Partition.** A [`ResourcePartition`] maps every solver resource
//!    to a shard: one shard per topology pod
//!    ([`choreo_topology::PodPartition`]) plus a shared **spine** shard
//!    for uplinks, core links and any resource the partition does not
//!    know (hoses registered after construction). A flow is **local** to
//!    pod `p` iff every resource it crosses belongs to `p`; all other
//!    flows — cross-pod paths, anything touching the spine — are
//!    **boundary** flows.
//! 2. **Local solve.** [`ShardedArena::split`] maintains one sub-arena
//!    per pod (full resource-id space, local flows only, sub-slot →
//!    global slot maps) plus the boundary flows' resources —
//!    **incrementally**, replaying the arena's dirty-slot window so
//!    steady churn reclassifies only the churned flows. Shards share no
//!    resources and no flows, so their solves are embarrassingly
//!    parallel: [`ShardedSolver`] re-solves just the pods the churn
//!    touched (each warm-started off its own shard log — bit-identical
//!    to a cold shard solve), dispatched as jobs to a persistent
//!    [`SolvePool`] of parked workers (spawned once,
//!    on the first multi-shard solve, and reused for every solve after).
//! 3. **Reconcile.** Shard resource sets are disjoint, so each log's
//!    next key is what that shard would offer one global heap: taking
//!    the smallest head key, round after round, *is* the freeze-round
//!    log a cold solve of all local flows together would record (this
//!    needs no ordering inside a log — keys are not monotone, see
//!    `RoundLog::keys`) — and since such head merges associate, the
//!    driver merges each shard log **as its solve completes**
//!    (completion order) instead of joining all shards first,
//!    overlapping late shards with the merge of early ones. Merging goes
//!    through the log's round-append API (`RoundLog::round` /
//!    `RoundLog::push_round`), remapping shard-local freeze slots to
//!    global ones. The boundary flows are then exactly "flows added
//!    since that log was recorded", which is the warm-solve contract:
//!    the main solver adopts the merged rounds as its own log (one bulk
//!    build of the per-resource and per-slot indexes, the local flows'
//!    rates written from their rounds) and runs the warm walk over it,
//!    seeded with the boundary flows' resources — carrying each
//!    shard-local round in O(1) and running live rounds only where a
//!    boundary flow's presence makes a shard-local level disagree. It is
//!    the same walk, and therefore the same bit-identity argument, as
//!    [`MaxMinSolver::solve_warm`].
//!
//! The reconciliation leaves the main solver's log valid for the full
//! arena, so probes, batched what-ifs and later warm solves chain off a
//! sharded solve transparently.
//!
//! # When sharding helps — and when it falls back
//!
//! Sharding pays when the topology has ≥ 2 pods and most flows are
//! pod-local (the common case in pod-structured datacenters): the local
//! solves split the progressive-filling work across cores and the
//! reconciliation touches only the boundary. Degenerate partitions stay
//! *correct* but not faster: a single-pod topology makes everything one
//! local solve, an all-flows-cross-pod workload (e.g. a dumbbell, where
//! both ToRs are spine) makes the reconciliation do all the work live,
//! and empty pods contribute empty logs. [`FlowSim`](crate::FlowSim)
//! therefore only routes reallocation through
//! [`ShardedSolver::solve_sharded`] when its partition found at least
//! two pods owning intra-pod links ([`ResourcePartition::link_pods`] —
//! a dumbbell's singleton-host pods carry no local flows), falling back
//! to warm/cold solves otherwise ([`crate::FlowSim::set_solver_mode`]).

use choreo_metrics::span;
use choreo_topology::{PodPartition, Topology};

use crate::fairshare::{FlowArena, FlowSlot, MaxMinSolver, RoundLog};
use crate::pool::SolvePool;

/// Maps solver resource ids to shards: pods `0..n_pods` plus the spine.
///
/// Resource ids beyond the map (e.g. hoses registered with
/// [`crate::FlowSim::add_hose`] after the partition was built) are
/// spine, which is always safe: flows crossing them become boundary
/// flows and are reconciled live.
#[derive(Debug, Clone)]
pub struct ResourcePartition {
    /// Per resource: pod id, or `n_pods` for spine.
    shard: Vec<u32>,
    n_pods: u32,
    /// Pods owning at least one intra-pod *link* (not just a loopback) —
    /// the pods that can actually carry pod-local network flows.
    link_pods: u32,
}

impl ResourcePartition {
    /// Partition from an explicit per-resource shard map; `shard[r]` must
    /// be a pod id `< n_pods` or exactly `n_pods` (the spine). Every pod
    /// is assumed link-bearing ([`ResourcePartition::link_pods`]).
    pub fn new(n_pods: usize, shard: Vec<u32>) -> ResourcePartition {
        assert!(n_pods < u32::MAX as usize, "pod count overflow");
        for (r, &s) in shard.iter().enumerate() {
            assert!(s <= n_pods as u32, "resource {r}: shard {s} out of range (spine = {n_pods})");
        }
        ResourcePartition { shard, n_pods: n_pods as u32, link_pods: n_pods as u32 }
    }

    /// Partition for the [`crate::FlowSim`] resource layout over `topo`:
    /// the `2·L` directed links (forward then reverse, per link — the
    /// [`crate::hop_resource`] mapping) followed by one loopback per
    /// host. Links and loopbacks inherit their pod from
    /// [`PodPartition::of`]; uplinks, core links and everything
    /// registered later (hoses) are spine.
    pub fn for_topology(topo: &Topology) -> ResourcePartition {
        let pods = PodPartition::of(topo);
        let spine = pods.n_pods() as u32;
        let mut shard = Vec::with_capacity(topo.link_count() * 2 + topo.hosts().len());
        for l in topo.links() {
            let p = pods.pod_of_link(l).unwrap_or(spine);
            shard.push(p); // forward direction
            shard.push(p); // reverse direction
        }
        for &h in topo.hosts() {
            shard.push(pods.pod_of_node(h).unwrap_or(spine));
        }
        let link_pods = pods.pods_with_links(topo) as u32;
        ResourcePartition { shard, n_pods: spine, link_pods }
    }

    /// Number of pod shards (the spine is extra).
    pub fn n_pods(&self) -> usize {
        self.n_pods as usize
    }

    /// Pods that own at least one intra-pod link — the ones that can
    /// carry pod-local network flows. A dumbbell partitions into 2·N
    /// singleton-host pods but `link_pods() == 0`: there is no local
    /// work to fan out, so routing layers (e.g.
    /// [`crate::FlowSim::set_solver_mode`]) should fall back to warm
    /// solves below 2.
    pub fn link_pods(&self) -> usize {
        self.link_pods as usize
    }

    /// The spine's shard id (`n_pods`).
    pub fn spine(&self) -> u32 {
        self.n_pods
    }

    /// Shard of resource `r`; ids beyond the map are spine.
    #[inline]
    pub fn shard_of(&self, r: u32) -> u32 {
        self.shard.get(r as usize).copied().unwrap_or(self.n_pods)
    }
}

/// `slot_class` sentinel: the global slot holds a boundary flow.
const CLASS_BOUNDARY: u32 = u32::MAX;
/// `slot_class` sentinel: the global slot holds no classified flow.
const CLASS_VACANT: u32 = u32::MAX - 1;

/// Sharded view of a [`FlowArena`]: per-pod sub-arenas of the pod-local
/// flows plus the boundary set of cross-pod flows.
///
/// The view is maintained **incrementally**: the first
/// [`ShardedArena::split`] classifies every live flow, and later splits
/// replay only the arena's [`FlowArena::dirty_slots`] window — evicting
/// each churned slot's old classification and re-inserting its current
/// flow — while flagging the pods whose sub-arena changed
/// ([`ShardedArena::is_sub_dirty`]) so the driver re-solves only those.
/// All buffers (sub-arenas, slot maps, boundary lists) are retained, so
/// a steady-state re-split performs no heap allocation once warm.
///
/// Incremental maintenance shares the warm-solve contract: the view must
/// be the dirty window's only consumer chain on its arena (an
/// interleaved foreign `solve_warm` that closes the window hides churn
/// from the view; the reconciliation's per-round validation then panics
/// rather than diverge silently), and one view must be driven with one
/// partition.
#[derive(Debug, Default)]
pub struct ShardedArena {
    /// One sub-arena per pod, over the full resource-id space (so shard
    /// logs speak global resource ids and merge without translation).
    subs: Vec<FlowArena>,
    /// Per pod: sub-arena slot → global arena slot (entries for vacant
    /// sub-slots are stale and never read).
    sub_slots: Vec<Vec<u32>>,
    /// Global slot → its pod's sub-arena slot (valid while classified
    /// local).
    sub_slot_of: Vec<u32>,
    /// Global slot → pod id, [`CLASS_BOUNDARY`] or [`CLASS_VACANT`].
    slot_class: Vec<u32>,
    /// Global slots of the boundary flows.
    boundary: Vec<u32>,
    /// Global slot → its index in `boundary` (valid while boundary).
    boundary_pos: Vec<u32>,
    /// Deduplicated resources crossed by boundary flows — the
    /// perturbation seed for the reconciliation walk, rebuilt per split.
    boundary_res: Vec<u32>,
    /// Per-resource membership flag for `boundary_res`.
    seed_mark: Vec<bool>,
    /// Per pod: sub-arena changed since its shard was last solved.
    sub_dirty: Vec<bool>,
    /// Pods in use by the last split (≤ `subs.len()`).
    n_pods: usize,
    n_local: usize,
    /// Arena generation the view matches (`None` = full rebuild needed).
    valid_gen: Option<u64>,
}

impl ShardedArena {
    /// Fresh, empty view.
    pub fn new() -> ShardedArena {
        ShardedArena::default()
    }

    /// Bring the view up to date with `arena` under `part`: a full
    /// classification on first use (or after a pod-count change), an
    /// incremental replay of the arena's dirty-slot window otherwise,
    /// and a no-op when the arena generation already matches. Marks the
    /// touched pods dirty; does **not** close the dirty window (the
    /// reconciliation walk does, right after the shard solves).
    pub fn split(&mut self, arena: &FlowArena, part: &ResourcePartition) {
        let n_pods = part.n_pods();
        let nr = arena.n_resources();
        let nslots = arena.slot_bound();
        if self.subs.len() < n_pods {
            self.subs.resize_with(n_pods, FlowArena::default);
            self.sub_slots.resize_with(n_pods, Vec::new);
        }
        if self.sub_dirty.len() < n_pods {
            self.sub_dirty.resize(n_pods, false);
        }
        for sub in &mut self.subs {
            sub.grow_resources(nr);
        }
        if self.seed_mark.len() < nr {
            self.seed_mark.resize(nr, false);
        }
        if self.slot_class.len() < nslots {
            self.slot_class.resize(nslots, CLASS_VACANT);
            self.sub_slot_of.resize(nslots, 0);
            self.boundary_pos.resize(nslots, 0);
        }
        if self.valid_gen.is_none() || self.n_pods != n_pods {
            // Full rebuild: drop every prior classification, then insert
            // the whole live set. Sub-arena slots, pool blocks and
            // reverse-index lists are recycled, not freed.
            self.n_pods = n_pods;
            for (p, sub) in self.subs.iter_mut().enumerate() {
                for s in 0..sub.slot_bound() as u32 {
                    if sub.is_live(FlowSlot(s)) {
                        sub.remove(FlowSlot(s));
                    }
                }
                if p < n_pods {
                    self.sub_dirty[p] = true;
                }
            }
            self.slot_class.fill(CLASS_VACANT);
            self.boundary.clear();
            self.n_local = 0;
            for (slot, res) in arena.iter() {
                self.classify_insert(slot.0, res, part);
            }
        } else if self.valid_gen != Some(arena.generation()) {
            // Incremental: the dirty-slot window names exactly the slots
            // whose flows changed since the view last matched (this
            // view's reconciliation closed the window then).
            for &s in arena.dirty_slots() {
                self.evict(s);
                if arena.is_live(FlowSlot(s)) {
                    self.classify_insert(s, arena.resources(FlowSlot(s)), part);
                }
            }
        }
        self.valid_gen = Some(arena.generation());
        // Capacity changes ([`FlowArena::touch_resource`]) ride the same
        // dirty window as flow churn but touch no slot: seed each one into
        // its owning pod's sub-arena — the pod's warm re-solve then treats
        // the resource as perturbed and re-solves bit-identical to a cold
        // shard solve at the new capacity — and mark the pod dirty so the
        // driver actually re-solves it. Spine-owned changes need no pod
        // work: spine resources are crossed only by boundary flows, which
        // the reconciliation runs live (and the seed below covers them).
        for &r in arena.dirty_capacities() {
            let p = part.shard_of(r) as usize;
            if p < n_pods {
                self.subs[p].touch_resource(r);
                self.sub_dirty[p] = true;
            }
        }
        // The boundary seed is a function of the current boundary set;
        // rebuild it (O(boundary path lengths)).
        for &r in &self.boundary_res {
            self.seed_mark[r as usize] = false;
        }
        self.boundary_res.clear();
        for &s in &self.boundary {
            for &r in arena.resources(FlowSlot(s)) {
                let ri = r as usize;
                if !self.seed_mark[ri] {
                    self.seed_mark[ri] = true;
                    self.boundary_res.push(r);
                }
            }
        }
        // Capacity-dirty resources join the reconciliation seed too — a
        // safe over-approximation (the walk just checks their live shares
        // explicitly) that keeps spine capacity changes covered even when
        // no boundary flow currently crosses them.
        for &r in arena.dirty_capacities() {
            let ri = r as usize;
            if !self.seed_mark[ri] {
                self.seed_mark[ri] = true;
                self.boundary_res.push(r);
            }
        }
    }

    /// Drop global slot `s`'s current classification, if any.
    fn evict(&mut self, s: u32) {
        let si = s as usize;
        match self.slot_class[si] {
            CLASS_VACANT => {}
            CLASS_BOUNDARY => {
                let i = self.boundary_pos[si] as usize;
                self.boundary.swap_remove(i);
                if i < self.boundary.len() {
                    self.boundary_pos[self.boundary[i] as usize] = i as u32;
                }
                self.slot_class[si] = CLASS_VACANT;
            }
            p => {
                self.subs[p as usize].remove(FlowSlot(self.sub_slot_of[si]));
                self.sub_dirty[p as usize] = true;
                self.slot_class[si] = CLASS_VACANT;
                self.n_local -= 1;
            }
        }
    }

    /// Classify the flow in global slot `s` (crossing `res`) and record
    /// it as pod-local or boundary.
    fn classify_insert(&mut self, s: u32, res: &[u32], part: &ResourcePartition) {
        let si = s as usize;
        debug_assert_eq!(self.slot_class[si], CLASS_VACANT);
        // A flow is local iff all its resources share one pod shard.
        let pod = part.shard_of(res[0]);
        let local = pod != part.spine() && res[1..].iter().all(|&r| part.shard_of(r) == pod);
        if local {
            let p = pod as usize;
            let sub_slot = self.subs[p].add(res).0;
            if self.sub_slots[p].len() <= sub_slot as usize {
                self.sub_slots[p].resize(sub_slot as usize + 1, 0);
            }
            self.sub_slots[p][sub_slot as usize] = s;
            self.sub_slot_of[si] = sub_slot;
            self.slot_class[si] = pod;
            self.sub_dirty[p] = true;
            self.n_local += 1;
        } else {
            self.boundary_pos[si] = self.boundary.len() as u32;
            self.boundary.push(s);
            self.slot_class[si] = CLASS_BOUNDARY;
        }
    }

    /// Pods in the last split.
    pub fn n_pods(&self) -> usize {
        self.n_pods
    }

    /// Pod-local flows in the last split.
    pub fn n_local(&self) -> usize {
        self.n_local
    }

    /// Boundary (cross-pod / spine-touching) flows in the last split.
    pub fn n_boundary(&self) -> usize {
        self.boundary.len()
    }

    /// Has pod `p`'s sub-arena changed since its shard was last solved?
    pub fn is_sub_dirty(&self, p: usize) -> bool {
        self.sub_dirty[p]
    }

    /// Distinct resources crossed by boundary flows (the reconciliation
    /// walk's live perturbation seed).
    pub fn boundary_resources(&self) -> &[u32] {
        &self.boundary_res
    }

    /// Drop the arena binding: the next [`ShardedArena::split`] performs
    /// a full reclassification instead of replaying a dirty window
    /// recorded against a different (or restarted) arena. This is what
    /// lets one view — and the solver machinery warmed around it — serve
    /// different arenas sequentially ([`ShardedSolver::reset`]).
    pub fn invalidate(&mut self) {
        self.valid_gen = None;
    }
}

/// Per-shard solver context (scratch persists across solves).
#[derive(Debug, Default)]
struct ShardCtx {
    solver: MaxMinSolver,
    rates: Vec<f64>,
}

/// Raw-pointer job payload for one shard's warm solve on the pool.
///
/// The pointers are derived from the owning vectors' base pointers, one
/// disjoint element per task, and stay valid for the dispatch scope's
/// lifetime: while jobs run, `solve_sharded` touches `view.subs` and
/// `ctxs` only through those same base pointers (never through fresh
/// references into the vectors, which would alias the workers' writes).
#[derive(Debug)]
struct ShardTask {
    pod: u32,
    sub: *mut FlowArena,
    ctx: *mut ShardCtx,
    caps: *const f64,
    cap_len: usize,
}

/// Pool trampoline: warm-solve one shard in place.
///
/// # Safety
///
/// `p` must point at a live [`ShardTask`] whose `sub`/`ctx` this job
/// exclusively owns until its tag is collected (the
/// [`PoolScope`](crate::pool) contract `solve_sharded` upholds).
unsafe fn run_shard(p: *mut ()) {
    let t = &*(p.cast::<ShardTask>());
    let caps = std::slice::from_raw_parts(t.caps, t.cap_len);
    let ctx = &mut *t.ctx;
    ctx.solver.solve_warm(caps, &mut *t.sub, &mut ctx.rates);
}

/// Sharded solve driver: splits, fans the shard-local solves across a
/// persistent worker pool, merges each shard log as it completes, and
/// reconciles on the caller's main solver.
///
/// Reuse one instance: the split is incremental (only churned slots are
/// reclassified), clean shards keep their previous solve's log instead
/// of re-solving, the worker pool is spawned once (lazily, on the first
/// solve with ≥ 2 dirty shards) and parks between solves, and
/// sub-arenas, per-shard solvers and the merged log all retain their
/// buffers — a steady-state sharded re-solve performs no heap
/// allocation and no thread spawn once warm, on the single- and
/// multi-worker paths alike. The flip side of the chaining is the
/// warm-solve contract: between consecutive `solve_sharded` calls on
/// one arena, no other consumer may close the arena's dirty window, an
/// existing resource's capacity may change only when announced
/// through [`FlowArena::touch_resource`] (growing the space for new
/// resources is always fine), and `rates` must be the buffer the main
/// solver's previous solve filled, changed at most by zeroing vacant
/// slots ([`MaxMinSolver::solve_warm`] states why; a shorter buffer
/// panics). To re-point a solver (and its warm pool)
/// at a **different** arena, call [`ShardedSolver::reset`] first.
#[derive(Debug, Default)]
pub struct ShardedSolver {
    view: ShardedArena,
    ctxs: Vec<ShardCtx>,
    /// The merged shard rounds; after a solve, the round storage the main
    /// solver's log held before it (the two swap on adoption).
    merged: RoundLog,
    /// Ping-pong buffer for the completion-order pairwise merge.
    merge_tmp: RoundLog,
    /// Per shard: next round to merge (serial k-way merge path).
    cursors: Vec<u32>,
    /// Job payloads for the pooled path (retained capacity; the raw
    /// pointers inside are dead between solves).
    tasks: Vec<ShardTask>,
    /// Lazily spawned persistent worker pool (`None` until the first
    /// solve that actually fans out).
    pool: Option<SolvePool>,
    workers: usize,
    /// Observability: dirty shards the last solve re-solved (its fan-out
    /// width). Never read by the solve itself.
    last_dirty_shards: u32,
}

impl ShardedSolver {
    /// Solver fanning shard-local solves across `workers` threads
    /// (`0` = auto, one per available core; clamped to ≥ 1). Worker
    /// count affects wall-clock only, never results.
    pub fn new(workers: usize) -> ShardedSolver {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };
        ShardedSolver { workers, ..ShardedSolver::default() }
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The sharded view of the last solve (tests / diagnostics).
    pub fn view(&self) -> &ShardedArena {
        &self.view
    }

    /// All-time job count of the persistent worker pool (`0` before the
    /// first solve that fanned out). Strictly increases across pooled
    /// solves while [`ShardedSolver::workers`] stays constant — the
    /// diagnostic that pins down pool reuse over fresh spawns.
    pub fn pool_jobs_executed(&self) -> u64 {
        self.pool.as_ref().map_or(0, SolvePool::jobs_executed)
    }

    /// Dirty shards the last [`ShardedSolver::solve_sharded`] re-solved —
    /// the solve's fan-out width (clean shards reuse their retained
    /// logs). Diagnostics only.
    pub fn last_dirty_shards(&self) -> u32 {
        self.last_dirty_shards
    }

    /// Forget the current arena binding: the next solve fully re-splits
    /// the view and re-solves every shard instead of replaying a dirty
    /// window recorded against a different arena. Call this when
    /// re-pointing one solver — with its warm worker pool — at another
    /// simulation's arena (two simulations sharing one solver
    /// sequentially); the pool and all retained buffers survive.
    pub fn reset(&mut self) {
        self.view.invalidate();
    }

    /// Sharded max-min solve of `arena` under `part`: incremental split,
    /// warm-started re-solves of the churned shards (fanned across this
    /// solver's workers), log merge, and the reconciliation walk on
    /// `solver` — **bit-identical** to
    /// `solver.solve_logged(capacities, arena, rates)`, and leaving
    /// `solver`'s log equally valid (probes and warm solves chain).
    ///
    /// Handles degenerate partitions without special cases: one pod means
    /// one local solve and an empty boundary; an all-boundary flow set
    /// (no pod structure in the paths) reconciles everything live; empty
    /// pods contribute empty logs. Like [`MaxMinSolver::solve_warm`],
    /// this consumes the arena's dirty window (the recorded log is
    /// current for the arena), so it composes with warm-chaining callers.
    ///
    /// `part` must describe `arena`'s resource ids (resources beyond the
    /// partition are treated as spine, so growing the arena after
    /// building the partition is safe — new resources just push flows
    /// into the boundary).
    pub fn solve_sharded(
        &mut self,
        capacities: &[f64],
        arena: &mut FlowArena,
        part: &ResourcePartition,
        solver: &mut MaxMinSolver,
        rates: &mut Vec<f64>,
    ) {
        self.view.split(arena, part);
        let n_pods = self.view.n_pods();
        if self.ctxs.len() < n_pods {
            self.ctxs.resize_with(n_pods, ShardCtx::default);
        }
        // Re-solve only the shards the churn touched; a clean shard's
        // previous log is still exact (its sub-arena did not change, and
        // any capacity change would have marked its pod dirty via the
        // split's capacity propagation — the warm-solve contract). Each
        // shard re-solve is itself warm-started off the shard's previous
        // log via the sub-arena's own dirty window, which this driver
        // exclusively owns — bit-identical to a cold shard solve, so the
        // merged log is unaffected.
        let n_dirty = self.view.sub_dirty[..n_pods].iter().filter(|&&d| d).count();
        self.last_dirty_shards = n_dirty as u32;
        if self.workers.min(n_dirty) <= 1 {
            // Serial path: solve the dirty shards in place, k-way merge,
            // then the reconciliation walk.
            for (p, (sub, ctx)) in
                self.view.subs[..n_pods].iter_mut().zip(&mut self.ctxs[..n_pods]).enumerate()
            {
                if self.view.sub_dirty[p] {
                    ctx.solver.solve_warm(capacities, sub, &mut ctx.rates);
                }
            }
            self.view.sub_dirty[..n_pods].fill(false);
            self.merge_shard_logs();
            solver.solve_over(&mut self.merged, capacities, arena, rates, &self.view.boundary_res);
            return;
        }
        // Pipelined path: dispatch the dirty shards to the persistent
        // pool, merge the clean shards' logs on this thread while the
        // workers solve, then fold each dirty shard's log in the moment it
        // completes.
        // Pairwise merges of disjoint sorted key sequences associate, so
        // folding in completion order yields exactly the serial k-way
        // merge — worker scheduling cannot change a bit of the result.
        let workers = self.workers;
        let pool = self.pool.get_or_insert_with(|| SolvePool::new(workers));
        self.tasks.clear();
        let subs = self.view.subs.as_mut_ptr();
        let ctxs = self.ctxs.as_mut_ptr();
        for p in 0..n_pods {
            if self.view.sub_dirty[p] {
                // Safety: distinct pods → disjoint elements; the vectors
                // are not reallocated or referenced while jobs run.
                self.tasks.push(ShardTask {
                    pod: p as u32,
                    sub: unsafe { subs.add(p) },
                    ctx: unsafe { ctxs.add(p) },
                    caps: capacities.as_ptr(),
                    cap_len: capacities.len(),
                });
            }
        }
        let mut scope = pool.scope();
        for t in &mut self.tasks {
            // Safety: each task's pointers are valid, disjoint and Send;
            // the scope's drain guard keeps them alive past any unwind.
            unsafe { scope.submit(t.pod, run_shard, (t as *mut ShardTask).cast()) };
        }
        // Overlap: fold in the clean shards' retained logs. Shard state is
        // read through the same raw bases the jobs hold (a reference into
        // the vectors here would alias the workers' writes).
        self.merged.clear();
        for p in 0..n_pods {
            if !self.view.sub_dirty[p] {
                // Safety: a clean shard has no job mutating it.
                let log = unsafe { &(*ctxs.add(p)).solver }.solve_log();
                merge_pair(&mut self.merge_tmp, &self.merged, log, &self.view.sub_slots[p]);
                std::mem::swap(&mut self.merged, &mut self.merge_tmp);
            }
        }
        // Fold each dirty shard's log in completion order. The span times
        // the whole collect-and-fold loop: queue wait on the pool plus the
        // overlapped pairwise merges.
        let pool_wait = span::start("pool_wait");
        for _ in 0..self.tasks.len() {
            let p = scope.wait_done() as usize;
            // Safety: shard p's job is done (wait_done synchronizes), so
            // its ctx is quiescent; other shards stay untouched.
            let log = unsafe { &(*ctxs.add(p)).solver }.solve_log();
            merge_pair(&mut self.merge_tmp, &self.merged, log, &self.view.sub_slots[p]);
            std::mem::swap(&mut self.merged, &mut self.merge_tmp);
        }
        drop(pool_wait);
        drop(scope); // all jobs collected: instant drain, panics surface
        self.view.sub_dirty[..n_pods].fill(false);
        solver.solve_over(&mut self.merged, capacities, arena, rates, &self.view.boundary_res);
    }

    /// K-way merge of the shard logs by bottleneck key into
    /// `self.merged`, remapping shard-local freeze slots to global ones.
    ///
    /// Shards own disjoint resource sets, so no two logs share a key, and
    /// the smallest head key is what a global heap would pop next — the
    /// merge order is the global freeze order of a solve of all local
    /// flows together.
    fn merge_shard_logs(&mut self) {
        let n_pods = self.view.n_pods();
        self.merged.clear();
        self.cursors.clear();
        self.cursors.resize(n_pods, 0);
        loop {
            let mut best: Option<(u128, usize)> = None;
            for (p, ctx) in self.ctxs[..n_pods].iter().enumerate() {
                let log = ctx.solver.solve_log();
                let k = self.cursors[p] as usize;
                if k < log.len() && best.is_none_or(|(b, _)| log.key(k) < b) {
                    best = Some((log.key(k), p));
                }
            }
            let Some((_, p)) = best else { break };
            let (key, level, touched, freeze) =
                self.ctxs[p].solver.solve_log().round(self.cursors[p] as usize);
            let map = &self.view.sub_slots[p];
            self.merged.push_round(key, level, touched, freeze.iter().map(|&s| map[s as usize]));
            self.cursors[p] += 1;
        }
    }
}

// Safety: the raw pointers inside `tasks` are only live while a
// `solve_sharded` call is on the stack — which holds `&mut self`, so the
// solver cannot be moved or accessed from another thread meanwhile.
// Between solves the pointers are dangling and never dereferenced; all
// pointees (FlowArena, ShardCtx, f64) are Send + Sync data.
unsafe impl Send for ShardedSolver {}
unsafe impl Sync for ShardedSolver {}

/// Two-pointer merge by bottleneck key of `a` (freeze slots already
/// global) and shard log `b` (sub-arena freeze slots, remapped through
/// `map`) into `dst`.
///
/// Keys are disjoint across shards and each step takes the smaller
/// head, so pairwise merging associates: folding shard logs into a
/// running merge in **any** order — in particular, job completion
/// order — produces exactly the k-way merge of
/// [`ShardedSolver::merge_shard_logs`].
fn merge_pair(dst: &mut RoundLog, a: &RoundLog, b: &RoundLog, map: &[u32]) {
    dst.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        if j >= b.len() || (i < a.len() && a.key(i) < b.key(j)) {
            let (key, level, touched, freeze) = a.round(i);
            dst.push_round(key, level, touched, freeze.iter().copied());
            i += 1;
        } else {
            let (key, level, touched, freeze) = b.round(j);
            dst.push_round(key, level, touched, freeze.iter().map(|&s| map[s as usize]));
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 pods of 2 resources each (0-1, 2-3, 4-5) plus spine 6-7.
    fn part3() -> ResourcePartition {
        ResourcePartition::new(3, vec![0, 0, 1, 1, 2, 2, 3, 3])
    }

    fn assert_sharded_matches_cold(
        caps: &[f64],
        arena: &mut FlowArena,
        part: &ResourcePartition,
        workers: usize,
    ) {
        let mut sharded = ShardedSolver::new(workers);
        let mut main = MaxMinSolver::new();
        let mut rates = Vec::new();
        sharded.solve_sharded(caps, arena, part, &mut main, &mut rates);
        let mut cold = MaxMinSolver::new();
        let mut cold_rates = Vec::new();
        cold.solve_logged(caps, arena, &mut cold_rates);
        assert_eq!(rates.len(), cold_rates.len());
        for (slot, (a, b)) in rates.iter().zip(&cold_rates).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {slot}: sharded {a} vs cold {b}");
        }
    }

    #[test]
    fn local_and_boundary_flows_reconcile_bit_exactly() {
        let caps = [10.0, 8.0, 6.0, 12.0, 5.0, 9.0, 20.0, 4.0];
        let part = part3();
        for workers in [1usize, 2, 8] {
            let mut arena = FlowArena::new(caps.len());
            // Local flows in every pod...
            arena.add(&[0, 1]);
            arena.add(&[0]);
            arena.add(&[2, 3]);
            arena.add(&[4]);
            arena.add(&[5]);
            // ...and boundary flows: cross-pod, spine-touching, pure-spine.
            arena.add(&[1, 2]);
            arena.add(&[0, 6, 4]);
            arena.add(&[7]);
            assert_sharded_matches_cold(&caps, &mut arena, &part, workers);
        }
    }

    #[test]
    fn split_classifies_local_vs_boundary() {
        let part = part3();
        let mut arena = FlowArena::new(8);
        arena.add(&[0, 1]); // local, pod 0
        arena.add(&[4]); // local, pod 2
        arena.add(&[1, 3]); // cross-pod
        arena.add(&[2, 6]); // touches spine
        let mut view = ShardedArena::new();
        view.split(&arena, &part);
        assert_eq!(view.n_pods(), 3);
        assert_eq!(view.n_local(), 2);
        assert_eq!(view.n_boundary(), 2);
        let mut seed: Vec<u32> = view.boundary_resources().to_vec();
        seed.sort_unstable();
        assert_eq!(seed, vec![1, 2, 3, 6]);
        // Re-splitting after churn reflects the new flow set.
        let s = arena.add(&[3]);
        view.split(&arena, &part);
        assert_eq!(view.n_local(), 3);
        arena.remove(s);
        view.split(&arena, &part);
        assert_eq!(view.n_local(), 2);
    }

    #[test]
    fn empty_arena_and_empty_pods_are_fine() {
        let caps = [10.0; 8];
        let part = part3();
        let mut arena = FlowArena::new(caps.len());
        assert_sharded_matches_cold(&caps, &mut arena, &part, 2);
        // Only pod 1 populated; pods 0 and 2 contribute empty logs.
        arena.add(&[2]);
        arena.add(&[2, 3]);
        assert_sharded_matches_cold(&caps, &mut arena, &part, 2);
    }

    #[test]
    fn all_boundary_flow_set_runs_fully_live() {
        let caps = [10.0, 8.0, 6.0, 12.0, 5.0, 9.0, 20.0, 4.0];
        let part = part3();
        let mut arena = FlowArena::new(caps.len());
        arena.add(&[0, 2]);
        arena.add(&[2, 4]);
        arena.add(&[6]);
        arena.add(&[1, 7]);
        let mut sharded = ShardedSolver::new(2);
        let mut main = MaxMinSolver::new();
        let mut rates = Vec::new();
        sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
        assert_eq!(sharded.view().n_local(), 0);
        assert_eq!(sharded.view().n_boundary(), 4);
        assert_sharded_matches_cold(&caps, &mut arena, &part, 2);
    }

    #[test]
    fn sharded_log_serves_probes_and_warm_chaining() {
        let caps = [10.0, 8.0, 6.0, 12.0, 5.0, 9.0, 20.0, 4.0];
        let part = part3();
        let mut arena = FlowArena::new(caps.len());
        arena.add(&[0, 1]);
        arena.add(&[2]);
        arena.add(&[1, 4]);
        let mut sharded = ShardedSolver::new(2);
        let mut main = MaxMinSolver::new();
        let mut rates = Vec::new();
        sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
        // Probe off the sharded log == add-for-real reference.
        let got = main.probe(&caps, &arena, &[0, 2]);
        let mut ref_arena = arena.clone();
        let probe = ref_arena.add(&[0, 2]);
        let mut ref_solver = MaxMinSolver::new();
        let mut ref_rates = Vec::new();
        ref_solver.solve_logged(&caps, &ref_arena, &mut ref_rates);
        assert_eq!(got.to_bits(), ref_rates[probe.0 as usize].to_bits());
        // A warm solve chains off the sharded log after churn.
        arena.add(&[3, 5]);
        main.solve_warm(&caps, &mut arena, &mut rates);
        let mut cold = MaxMinSolver::new();
        let mut cold_rates = Vec::new();
        cold.solve_logged(&caps, &arena, &mut cold_rates);
        for (slot, (a, b)) in rates.iter().zip(&cold_rates).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {slot}");
        }
    }

    #[test]
    fn resources_beyond_the_partition_are_spine() {
        let part = part3();
        assert_eq!(part.shard_of(0), 0);
        assert_eq!(part.shard_of(6), part.spine());
        assert_eq!(part.shard_of(99), part.spine(), "unknown ids (late hoses) are spine");
        // A flow on a grown resource becomes a boundary flow and still
        // reconciles exactly.
        let mut caps = vec![10.0; 8];
        caps.push(3.0);
        let mut arena = FlowArena::new(9);
        arena.add(&[0, 1]);
        arena.add(&[0, 8]);
        assert_sharded_matches_cold(&caps, &mut arena, &part, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_rejects_bad_shard_ids() {
        let _ = ResourcePartition::new(2, vec![0, 3]);
    }

    /// Bit-compare the driver's latest rates against a cold solve.
    fn assert_matches_cold(caps: &[f64], arena: &FlowArena, rates: &[f64]) {
        let mut cold = MaxMinSolver::new();
        let mut cold_rates = Vec::new();
        cold.solve_logged(caps, arena, &mut cold_rates);
        assert_eq!(rates.len(), cold_rates.len());
        for (slot, (a, b)) in rates.iter().zip(&cold_rates).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {slot}: sharded {a} vs cold {b}");
        }
    }

    #[test]
    fn capacity_changes_reconcile_bit_exactly_across_chained_solves() {
        let part = part3();
        for workers in [1usize, 2, 8] {
            let mut caps = vec![10.0, 8.0, 6.0, 12.0, 5.0, 9.0, 20.0, 4.0];
            let mut arena = FlowArena::new(caps.len());
            // Local flows in every pod plus boundary flows.
            arena.add(&[0, 1]);
            arena.add(&[2, 3]);
            arena.add(&[4, 5]);
            arena.add(&[1, 2]);
            arena.add(&[0, 6, 4]);
            let mut sharded = ShardedSolver::new(workers);
            let mut main = MaxMinSolver::new();
            let mut rates = Vec::new();
            sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
            assert_matches_cold(&caps, &arena, &rates);
            // Pod-owned degradation: only pod 0 should need a re-solve,
            // and the chained result must still bit-match a cold solve.
            caps[1] = 2.0;
            arena.touch_resource(1);
            sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
            assert_matches_cold(&caps, &arena, &rates);
            // Spine failure: capacity to (nearly) nothing.
            caps[6] = 1e-3;
            arena.touch_resource(6);
            sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
            assert_matches_cold(&caps, &arena, &rates);
            // Recovery plus flow churn in the same dirty window.
            caps[6] = 20.0;
            arena.touch_resource(6);
            caps[1] = 8.0;
            arena.touch_resource(1);
            arena.add(&[2]);
            sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
            assert_matches_cold(&caps, &arena, &rates);
        }
    }

    #[test]
    fn pool_is_reused_across_solves_and_survives_a_reset() {
        let caps = [10.0, 8.0, 6.0, 12.0, 5.0, 9.0, 20.0, 4.0];
        let part = part3();
        let mut sharded = ShardedSolver::new(2);
        let mut main = MaxMinSolver::new();
        let mut rates = Vec::new();
        let mut arena = FlowArena::new(caps.len());
        arena.add(&[0, 1]);
        arena.add(&[2, 3]);
        arena.add(&[4, 5]);
        arena.add(&[1, 4]); // boundary
        sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
        assert_matches_cold(&caps, &arena, &rates);
        let jobs = sharded.pool_jobs_executed();
        assert!(jobs >= 3, "first solve fanned the dirty shards to the pool (got {jobs})");
        // Churn two pods: the warm pool, not fresh threads, re-solves them.
        arena.add(&[0]);
        arena.add(&[4]);
        sharded.solve_sharded(&caps, &mut arena, &part, &mut main, &mut rates);
        assert_matches_cold(&caps, &arena, &rates);
        assert!(sharded.pool_jobs_executed() > jobs, "second solve reused the pool");
        assert_eq!(sharded.workers(), 2);
        // Re-point the same solver (pool and all) at a different arena.
        let mut arena2 = FlowArena::new(caps.len());
        arena2.add(&[0]);
        arena2.add(&[2, 3]);
        arena2.add(&[5]);
        arena2.add(&[3, 6]); // boundary via spine
        sharded.reset();
        let mut main2 = MaxMinSolver::new();
        let mut rates2 = Vec::new();
        let jobs = sharded.pool_jobs_executed();
        sharded.solve_sharded(&caps, &mut arena2, &part, &mut main2, &mut rates2);
        assert_matches_cold(&caps, &arena2, &rates2);
        assert!(sharded.pool_jobs_executed() > jobs, "reset kept the pool warm");
    }
}
