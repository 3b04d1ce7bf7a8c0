//! The always-on placement service.

use std::collections::{BTreeMap, VecDeque};

use choreo_flowsim::{FlowKey, FlowSim, HoseId};
use choreo_measure::RateModel;
use choreo_place::greedy::{GreedyPlacer, PlaceScratch};
use choreo_place::problem::{
    charge_cpu, cpu_packing, release_cpu, validate, Machines, NetworkLoad, PackScratch, Packing,
    Placement,
};
use choreo_place::RandomPlacer;
use choreo_profile::{
    AppProfile, NetworkEvent, NetworkEventKind, ServiceEvent, TenantEvent, TenantEventKind,
    TenantId,
};
use choreo_topology::{Nanos, NodeId, LOOPBACK};

use crate::builder::SchedulerBuilder;
use crate::config::{
    OnlineConfig, PlacementPolicy, CORES_PER_HOST, DRIFT_THRESHOLD, MAX_MODELED_TRANSFERS,
};
use crate::metrics::{PodLossGauges, ServiceMetrics};
use crate::migrate::Forced;
use crate::stats::{Cause, Decision, DecisionKind, RejectReason, ServiceStats};

/// One admitted tenant's live state.
#[derive(Debug)]
pub(crate) struct Tenant {
    /// The profiled application (full matrix; placement input).
    pub(crate) app: AppProfile,
    /// Task → global host index.
    pub(crate) placement: Placement,
    /// Connections per modeled transfer.
    pub(crate) intensity: u32,
    /// Modeled transfers `(src task, dst task)`, heaviest first — the
    /// top [`MAX_MODELED_TRANSFERS`] of the matrix.
    pub(crate) transfers: Vec<(usize, usize)>,
    /// Live flow keys per modeled transfer; empty = co-located.
    pub(crate) flows: Vec<Vec<FlowKey>>,
    /// Mean service score right after the last (re)placement — the
    /// reference the migration planner measures degradation against.
    pub(crate) baseline: f64,
    /// When the tenant was last placed or moved (cooldown anchor).
    pub(crate) last_move_at: Nanos,
    /// The service score the last re-measurement epoch read — the drift
    /// detector's reference for the next one. `None` after every
    /// (re)placement and intensity change: drift means the *network*
    /// moved under an unchanged tenant.
    pub(crate) last_epoch_score: Option<f64>,
}

impl Tenant {
    /// Does any modeled transfer cross the network? A fully co-located
    /// tenant has nothing the network can degrade.
    pub(crate) fn is_networked(&self) -> bool {
        self.flows.iter().any(|fl| !fl.is_empty())
    }
}

/// The online multi-tenant placement service.
///
/// Consumes a time-ordered stream of [`TenantEvent`]s and keeps a live
/// [`FlowSim`] cluster placed well over time:
///
/// * **arrivals** are admitted through the configured placer against the
///   live network (batched what-if probes, never a snapshot), or parked
///   in a bounded FIFO wait queue when they do not fit;
/// * **departures** tear the tenant's flows down in one dirty window and
///   retry the wait queue against the freed capacity;
/// * **intensity changes** grow or shrink a tenant's per-transfer
///   connection count in place;
/// * a background **migration planner** (see [`crate::migrate`]) runs on
///   a simulated-time cadence and re-places degraded tenants under a
///   per-pass budget.
///
/// Every public call that can decide something returns its
/// [`Decision`]s, oldest first; the scheduler keeps no history of them.
///
/// Everything is deterministic: the same event stream, seed and config
/// produce bit-identical trajectories ([`ServiceStats::trace_hash`]).
pub struct OnlineScheduler {
    pub(crate) sim: FlowSim,
    pub(crate) hosts: Vec<NodeId>,
    pub(crate) machines: Machines,
    /// CPU cores used on each host by the running tenants: the ledger
    /// admission ranks candidates by and migration checks moves against,
    /// changed only through [`charge_cpu`] and [`release_cpu`].
    pub(crate) cpu: Vec<f64>,
    /// The running tenants, and only those: every pass over them walks
    /// the tenants it can score, in ascending id order.
    pub(crate) tenants: BTreeMap<TenantId, Tenant>,
    /// Waiting tenants with the last intensity each requested while
    /// queued (applied at `QueueAdmit`, so an intensity change sent
    /// while waiting is not lost — the stream never resends it).
    queue: VecDeque<(TenantId, AppProfile, u32)>,
    pub(crate) cfg: OnlineConfig,
    random: RandomPlacer,
    pub(crate) stats: ServiceStats,
    /// The current public call's decisions, filled by `decide` and
    /// cleared on entry to `advance_to` (where every event starts) and
    /// `force_migration_pass`.
    pub(crate) outcome: Vec<Decision>,
    pub(crate) metrics: ServiceMetrics,
    next_migration_at: Nanos,
    next_measure_at: Nanos,
    /// Links currently failed (`true` while a `LinkFail` is open) —
    /// distinguishes failure recoveries from drain/degrade ends and
    /// tells admission whether a rejection happened with capacity
    /// genuinely gone.
    failed_links: Vec<bool>,
    links_down: usize,
    /// The candidate-host subset placement attempts work within: the
    /// hosts with the most free CPU, roomiest first (see
    /// [`OnlineScheduler::rank_candidates`]).
    cand: Vec<u32>,
    /// `cpu` as it was when `cand` was ranked: while the ledger is
    /// bit-identical to it, so is the ranking.
    ranked_from: Vec<f64>,
    /// Scratch: every host's `(free CPU, host)` ranking key.
    room: Vec<(f64, u32)>,
    /// Free CPU of each `cand` host, in `cand` order.
    cand_free: Vec<f64>,
    /// CPU capacities of `cand`: the placer's machines.
    sub_machines: Machines,
    /// CPU used on each `cand` host, with network counters that stay zero:
    /// the placer's load (see `try_place_inner`).
    sub_load: NetworkLoad,
    /// Scratch of the CPU-packing pre-check.
    pack: PackScratch,
    /// Scratch Algorithm 1 places in, so a warmed attempt allocates only
    /// the placement it returns.
    place: PlaceScratch,
    /// Scratch: the current attempt's candidate pairs as host pairs, one
    /// [`FlowSim::probe_rates`] batch at a time.
    probes: Vec<(NodeId, NodeId, Option<HoseId>)>,
    /// The per-pod capacity-lost gauges (observational only).
    pod_loss: PodLossGauges,
}

impl OnlineScheduler {
    /// [`SchedulerBuilder::build`]'s target — all construction funnels
    /// through here.
    pub(crate) fn from_builder(b: SchedulerBuilder) -> Self {
        let SchedulerBuilder { topo, routes, cfg, seed, metrics } = b;
        assert!(cfg.candidate_hosts >= 2, "placement needs at least two candidate hosts");
        if let Some(c) = cfg.migration.cadence {
            assert!(c > 0, "migration cadence must be positive");
        }
        if let Some(c) = cfg.drift.cadence {
            assert!(c > 0, "drift cadence must be positive");
        }
        let sim = FlowSim::new(topo.clone(), routes, seed);
        let hosts = topo.hosts().to_vec();
        let n = hosts.len();
        let k = cfg.candidate_hosts.min(n);
        let random_seed = match cfg.policy {
            PlacementPolicy::Random(s) => s,
            PlacementPolicy::Greedy => seed,
        };
        let next_migration_at = cfg.migration.cadence.unwrap_or(Nanos::MAX);
        let next_measure_at = cfg.drift.cadence.unwrap_or(Nanos::MAX);
        let n_links = topo.links().len();
        let metrics = metrics.unwrap_or_else(|| ServiceMetrics::detached(&topo));
        let pod_loss = PodLossGauges::new(&topo);
        OnlineScheduler {
            sim,
            hosts,
            machines: Machines::uniform(n, CORES_PER_HOST),
            cpu: vec![0.0; n],
            tenants: BTreeMap::new(),
            queue: VecDeque::new(),
            cfg,
            random: RandomPlacer::new(random_seed),
            stats: ServiceStats::default(),
            outcome: Vec::new(),
            metrics,
            next_migration_at,
            next_measure_at,
            failed_links: vec![false; n_links],
            links_down: 0,
            cand: Vec::new(),
            ranked_from: Vec::new(),
            room: Vec::new(),
            cand_free: Vec::new(),
            sub_machines: Machines { cpu: Vec::new() },
            sub_load: NetworkLoad::new(k),
            pack: PackScratch::default(),
            place: PlaceScratch::default(),
            probes: Vec::new(),
            pod_loss,
        }
    }

    /// Publish the counters and the queue/tenant gauges from
    /// [`ServiceStats`]: the last thing every public call that can move
    /// a counter does.
    fn publish(&self) {
        self.metrics.publish(&self.stats, self.queue.len(), self.tenants.len());
    }

    /// Record one decision, made now, in the current call's outcome, and
    /// count it (`ServiceStats::count`). Its cause rides only there —
    /// it is never digested — so attaching one cannot fork a trajectory.
    pub(crate) fn decide(
        &mut self,
        tenant: TenantId,
        kind: DecisionKind,
        value: f64,
        cause: Option<Cause>,
    ) {
        self.stats.count(kind);
        self.outcome.push(Decision { at: self.sim.now(), tenant, kind, value, cause });
    }

    // ------------------------------------------------------------ queries

    /// Counters and the trajectory digest.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.sim.now()
    }

    /// Tenants currently admitted and running.
    pub fn active_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Tenants waiting for capacity.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The cluster's machine capacities (one VM per host).
    pub fn machines(&self) -> &Machines {
        &self.machines
    }

    /// The service configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// A running tenant's current placement (global host indices).
    pub fn tenant_placement(&self, tenant: TenantId) -> Option<&Placement> {
        self.tenants.get(&tenant).map(|t| &t.placement)
    }

    /// A running tenant's current intensity (connections per modeled
    /// transfer). `None` for queued, rejected or departed tenants.
    pub fn tenant_intensity(&self, tenant: TenantId) -> Option<u32> {
        self.tenants.get(&tenant).map(|t| t.intensity)
    }

    /// Direct access to the live simulator — tests and benches inject
    /// background traffic or inspect flows through this.
    pub fn sim_mut(&mut self) -> &mut FlowSim {
        &mut self.sim
    }

    /// The typed metric handles this scheduler records into.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// SLO attainment snapshot: of the running tenants with at least one
    /// networked transfer, how many currently score at least `fraction`
    /// of their post-placement baseline? Refreshes the
    /// `choreo_slo_attainment` gauge and every per-tenant-bucket
    /// `choreo_tenant_slo_attainment` gauge (each 1.0 when it covers no
    /// networked tenant), and returns `(met, total)`. Read-only with
    /// respect to the trajectory: scores come from the live allocation
    /// without touching the digest.
    pub fn slo_attainment(&mut self, fraction: f64) -> (u64, u64) {
        assert!((0.0..=1.0).contains(&fraction), "SLO fraction must be in [0, 1]");
        let (mut met, mut total) = (0u64, 0u64);
        const NB: usize = crate::metrics::TENANT_BUCKETS as usize;
        let mut bucket_met = [0u64; NB];
        let mut bucket_total = [0u64; NB];
        for (&id, t) in self.tenants.iter().filter(|(_, t)| t.is_networked()) {
            let bucket = id as usize % NB;
            total += 1;
            bucket_total[bucket] += 1;
            if service_score(&mut self.sim, &t.flows) >= fraction * t.baseline {
                met += 1;
                bucket_met[bucket] += 1;
            }
        }
        let attainment =
            |met: u64, total: u64| if total == 0 { 1.0 } else { met as f64 / total as f64 };
        self.metrics.slo_attainment.set(attainment(met, total));
        for (b, gauge) in self.metrics.tenant_slo.iter().enumerate() {
            gauge.set(attainment(bucket_met[b], bucket_total[b]));
        }
        (met, total)
    }

    /// Mean current service score over the running tenants with at
    /// least one networked transfer (`None` when no tenant is
    /// networked). Like [`OnlineScheduler::slo_attainment`] this reads
    /// the live allocation without touching the digest — the
    /// failure/recovery probe of the scenario tests
    /// (`tests/scenarios.rs`).
    pub fn mean_networked_score(&mut self) -> Option<f64> {
        let (mut sum, mut count) = (0.0, 0usize);
        for t in self.tenants.values().filter(|t| t.is_networked()) {
            sum += service_score(&mut self.sim, &t.flows);
            count += 1;
        }
        (count > 0).then(|| sum / count as f64)
    }

    // ----------------------------------------------------------- the loop

    /// Advance simulated time to `at`, running any re-measurement and
    /// migration passes that come due on the way (measurement first at
    /// ties, so fresh drift verdicts feed the same instant's planner
    /// pass). [`OnlineScheduler::step`] does this itself; callers that
    /// want to time the dispatch alone (the perf ledger's per-request
    /// percentiles) advance first so the timed step is pure event
    /// handling. The counters are published when a pass ran. Returns the
    /// passes' decisions.
    pub fn advance_to(&mut self, at: Nanos) -> &[Decision] {
        self.outcome.clear();
        let at = at.max(self.sim.now());
        let mut ran_a_pass = false;
        loop {
            let next = self.next_measure_at.min(self.next_migration_at);
            if next > at {
                break;
            }
            ran_a_pass = true;
            self.sim.run_until(next);
            if self.next_measure_at <= self.next_migration_at {
                self.measurement_pass();
                self.next_measure_at = next + self.cfg.drift.cadence.expect("cadence set");
            } else {
                self.migration_pass(Forced::Ids(&[]));
                self.next_migration_at = next + self.cfg.migration.cadence.expect("cadence set");
            }
        }
        self.sim.run_until(at);
        if ran_a_pass {
            self.publish();
        }
        &self.outcome
    }

    /// Consume one tenant event: advance simulated time (running any
    /// migration passes that come due on the way), then dispatch. Its
    /// decisions are [`OnlineScheduler::service_step`]'s to return.
    pub fn step(&mut self, ev: &TenantEvent) {
        self.advance_to(ev.at);
        self.stats.events += 1;
        self.stats.note(ev.tenant << 8 | event_code(&ev.kind));
        match &ev.kind {
            TenantEventKind::Arrive { app } => self.arrive(ev.tenant, (**app).clone()),
            TenantEventKind::SetIntensity { intensity } => {
                self.set_intensity(ev.tenant, *intensity)
            }
            TenantEventKind::Depart => self.depart(ev.tenant),
        }
        self.publish();
    }

    /// Consume one event of a merged tenant + network stream. Returns
    /// its decisions: those of the passes that came due on the way, then
    /// the event's own. An arrival's own is exactly one, the last:
    /// `Admit`, `Queue`, `Reject`, `FailureReject` or `Duplicate`.
    pub fn service_step(&mut self, ev: &ServiceEvent) -> &[Decision] {
        match ev {
            ServiceEvent::Tenant(t) => self.step(t),
            ServiceEvent::Network(n) => self.network_step(n),
        }
        &self.outcome
    }

    /// Consume one network event: advance simulated time, apply the
    /// capacity change to the live simulator, and, on a failure, force
    /// every tenant the failure degraded into a migration pass ahead of
    /// the cadence. Fully digested: fault-laden runs stay
    /// bit-reproducible across repeats.
    ///
    /// The capacity change is one dirty-window perturbation, solved —
    /// bit-identical to cold at the new capacities — by whoever reads a
    /// rate next, so the events of a switch failing or recovering all
    /// its links in one instant share one solve. On a failure the
    /// reader is the pass's phase 1, which scores each running networked
    /// tenant once. Its decisions are
    /// [`OnlineScheduler::service_step`]'s to return.
    pub fn network_step(&mut self, ev: &NetworkEvent) {
        self.advance_to(ev.at);
        self.stats.note(0x4e); // 'N'
        self.stats.note((ev.link as u64) << 8 | network_event_code(&ev.kind));
        let fraction = match ev.kind {
            NetworkEventKind::LinkDegrade { fraction }
            | NetworkEventKind::DrainStart { fraction } => {
                self.sim.degrade_link(ev.link, fraction);
                fraction
            }
            NetworkEventKind::LinkFail => {
                self.sim.fail_link(ev.link);
                let was = std::mem::replace(&mut self.failed_links[ev.link as usize], true);
                if !was {
                    self.links_down += 1;
                }
                0.0
            }
            NetworkEventKind::LinkRecover | NetworkEventKind::DrainEnd => {
                self.sim.recover_link(ev.link);
                let was = std::mem::replace(&mut self.failed_links[ev.link as usize], false);
                if was {
                    self.links_down -= 1;
                }
                1.0
            }
        };
        self.stats.note_f64(fraction);
        self.decide(TenantId::MAX, DecisionKind::NetworkEvent, fraction, None);
        self.metrics.capacity_lost.set(self.sim.capacity_lost_fraction());
        // Per-pod breakdown. A failure-heavy stream is mostly network
        // events, so the refresh runs off precomputed link buckets (see
        // [`PodLossGauges`]).
        self.pod_loss.refresh(&self.sim, &self.metrics.pod_capacity_lost);
        if matches!(ev.kind, NetworkEventKind::LinkFail) {
            // Failure-stranded tenants must not wait out the cadence:
            // force everyone the failure actually degraded into a pass
            // now. The planner's hysteresis still gates each move, so a
            // tenant with no better place to go stays put.
            self.migration_pass(Forced::Degraded);
        }
        self.publish();
    }

    /// One re-measurement epoch: score every running networked tenant
    /// and compare against its score at the previous epoch. A relative
    /// error above the drift threshold (the paper's §4.1 stability
    /// envelope — more change than a healthy cloud path shows) marks the
    /// tenant drifted; all drifted tenants are routed into a forced
    /// migration pass immediately, ahead of the planner's own cadence.
    fn measurement_pass(&mut self) {
        self.stats.measurement_passes += 1;
        self.stats.note(0x50); // 'P'
        let mut drifted: Vec<(TenantId, f64)> = Vec::new();
        // Co-located tenants have no network under them to drift.
        for (&id, t) in self.tenants.iter_mut().filter(|(_, t)| t.is_networked()) {
            let score = service_score(&mut self.sim, &t.flows);
            self.stats.note_f64(score);
            // Positive: every capacity is (a failed link keeps
            // `FAILED_LINK_BPS`), so every max-min share is, and a
            // co-located transfer counts the loopback rate.
            debug_assert!(score > 0.0, "tenant {id} scores {score}");
            // Epochs are one cadence apart: §4.1's `|λ_c − λ_{c−τ}| / λ_c`
            // at τ = one cadence.
            if let Some(prev) = t.last_epoch_score.replace(score) {
                let err = (score - prev).abs() / score;
                if err > DRIFT_THRESHOLD {
                    drifted.push((id, err));
                }
            }
        }
        for &(id, err) in &drifted {
            self.stats.note(0x64); // 'd'
            self.stats.note(id);
            let cause = Cause::Drift { error: err, threshold: DRIFT_THRESHOLD };
            self.decide(id, DecisionKind::DriftDetected, err, Some(cause));
        }
        if !drifted.is_empty() {
            let forced: Vec<TenantId> = drifted.iter().map(|&(id, _)| id).collect();
            self.migration_pass(Forced::Ids(&forced));
        }
    }

    /// Run a migration pass right now regardless of the cadence clock
    /// (tests and externally-scheduled deployments). Returns its
    /// decisions.
    pub fn force_migration_pass(&mut self) -> &[Decision] {
        self.outcome.clear();
        self.migration_pass(Forced::Ids(&[]));
        self.publish();
        &self.outcome
    }

    // ---------------------------------------------------------- admission

    fn arrive(&mut self, id: TenantId, app: AppProfile) {
        // At-least-once delivery hardening: a transport that duplicates
        // an Arrive frame must not overwrite a live tenant's state (that
        // would leak its flows and corrupt the CPU ledger). The guard
        // digests a distinct byte so fault-free trajectories are
        // untouched while duplicated ones stay deterministic.
        if self.tenants.contains_key(&id) || self.queue.iter().any(|(t, _, _)| *t == id) {
            self.stats.note(0x58); // 'X'
            self.decide(id, DecisionKind::Duplicate, 0.0, None);
            return;
        }
        match self.try_place(&app, self.cfg.policy) {
            Some(placement) => self.admit(id, app, placement, DecisionKind::Admit, 1),
            None if self.queue.len() < self.cfg.queue_capacity => {
                self.stats.note(0x51); // 'Q'
                self.decide(id, DecisionKind::Queue, self.queue.len() as f64, None);
                self.queue.push_back((id, app, 1));
            }
            None => {
                // Count *why* capacity was gone: a rejection during a
                // failure epoch is the network's fault, not sizing's.
                let (kind, reason) = if self.links_down > 0 {
                    self.stats.note(0x72); // 'r'
                    (DecisionKind::FailureReject, RejectReason::LinksDown)
                } else {
                    self.stats.note(0x52); // 'R'
                    (DecisionKind::Reject, RejectReason::QueueFull)
                };
                self.decide(id, kind, 0.0, Some(Cause::Reject(reason)));
            }
        }
    }

    /// Try to place `app` within the best candidate-host subset, as an
    /// arrival would, without admitting it. Under
    /// [`PlacementPolicy::Greedy`] nothing the trajectory or its digest
    /// depends on changes; [`PlacementPolicy::Random`] draws from the
    /// placer's RNG. Returns a **global** placement, or
    /// `None` when the placer finds no feasible assignment there. Every
    /// attempt, pruned or not, is one `placement_latency` observation and
    /// counts in [`ServiceStats::unpackable_skips`] /
    /// [`ServiceStats::pack_undecided`]. Once its buffers are warm, an
    /// attempt allocates the placement it returns and nothing else.
    pub fn try_place(&mut self, app: &AppProfile, policy: PlacementPolicy) -> Option<Placement> {
        // Wall-clock timing is observational only (the latency histogram
        // never feeds the digest), so it cannot perturb determinism.
        let t0 = std::time::Instant::now();
        let placed = self.try_place_inner(app, policy);
        self.metrics.placement_latency.observe(t0.elapsed().as_secs_f64());
        placed
    }

    /// One placement attempt within the ranked candidate hosts.
    ///
    /// Under [`PlacementPolicy::Greedy`] the attempt first asks
    /// [`cpu_packing`] whether the app's tasks fit the candidates' free
    /// CPU in any assignment at all. When they provably do not, Algorithm
    /// 1 would fail too (see [`cpu_packing`]'s soundness argument), so the
    /// attempt returns `None` without rating a single pair: no probe
    /// batch, no solve-log walk. A failed greedy attempt digests nothing,
    /// so the skip leaves every trajectory bit-identical; it is counted in
    /// [`ServiceStats::unpackable_skips`]. [`PlacementPolicy::Random`] is
    /// not pre-checked: it may draw from its RNG before it fails, and
    /// skipping those draws would shift every later placement.
    fn try_place_inner(&mut self, app: &AppProfile, policy: PlacementPolicy) -> Option<Placement> {
        self.rank_candidates();
        let local = match policy {
            PlacementPolicy::Greedy => {
                match cpu_packing(&app.cpu, &self.cand_free, &mut self.pack) {
                    Packing::Impossible => {
                        self.stats.unpackable_skips += 1;
                        return None;
                    }
                    Packing::Undecided => self.stats.pack_undecided += 1,
                    Packing::Found => {}
                }
                // CPU comes from the global ledger; network counters stay
                // zero: the live probes already price in every running
                // flow, and stacking the transfer counters on top would
                // double-count traffic. Local VM `v` is host
                // `hosts[cand[v]]`.
                // Probes return per-connection fair shares, which is what
                // the pipe rule divides.
                let (sim, hosts, cand, probes) =
                    (&mut self.sim, &self.hosts, &self.cand, &mut self.probes);
                let host = |v: u32| hosts[cand[v as usize] as usize];
                let (machines, load) = (&self.sub_machines, &self.sub_load);
                GreedyPlacer
                    .place_with_scratch(
                        app,
                        machines,
                        RateModel::Pipe,
                        load,
                        &mut self.place,
                        |pairs, out| {
                            probes.clear();
                            probes.extend(pairs.iter().map(|&(m, n)| (host(m), host(n), None)));
                            sim.probe_rates(probes, out);
                        },
                    )
                    .ok()
            }
            // The network-oblivious baseline reads the candidates' CPU
            // alone.
            PlacementPolicy::Random(_) => {
                self.random.place(app, &self.sub_machines, &self.sub_load).ok()
            }
        };
        let mut placement = local?;
        for v in &mut placement.assignment {
            *v = self.cand[*v as usize];
        }
        Some(placement)
    }

    /// Rank the [`OnlineConfig::candidate_hosts`] hosts with the most
    /// free CPU into `cand`, ties broken on host index — deterministic,
    /// and it concentrates placement where there is room — and refresh
    /// the placer's view of them. A no-op while the CPU ledger is
    /// bit-identical to the one the ranking was made from: a queue retry
    /// against an unchanged ledger reuses the ranking. (A ledger that
    /// came back by a different route, such as a migration search's
    /// release / charge round trip, may differ in a bit and simply
    /// re-ranks.)
    fn rank_candidates(&mut self) {
        let used = &self.cpu;
        let same_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        if same_bits(&self.ranked_from, used) {
            return;
        }
        self.ranked_from.clone_from(used);
        // Each key computed once, then selected and sorted on one total
        // order, so partitioning off the top k and sorting only those
        // yields exactly the first k of a full sort.
        let by_room = |a: &(f64, u32), b: &(f64, u32)| {
            b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1))
        };
        let room = &mut self.room;
        room.clear();
        room.extend(
            self.machines.cpu.iter().zip(used).enumerate().map(|(h, (cap, u))| (cap - u, h as u32)),
        );
        let k = self.sub_load.n_vms();
        if k < room.len() {
            room.select_nth_unstable_by(k, by_room);
            room.truncate(k);
        }
        room.sort_unstable_by(by_room);
        self.cand.clear();
        self.cand.extend(room.iter().map(|&(_, h)| h));
        self.cand_free.clear();
        self.cand_free.extend(room.iter().map(|&(free, _)| free));
        self.sub_machines.cpu.clear();
        self.sub_machines.cpu.extend(self.cand.iter().map(|&h| self.machines.cpu[h as usize]));
        for (slot, &h) in self.sub_load.cpu_used.iter_mut().zip(&self.cand) {
            *slot = used[h as usize];
        }
    }

    /// Admit a placed tenant: pick its modeled transfers and bring it up
    /// ([`OnlineScheduler::run_tenant`]). `kind` tells the outcome
    /// whether this was a fresh admission or a queue retry; `intensity`
    /// is 1 for fresh arrivals and the stashed last-requested value for
    /// queue retries, which `set_intensity` checked is at least 1.
    fn admit(
        &mut self,
        id: TenantId,
        app: AppProfile,
        placement: Placement,
        kind: DecisionKind,
        intensity: u32,
    ) {
        debug_assert!(validate(&app, &self.machines, &placement).is_ok());
        let transfers: Vec<(usize, usize)> = app
            .matrix
            .transfers_desc()
            .into_iter()
            .filter(|&(_, _, b)| b > 0)
            .take(MAX_MODELED_TRANSFERS)
            .map(|(i, j, _)| (i, j))
            .collect();
        self.stats.note(0x41); // 'A'
        self.stats.note(intensity as u64);
        let baseline = self.run_tenant(id, app, placement, transfers, intensity);
        self.decide(id, kind, baseline, None);
    }

    /// Start a tenant running at `placement`, on admission and on every
    /// move: charge its CPU, fill its flows, digest its hosts and its
    /// baseline score, and insert it with its cooldown anchored now and no
    /// drift reference. Returns the baseline. Flows and scores digest
    /// nothing, so callers note their prefix before and decide after.
    pub(crate) fn run_tenant(
        &mut self,
        id: TenantId,
        app: AppProfile,
        placement: Placement,
        transfers: Vec<(usize, usize)>,
        intensity: u32,
    ) -> f64 {
        charge_cpu(&mut self.cpu, &app, &placement);
        let mut flows = vec![Vec::new(); transfers.len()];
        fill_flows(&mut self.sim, &self.hosts, id, &placement, &transfers, &mut flows, intensity);
        let baseline = service_score(&mut self.sim, &flows);
        for &h in &placement.assignment {
            self.stats.note(h as u64);
        }
        self.stats.note_f64(baseline);
        let tenant = Tenant {
            app,
            placement,
            intensity,
            transfers,
            flows,
            baseline,
            last_move_at: self.sim.now(),
            last_epoch_score: None,
        };
        self.tenants.insert(id, tenant);
        baseline
    }

    // ---------------------------------------------------------- lifecycle

    fn depart(&mut self, id: TenantId) {
        if let Some(pos) = self.queue.iter().position(|(t, _, _)| *t == id) {
            // Left before capacity freed up.
            self.queue.remove(pos);
            self.stats.note(0x44); // 'D'
            self.decide(id, DecisionKind::Depart, 0.0, None);
            return;
        }
        let Some(t) = self.tenants.remove(&id) else {
            // Rejected at arrival (or never seen): nothing was admitted,
            // so nothing departs. Counting it would overstate departures
            // against admissions; digest a distinct byte so hostile
            // streams still replay bit-identically.
            self.stats.note(0x6e); // 'n' — no-op departure
            return;
        };
        // Only a real teardown (queued-drop above, or this live drop)
        // decides a `Depart`, and so counts as a departure.
        let score = service_score(&mut self.sim, &t.flows);
        self.stats.record_departed_rate(score);
        self.decide(id, DecisionKind::Depart, score, None);
        let keys: Vec<FlowKey> = t.flows.iter().flatten().copied().collect();
        self.sim.stop_flows_now(&keys);
        // The departure score above was the last read of these flows;
        // release the records so steady-state memory tracks concurrent
        // tenants, not all-time arrivals.
        self.sim.release_flows(&keys);
        release_cpu(&mut self.cpu, &t.app, &t.placement);
        self.retry_queue();
    }

    /// Departure freed capacity: re-try every waiting tenant in FIFO
    /// order, admitting each one that now fits (no head-of-line
    /// blocking — a large tenant at the front cannot starve small ones
    /// behind it).
    ///
    /// A retry costs what its outcome needs: the candidate ranking is
    /// made once per CPU-ledger change and shared by every retry until an
    /// admission changes the ledger, and a tenant whose tasks cannot be
    /// packed onto the candidates' free CPU at all is turned back by the
    /// CPU-only pre-check before it rates a single pair (see
    /// `try_place_inner`).
    fn retry_queue(&mut self) {
        // One rotation of the deque: each entry comes off the front and,
        // if it still does not fit, goes to the back — after `len` steps
        // the survivors stand in arrival order again, and no profile was
        // cloned to get past the borrow of `self`.
        for _ in 0..self.queue.len() {
            let (id, app, intensity) = self.queue.pop_front().expect("counted above");
            match self.try_place(&app, self.cfg.policy) {
                Some(placement) => {
                    self.admit(id, app, placement, DecisionKind::QueueAdmit, intensity)
                }
                None => self.queue.push_back((id, app, intensity)),
            }
        }
    }

    fn set_intensity(&mut self, id: TenantId, intensity: u32) {
        // Zero would strip every flow: the tenant would read as co-located.
        assert!(intensity >= 1, "intensity {intensity} for tenant {id}: must be at least 1");
        let Some(t) = self.tenants.get_mut(&id) else {
            // Still waiting in the queue? Stash the request with the
            // entry — `QueueAdmit` applies the last value asked for, so
            // a change sent while queued is not silently lost. (The
            // stash is digested but not counted: no flows changed.)
            if let Some(entry) = self.queue.iter_mut().find(|(t, _, _)| *t == id) {
                if entry.2 != intensity {
                    entry.2 = intensity;
                    self.stats.note(0x69); // 'i' — queued-intensity stash
                    self.stats.note(intensity as u64);
                }
            }
            return; // rejected or departed otherwise
        };
        if t.intensity == intensity {
            return;
        }
        self.stats.note(0x49); // 'I'
        self.stats.note(intensity as u64);
        if intensity > t.intensity {
            let (sim, hosts) = (&mut self.sim, &self.hosts);
            fill_flows(sim, hosts, id, &t.placement, &t.transfers, &mut t.flows, intensity);
        } else {
            // Shrink every network transfer down to `intensity`
            // connections, torn down in one dirty window.
            let mut drop_keys = Vec::new();
            for fl in t.flows.iter_mut().filter(|fl| !fl.is_empty()) {
                while fl.len() > intensity as usize {
                    drop_keys.push(fl.pop().expect("non-empty"));
                }
            }
            self.sim.stop_flows_now(&drop_keys);
            self.sim.release_flows(&drop_keys);
        }
        // Normalize the degradation baseline for the self-induced share
        // change: k connections on the same bottleneck each get ~1/k of
        // what one got, so the per-connection reference scales by
        // old/new. Without this a tenant that just tripled its own
        // connection count would read as degraded and burn a pointless
        // migration; scaling (rather than re-measuring) keeps genuine
        // degradation accumulated since placement visible to the
        // planner.
        t.baseline *= t.intensity as f64 / intensity as f64;
        t.intensity = intensity;
        // The per-connection score just changed by the tenant's own
        // hand; dropping the drift reference keeps self-induced sharing
        // from reading as network drift.
        t.last_epoch_score = None;
        let baseline = t.baseline;
        self.stats.note_f64(baseline);
        self.decide(id, DecisionKind::Intensity, intensity as f64, None);
    }

    // --------------------------------------------------------- invariants

    /// Check the service's safety invariants (test hook):
    ///
    /// * the CPU ledger matches the running tenants exactly and never
    ///   exceeds any host's capacity;
    /// * every running placement still validates against the machines;
    /// * the wait queue respects its bound, and no tenant both runs and
    ///   waits (the duplicate-arrival guard's precondition);
    /// * flow bookkeeping matches the simulator's active-flow count.
    ///
    /// Panics on violation.
    pub fn check_invariants(&self) {
        let n = self.machines.len();
        let mut cpu = vec![0.0f64; n];
        let mut live_flows = 0usize;
        for t in self.tenants.values() {
            validate(&t.app, &self.machines, &t.placement).expect("running placement is valid");
            charge_cpu(&mut cpu, &t.app, &t.placement);
            assert_eq!(t.flows.len(), t.transfers.len(), "one flow list per modeled transfer");
            for (fl, &(i, j)) in t.flows.iter().zip(&t.transfers) {
                live_flows += fl.len();
                // A transfer across hosts holds `intensity` flows; a
                // co-located one holds none.
                let remote = t.placement.assignment[i] != t.placement.assignment[j];
                let want = if remote { t.intensity as usize } else { 0 };
                assert_eq!(fl.len(), want, "transfer ({i}, {j}) at intensity {}", t.intensity);
                for &k in fl {
                    assert!(
                        matches!(self.sim.status(k), choreo_flowsim::FlowStatus::Active),
                        "tenant flow {k:?} not active"
                    );
                }
            }
        }
        for (h, &used) in cpu.iter().enumerate() {
            assert!(
                (used - self.cpu[h]).abs() < 1e-6,
                "cpu ledger drift on host {h}: {used} vs {}",
                self.cpu[h]
            );
            assert!(
                self.machines.fits(h, used, 0.0),
                "host {h} over capacity: {used} > {}",
                self.machines.cpu[h]
            );
        }
        assert!(self.queue.len() <= self.cfg.queue_capacity, "queue within bound");
        for (id, _, _) in &self.queue {
            assert!(!self.tenants.contains_key(id), "tenant {id} both runs and waits");
        }
        // The sim may carry extra (test-injected or background) flows,
        // but never fewer than the tenants' bookkeeping says.
        assert!(
            live_flows <= self.sim.active_flows(),
            "flow bookkeeping out of sync: {live_flows} tenant flows, {} in the sim",
            self.sim.active_flows()
        );
    }
}

/// Top every cross-host transfer up to `intensity` flows, in transfer
/// order, in one arena dirty window; co-located transfers hold none.
/// Admission fills empty lists, a growing intensity the live ones.
fn fill_flows(
    sim: &mut FlowSim,
    hosts: &[NodeId],
    id: TenantId,
    placement: &Placement,
    transfers: &[(usize, usize)],
    flows: &mut [Vec<FlowKey>],
    intensity: u32,
) {
    for (fl, &(i, j)) in flows.iter_mut().zip(transfers) {
        let (a, b) = (placement.assignment[i], placement.assignment[j]);
        if a == b {
            continue;
        }
        let (src, dst) = (hosts[a as usize], hosts[b as usize]);
        while fl.len() < intensity as usize {
            fl.push(sim.start_flow_now(src, dst, None, None, id));
        }
    }
}

/// The service-quality score of a flow layout: mean over modeled
/// transfers of the transfer's mean per-connection rate, with co-located
/// transfers counting [`LOOPBACK`]'s rate. One metric for baselines,
/// degradation checks, move predictions and the departed-tenant quality
/// headline. A free function over the simulator alone, so a pass can
/// score a tenant's flow lists in place while it walks the tenant table.
pub(crate) fn service_score(sim: &mut FlowSim, flows: &[Vec<FlowKey>]) -> f64 {
    if flows.is_empty() {
        return LOOPBACK.rate_bps;
    }
    let mut sum = 0.0;
    for fl in flows {
        if fl.is_empty() {
            sum += LOOPBACK.rate_bps;
        } else {
            let s: f64 = fl.iter().map(|&k| sim.rate_bps(k)).sum();
            sum += s / fl.len() as f64;
        }
    }
    sum / flows.len() as f64
}

fn event_code(kind: &TenantEventKind) -> u64 {
    match kind {
        TenantEventKind::Arrive { .. } => 1,
        TenantEventKind::SetIntensity { .. } => 2,
        TenantEventKind::Depart => 3,
    }
}

fn network_event_code(kind: &NetworkEventKind) -> u64 {
    match kind {
        NetworkEventKind::LinkDegrade { .. } => 1,
        NetworkEventKind::LinkFail => 2,
        NetworkEventKind::LinkRecover => 3,
        NetworkEventKind::DrainStart { .. } => 4,
        NetworkEventKind::DrainEnd => 5,
    }
}
