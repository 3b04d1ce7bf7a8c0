//! The background migration planner: §2.4's per-application
//! re-evaluation generalized into a cluster-wide pass.
//!
//! `core/migrate.rs` decides for **one** application, from a snapshot,
//! whether moving its remaining bytes beats staying. The online service
//! generalizes the shape: on a configurable cadence it scans **every**
//! running tenant for degradation (current service score vs the score
//! recorded right after its last placement), prices candidate moves with
//! the engine's batched what-if probes (one [`FlowSim::probe_rates`]
//! batch per candidate — no snapshot, no perturbation), keeps only moves
//! that clear the shared hysteresis rule
//! ([`choreo::migrate::improves_enough`]), and executes the best
//! improvements under a per-pass migration budget
//! ([`MIGRATION_BUDGET`]).
//!
//! Two properties keep the pass safe and calm:
//!
//! * **no flapping** — degradation is measured against a band
//!   ([`DEGRADED_FRACTION`] of baseline to arm, strictly more than
//!   [`MIN_IMPROVEMENT`] predicted gain to fire) and every move re-arms a
//!   per-tenant cooldown ([`MIGRATION_COOLDOWN`]);
//! * **determinism** — tenants are scanned in id order, moves are ranked
//!   by `(gain, id)`, and each executed move re-checks CPU feasibility
//!   against the post-move ledger, so a pass is a pure function of the
//!   service state.
//!
//! Probes price candidate paths while the tenant's current flows are
//! still running, so predicted gains are conservative: the freed
//! capacity at the old location is not credited to the new one.
//!
//! [`FlowSim::probe_rates`]: choreo_flowsim::FlowSim::probe_rates

use choreo::migrate::improves_enough;
use choreo_place::problem::{charge_cpu, release_cpu, Placement};
use choreo_profile::TenantId;
use choreo_topology::LOOPBACK;

use crate::config::{
    PlacementPolicy, DEGRADED_FRACTION, MIGRATION_BUDGET, MIGRATION_COOLDOWN, MIN_IMPROVEMENT,
};
use crate::scheduler::{service_score, OnlineScheduler};
use crate::stats::{Cause, DecisionKind};

/// A move the planner decided to execute.
#[derive(Debug, Clone, PartialEq)]
struct PlannedMove {
    /// Predicted score over current score (> 1).
    gain: f64,
    tenant: TenantId,
    placement: Placement,
    /// The tenant was forced into this pass (drift or link failure)
    /// rather than picked up by the cadence scan.
    forced: bool,
}

impl OnlineScheduler {
    /// One cluster-wide planning pass; called from the event loop on the
    /// cadence clock (or [`OnlineScheduler::force_migration_pass`]).
    pub(crate) fn migration_pass(&mut self) {
        self.migration_pass_forced(&[]);
    }

    /// A pass with `forced` tenants scanned ahead of the normal rules:
    /// drift detections route tenants here, bypassing the cooldown and
    /// the degraded-fraction arm (the network already gave the
    /// evidence). The move itself still has to clear the hysteresis bar
    /// — forcing a tenant in never forces it to move.
    pub(crate) fn migration_pass_forced(&mut self, forced: &[TenantId]) {
        debug_assert!(forced.windows(2).all(|w| w[0] < w[1]), "forced ids sorted, unique");
        self.open_pass(forced.len());
        let degraded = self.scan_degraded(forced);
        self.move_degraded(degraded, |id| forced.binary_search(&id).is_ok());
    }

    /// A pass forced with `degraded`, every running networked tenant that
    /// scores below its degraded fraction, each with that score, in id
    /// order — what a link failure hands the planner. This *is* the
    /// pass's phase 1: a scan forced with exactly these tenants would
    /// select exactly them (no other tenant is degraded) at exactly these
    /// scores (nothing touched the simulator since they were read), so
    /// the pass does not score anyone a second time.
    pub(crate) fn migration_pass_scored(&mut self, degraded: Vec<(TenantId, f64)>) {
        self.open_pass(degraded.len());
        self.move_degraded(degraded, |_| true);
    }

    /// Count and digest the start of a pass forcing `forced` tenants in.
    fn open_pass(&mut self, forced: usize) {
        self.stats.migration_passes += 1;
        self.stats.note(0x4d); // 'M'
        let now = self.sim.now();
        self.stats.decide(now, TenantId::MAX, DecisionKind::MigrationPass, forced as f64);
    }

    /// Phase 1: scan for degraded tenants, in id order, carrying each
    /// one's current score into phase 2 (probes and placement searches
    /// are side-effect-free, so the score cannot drift between the
    /// phases). Forced tenants skip the cooldown and the degradation arm.
    fn scan_degraded(&mut self, forced: &[TenantId]) -> Vec<(TenantId, f64)> {
        let now = self.sim.now();
        let mut degraded: Vec<(TenantId, f64)> = Vec::new();
        for (&id, t) in &self.tenants {
            let forced_in = forced.binary_search(&id).is_ok();
            if !forced_in && now.saturating_sub(t.last_move_at) < MIGRATION_COOLDOWN {
                continue;
            }
            if !t.is_networked() {
                continue;
            }
            let current = service_score(&mut self.sim, &t.flows);
            if forced_in || current < DEGRADED_FRACTION * t.baseline {
                degraded.push((id, current));
            }
        }
        degraded
    }

    /// Phases 2 and 3: price a move for each of the `degraded` tenants at
    /// its current score, and execute the best under the budget.
    /// `is_forced` tells which of them were forced into the pass.
    fn move_degraded(
        &mut self,
        degraded: Vec<(TenantId, f64)>,
        is_forced: impl Fn(TenantId) -> bool,
    ) {
        // Phase 2: price a candidate move per degraded tenant. The
        // tenant's own CPU is released while searching so it may reuse
        // its current hosts in a better arrangement.
        let mut moves: Vec<PlannedMove> = Vec::new();
        for (id, current) in degraded {
            let (app, old_placement, transfers, intensity) = {
                let t = &self.tenants[&id];
                (t.app.clone(), t.placement.clone(), t.transfers.clone(), t.intensity)
            };
            release_cpu(&mut self.cpu, &app, &old_placement);
            let candidate = self.try_place(&app, PlacementPolicy::Greedy);
            charge_cpu(&mut self.cpu, &app, &old_placement);
            let Some(candidate) = candidate else { continue };
            if candidate == old_placement {
                continue;
            }
            let predicted = self.predicted_score(&transfers, &candidate, intensity);
            // Same hysteresis rule as §2.4, on reciprocal rates (costs).
            if improves_enough(1.0 / current, 1.0 / predicted, MIN_IMPROVEMENT) {
                moves.push(PlannedMove {
                    gain: predicted / current,
                    tenant: id,
                    placement: candidate,
                    forced: is_forced(id),
                });
            }
        }

        // Phase 3: execute the best moves under the budget. Ranked by
        // (gain desc, id asc) — deterministic; CPU feasibility is
        // re-checked per move because earlier moves reshape the ledger.
        moves.sort_by(|a, b| {
            b.gain.partial_cmp(&a.gain).expect("finite gains").then(a.tenant.cmp(&b.tenant))
        });
        for m in moves.into_iter().take(MIGRATION_BUDGET) {
            self.execute_move(m.tenant, m.placement, m.forced, m.gain);
        }
    }

    /// Predicted service score of `transfers` under `placement`: one
    /// batched what-if probe for the network transfers, the loopback
    /// rate for co-located ones.
    ///
    /// The probe prices a **single** hypothetical connection, but the
    /// tenant will run `intensity` connections per transfer that mostly
    /// share the same bottleneck, so the per-connection prediction is
    /// `probe / intensity` — exact when the candidate path is otherwise
    /// idle, conservative when it is shared. Without the division a
    /// self-bottlenecked intensity-k tenant would see a phantom k× gain
    /// on every idle path and migrate for nothing.
    fn predicted_score(
        &mut self,
        transfers: &[(usize, usize)],
        placement: &Placement,
        intensity: u32,
    ) -> f64 {
        let loopback = LOOPBACK.rate_bps;
        if transfers.is_empty() {
            return loopback;
        }
        let mut probes = Vec::with_capacity(transfers.len());
        for &(i, j) in transfers {
            let (a, b) = (placement.assignment[i], placement.assignment[j]);
            if a != b {
                probes.push((self.hosts[a as usize], self.hosts[b as usize], None));
            }
        }
        let mut rates = Vec::new();
        self.sim.probe_rates(&probes, &mut rates);
        let colocated = transfers.len() - probes.len();
        let sum: f64 =
            rates.iter().map(|r| r / intensity as f64).sum::<f64>() + colocated as f64 * loopback;
        sum / transfers.len() as f64
    }

    /// Tear the tenant down at its old placement and bring it up at the
    /// new one (same modeled transfers, same intensity), refreshing its
    /// baseline and cooldown. Skips the move if the new placement no
    /// longer fits the CPU ledger with the tenant's own share released
    /// ([`choreo_place::Machines::check_placement`]): an earlier move
    /// this pass took the room. `forced` marks drift/failure-triggered
    /// moves for the trace and [`crate::ServiceStats::failure_migrations`].
    /// `gain` is the predicted-over-current ratio that cleared the
    /// hysteresis bar — recorded as the move's [`Cause`] in the trace ring.
    fn execute_move(&mut self, id: TenantId, placement: Placement, forced: bool, gain: f64) {
        let t = self.tenants.remove(&id).expect("planned moves target running tenants");
        release_cpu(&mut self.cpu, &t.app, &t.placement);
        if self.machines.check_placement(&t.app, &placement, &self.cpu).is_err() {
            charge_cpu(&mut self.cpu, &t.app, &t.placement);
            self.tenants.insert(id, t);
            return;
        }
        let old_keys: Vec<_> = t.flows.iter().flatten().copied().collect();
        self.sim.stop_flows_now(&old_keys);
        // Nothing reads the torn-down flows again; recycle their records.
        self.sim.release_flows(&old_keys);
        charge_cpu(&mut self.cpu, &t.app, &placement);
        let flows = self.start_transfer_flows(id, &placement, &t.transfers, t.intensity);
        let baseline = service_score(&mut self.sim, &flows);
        self.stats.migrations += 1;
        self.stats.note(0x56); // 'V' — a move
        self.stats.note(id);
        for &h in &placement.assignment {
            self.stats.note(h as u64);
        }
        self.stats.note_f64(baseline);
        let now = self.sim.now();
        let cause = Cause::Hysteresis { gain, min_improvement: MIN_IMPROVEMENT };
        if forced {
            self.stats.failure_migrations += 1;
            self.stats.note(0x46); // 'F' — the move was forced
            self.stats.decide_caused(now, id, DecisionKind::ForcedMigration, baseline, cause);
        } else {
            self.stats.decide_caused(now, id, DecisionKind::Migrate, baseline, cause);
        }
        self.tenants.insert(
            id,
            crate::scheduler::Tenant {
                app: t.app,
                placement,
                intensity: t.intensity,
                transfers: t.transfers,
                flows,
                baseline,
                last_move_at: now,
                epoch_scores: Vec::new(),
            },
        );
    }
}
