//! The background migration planner: §2.4's per-application
//! re-evaluation generalized into a cluster-wide pass.
//!
//! `core/migrate.rs` decides for **one** application, from a snapshot,
//! whether moving its remaining bytes beats staying. The online service
//! generalizes the shape: a pass scans **every** running tenant for
//! degradation (current service score vs the score recorded right after
//! its last placement), prices candidate moves with the engine's batched
//! what-if probes (one [`FlowSim::probe_rates`] batch per candidate — no
//! snapshot, no perturbation), keeps only moves that clear the shared
//! hysteresis rule ([`choreo::migrate::improves_enough`]), and executes
//! the best improvements under a per-pass migration budget
//! ([`MIGRATION_BUDGET`]).
//!
//! Every pass enters through one function, `migration_pass`, whose
//! argument names what forces tenants in ahead of the cooldown: nobody on
//! the configurable cadence, the drifted tenants after a re-measurement
//! epoch, every degraded tenant after a link failure (which opens no pass
//! when nobody is degraded). Each pass counts once, digests one `'M'` and
//! records one `migration_pass` decision valued at the number of tenants
//! forced in.
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

/// What forces tenants into a [`OnlineScheduler::migration_pass`] ahead
/// of the cadence rules.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Forced<'a> {
    /// These tenants (sorted, unique) skip the cooldown and the
    /// degradation arm: the cadence forces none, drift forces the drifted
    /// ones.
    Ids(&'a [TenantId]),
    /// A link failed: every degraded networked tenant, whatever its
    /// cooldown. No pass opens when none is degraded.
    Degraded,
}

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
    /// One cluster-wide planning pass: on the cadence clock and from
    /// [`OnlineScheduler::force_migration_pass`] with `Forced::Ids(&[])`,
    /// after a drift verdict with the drifted tenants, after a link
    /// failure with [`Forced::Degraded`]. A forced tenant still has to
    /// clear the hysteresis bar: forcing it in never forces it to move.
    ///
    /// Phase 1 scans the running networked tenants in id order and scores
    /// each at most once, carrying the score into phase 2 (probes and
    /// placement searches are side-effect-free, so it cannot drift
    /// between the phases). Phase 2 prices a move per selected tenant,
    /// phase 3 executes the best under the budget.
    pub(crate) fn migration_pass(&mut self, forced: Forced) {
        // Phase 1: the degraded tenants, each with its current score and
        // whether it was forced in. A named tenant skips the cooldown and
        // the degradation arm; a failure lifts the cooldown alone.
        if let Forced::Ids(ids) = forced {
            debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "forced ids sorted, unique");
        }
        let now = self.sim.now();
        let mut degraded: Vec<(TenantId, f64, bool)> = Vec::new();
        for (&id, t) in self.tenants.iter().filter(|(_, t)| t.is_networked()) {
            let named = matches!(forced, Forced::Ids(ids) if ids.binary_search(&id).is_ok());
            let forced_in = named || matches!(forced, Forced::Degraded);
            if !forced_in && now.saturating_sub(t.last_move_at) < MIGRATION_COOLDOWN {
                continue;
            }
            let current = service_score(&mut self.sim, &t.flows);
            if named || current < DEGRADED_FRACTION * t.baseline {
                degraded.push((id, current, forced_in));
            }
        }
        let opened = match forced {
            Forced::Ids(ids) => ids.len(),
            Forced::Degraded if degraded.is_empty() => return,
            Forced::Degraded => degraded.len(),
        };
        self.stats.migration_passes += 1;
        self.stats.note(0x4d); // 'M'
        self.decide(TenantId::MAX, DecisionKind::MigrationPass, opened as f64, None);

        // Phase 2: price a candidate move per degraded tenant. The
        // tenant's own CPU is released while searching so it may reuse
        // its current hosts in a better arrangement.
        let mut moves: Vec<PlannedMove> = Vec::new();
        for (id, current, forced) in degraded {
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
                    forced,
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

    /// Tear the tenant down at its old placement and start it running at
    /// the new one with the same modeled transfers and intensity
    /// ([`OnlineScheduler::run_tenant`]: a fresh baseline and cooldown,
    /// no drift reference). Skips the move if the new placement no
    /// longer fits the CPU ledger with the tenant's own share released
    /// ([`choreo_place::Machines::check_placement`]): an earlier move
    /// this pass took the room. `forced` marks drift/failure-triggered
    /// moves for the trace and [`crate::ServiceStats::failure_migrations`].
    /// `gain` is the predicted-over-current ratio that cleared the
    /// hysteresis bar — recorded as the move's [`Cause`] in its decision.
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
        self.stats.migrations += 1;
        self.stats.note(0x56); // 'V' — a move
        self.stats.note(id);
        let baseline = self.run_tenant(id, t.app, placement, t.transfers, t.intensity);
        let kind = if forced {
            self.stats.failure_migrations += 1;
            self.stats.note(0x46); // 'F' — the move was forced
            DecisionKind::ForcedMigration
        } else {
            DecisionKind::Migrate
        };
        let cause = Cause::Hysteresis { gain, min_improvement: MIN_IMPROVEMENT };
        self.decide(id, kind, baseline, Some(cause));
    }
}
