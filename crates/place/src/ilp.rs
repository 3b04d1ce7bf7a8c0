//! The Appendix's exact ILP placement, solved with `choreo-lp`.
//!
//! Variables: binaries `X_im` (task `i` on machine `m`), linearization
//! variables `z_imjn ≈ X_im·X_jn` for task pairs `i<j`, and a scalar `z`
//! bounding the completion time of every bottleneck resource. Objective:
//! minimize `z`.
//!
//! Two linearizations are provided:
//!
//! * [`Formulation::Paper`] — verbatim Appendix: `z_imjn ≤ X_im`,
//!   `z_imjn ≤ X_jn`, and per-task `Σ z = J−1` equalities that force the
//!   products up. Every task pair gets `M²` variables.
//! * [`Formulation::Sparse`] — the standard `z ≥ X_im + X_jn − 1` lower
//!   bound instead of the sum trick, which lets pairs that exchange no
//!   bytes be dropped entirely. Same optima, far smaller models on sparse
//!   traffic matrices (pipelines, scatter/gather).
//!
//! Only the `X` variables are declared integral: with integral `X`, the
//! constraints pin every `z_imjn` to the exact product.

use choreo_lp::{solve_ilp, IlpConfig, IlpOutcome, Lp, Relation};
use choreo_measure::{NetworkSnapshot, RateModel};
use choreo_profile::AppProfile;
use choreo_topology::VmId;

use crate::problem::{Machines, NetworkLoad, PlaceError, Placement};

/// Which linearization to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Formulation {
    /// The Appendix's `Σ z = J−1` formulation, all pairs.
    Paper,
    /// `z ≥ X + X − 1` on traffic-carrying pairs only.
    Sparse,
}

/// Exact (branch-and-bound) placer.
#[derive(Debug, Clone)]
pub struct IlpPlacer {
    /// Linearization choice.
    pub formulation: Formulation,
    /// Search budgets.
    pub config: IlpConfig,
}

impl Default for IlpPlacer {
    fn default() -> Self {
        IlpPlacer { formulation: Formulation::Sparse, config: IlpConfig::default() }
    }
}

/// Result of an exact placement.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpPlacerOutcome {
    /// The placement extracted from the incumbent.
    pub placement: Placement,
    /// Its predicted completion time, seconds.
    pub objective_secs: f64,
    /// True when branch-and-bound proved optimality within its node
    /// budget.
    pub proven_optimal: bool,
}

impl IlpPlacer {
    /// Solve the placement exactly (or best-effort within budget).
    pub fn place(
        &self,
        app: &AppProfile,
        machines: &Machines,
        snapshot: &NetworkSnapshot,
        load: &NetworkLoad,
    ) -> Result<IlpPlacerOutcome, PlaceError> {
        let j_tasks = app.n_tasks();
        let m_vms = machines.len();
        assert_eq!(snapshot.n_vms(), m_vms);

        // Pair bookkeeping.
        let all_pairs: Vec<(usize, usize)> =
            (0..j_tasks).flat_map(|i| ((i + 1)..j_tasks).map(move |j| (i, j))).collect();
        let pairs: Vec<(usize, usize)> = match self.formulation {
            Formulation::Paper => all_pairs.clone(),
            Formulation::Sparse => all_pairs
                .iter()
                .copied()
                .filter(|&(i, j)| app.matrix.bytes(i, j) > 0 || app.matrix.bytes(j, i) > 0)
                .collect(),
        };
        let x_idx = |i: usize, m: usize| i * m_vms + m;
        let z_base = j_tasks * m_vms;
        let z_idx = |p: usize, m: usize, n: usize| z_base + p * m_vms * m_vms + m * m_vms + n;
        let z_scalar = z_base + pairs.len() * m_vms * m_vms;
        let n_vars = z_scalar + 1;

        let mut lp = Lp::new(n_vars);
        lp.set_objective(z_scalar, 1.0);
        for v in 0..z_scalar {
            lp.set_bounds(v, 0.0, 1.0);
        }
        // z scalar: [0, ∞).

        // (3) each task on exactly one machine.
        for i in 0..j_tasks {
            let coeffs: Vec<(usize, f64)> = (0..m_vms).map(|m| (x_idx(i, m), 1.0)).collect();
            lp.add_constraint(coeffs, Relation::Eq, 1.0);
        }
        // (2) CPU limits, net of existing load.
        for m in 0..m_vms {
            let coeffs: Vec<(usize, f64)> =
                (0..j_tasks).map(|i| (x_idx(i, m), app.cpu[i])).collect();
            let cap = (machines.cpu[m] - load.cpu_used[m]).max(0.0);
            lp.add_constraint(coeffs, Relation::Le, cap);
        }
        // (4)(+5 / ≥-link) product linearization.
        for (p, &(i, j)) in pairs.iter().enumerate() {
            for m in 0..m_vms {
                for n in 0..m_vms {
                    let zv = z_idx(p, m, n);
                    lp.add_constraint(vec![(zv, 1.0), (x_idx(i, m), -1.0)], Relation::Le, 0.0);
                    lp.add_constraint(vec![(zv, 1.0), (x_idx(j, n), -1.0)], Relation::Le, 0.0);
                    if self.formulation == Formulation::Sparse {
                        // z ≥ X_im + X_jn − 1.
                        lp.add_constraint(
                            vec![(zv, 1.0), (x_idx(i, m), -1.0), (x_idx(j, n), -1.0)],
                            Relation::Ge,
                            -1.0,
                        );
                    }
                }
            }
        }
        if self.formulation == Formulation::Paper {
            // (5) per-task sum equals J−1: forces every product up.
            for i in 0..j_tasks {
                let mut coeffs = Vec::new();
                for (p, &(a, b)) in pairs.iter().enumerate() {
                    if a == i || b == i {
                        for m in 0..m_vms {
                            for n in 0..m_vms {
                                coeffs.push((z_idx(p, m, n), 1.0));
                            }
                        }
                    }
                }
                lp.add_constraint(coeffs, Relation::Eq, (j_tasks - 1) as f64);
            }
        }
        // (1) completion-time constraints.
        match snapshot.model {
            RateModel::Pipe => {
                for m in 0..m_vms {
                    for n in 0..m_vms {
                        if m == n {
                            continue;
                        }
                        let rate = snapshot.rate(VmId(m as u32), VmId(n as u32));
                        let mut coeffs = vec![(z_scalar, 1.0)];
                        for (p, &(i, j)) in pairs.iter().enumerate() {
                            let fwd = app.matrix.bytes(i, j) as f64 * 8.0 / rate;
                            if fwd > 0.0 {
                                coeffs.push((z_idx(p, m, n), -fwd));
                            }
                            let rev = app.matrix.bytes(j, i) as f64 * 8.0 / rate;
                            if rev > 0.0 {
                                coeffs.push((z_idx(p, n, m), -rev));
                            }
                        }
                        if coeffs.len() > 1 {
                            lp.add_constraint(coeffs, Relation::Ge, 0.0);
                        }
                    }
                }
            }
            RateModel::Hose => {
                for m in 0..m_vms {
                    let hose = snapshot.hose_rate(VmId(m as u32));
                    let mut coeffs = vec![(z_scalar, 1.0)];
                    for n in 0..m_vms {
                        if m == n {
                            continue;
                        }
                        for (p, &(i, j)) in pairs.iter().enumerate() {
                            let fwd = app.matrix.bytes(i, j) as f64 * 8.0 / hose;
                            if fwd > 0.0 {
                                coeffs.push((z_idx(p, m, n), -fwd));
                            }
                            let rev = app.matrix.bytes(j, i) as f64 * 8.0 / hose;
                            if rev > 0.0 {
                                coeffs.push((z_idx(p, n, m), -rev));
                            }
                        }
                    }
                    if coeffs.len() > 1 {
                        lp.add_constraint(coeffs, Relation::Ge, 0.0);
                    }
                }
            }
        }

        let integer_vars: Vec<usize> =
            (0..j_tasks).flat_map(|i| (0..m_vms).map(move |m| x_idx(i, m))).collect();

        // Warm start: the greedy heuristic's completion time is a valid
        // upper bound, letting branch-and-bound prune everything that
        // cannot beat it (the paper's observation that greedy is
        // near-optimal makes this cutoff very tight in practice).
        let warm = crate::greedy::GreedyPlacer.place(app, machines, snapshot, load).ok();
        let warm_obj =
            warm.as_ref().map(|p| crate::predict::predict_completion_secs(app, p, snapshot));
        let mut config = self.config;
        config.initial_upper_bound = warm_obj;

        let outcome = solve_ilp(&lp, &integer_vars, &config);
        let (sol_placement, objective, proven) = match outcome {
            IlpOutcome::Optimal(s) => (Self::extract(&s.x, j_tasks, m_vms), s.objective, true),
            IlpOutcome::Feasible(s) => {
                // Budget ran out with an incumbent better than the cutoff.
                (Self::extract(&s.x, j_tasks, m_vms), s.objective, false)
            }
            IlpOutcome::Infeasible => match (warm, warm_obj) {
                // The search exhausted the tree without beating the greedy
                // cutoff: greedy was optimal (within tolerance).
                (Some(p), Some(obj)) => (p, obj, true),
                _ => return Err(PlaceError::InsufficientCpu),
            },
            IlpOutcome::Unknown => match (warm, warm_obj) {
                (Some(p), Some(obj)) => (p, obj, false),
                _ => return Err(PlaceError::NoFeasibleMachine { task: 0 }),
            },
            IlpOutcome::Unbounded => return Err(PlaceError::NoFeasibleMachine { task: 0 }),
        };
        Ok(IlpPlacerOutcome {
            placement: sol_placement,
            objective_secs: objective,
            proven_optimal: proven,
        })
    }

    /// Round the relaxation's `X` block into an assignment.
    fn extract(x: &[f64], j_tasks: usize, m_vms: usize) -> Placement {
        let mut assignment = Vec::with_capacity(j_tasks);
        for i in 0..j_tasks {
            let m = (0..m_vms)
                .max_by(|&a, &b| x[i * m_vms + a].partial_cmp(&x[i * m_vms + b]).expect("no NaN"))
                .expect("at least one machine");
            assignment.push(m as u32);
        }
        Placement { assignment }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyPlacer;
    use crate::predict::predict_completion_secs;
    use crate::problem::validate;
    use choreo_profile::TrafficMatrix;

    fn snap(n: usize, entries: &[(usize, usize, f64)], model: RateModel) -> NetworkSnapshot {
        let mut rates = vec![1.0; n * n];
        for &(a, b, r) in entries {
            rates[a * n + b] = r;
        }
        NetworkSnapshot::from_rates(n, rates, model)
    }

    #[test]
    fn trivial_two_task_app_colocates() {
        // Two tasks exchanging data, roomy machines: optimum co-locates
        // them (objective 0).
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 1000);
        let app = AppProfile::new("t", vec![1.0, 1.0], m, 0);
        let machines = Machines::uniform(2, 4.0);
        let s = snap(2, &[], RateModel::Pipe);
        let out =
            IlpPlacer::default().place(&app, &machines, &s, &NetworkLoad::new(2)).expect("solved");
        assert!(out.proven_optimal);
        assert_eq!(out.placement.assignment[0], out.placement.assignment[1]);
        assert!(out.objective_secs.abs() < 1e-6);
    }

    #[test]
    fn picks_fast_path_when_split_is_forced() {
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 100);
        let app = AppProfile::new("t", vec![1.0, 1.0], m, 0);
        let machines = Machines::uniform(3, 1.0); // forces distinct machines
        let s = snap(
            3,
            &[(0, 1, 2.0), (1, 0, 2.0), (0, 2, 16.0), (2, 0, 16.0), (1, 2, 4.0), (2, 1, 4.0)],
            RateModel::Pipe,
        );
        let out =
            IlpPlacer::default().place(&app, &machines, &s, &NetworkLoad::new(3)).expect("solved");
        assert!(out.proven_optimal);
        // Fastest directed paths are 0->2 and 2->0 at rate 16:
        // 100*8/16 = 50 s. Either orientation is optimal.
        assert!(
            out.placement.assignment == vec![0, 2] || out.placement.assignment == vec![2, 0],
            "{:?}",
            out.placement.assignment
        );
        assert!((out.objective_secs - 50.0).abs() < 1e-6);
        let pred = predict_completion_secs(&app, &out.placement, &s);
        assert!((pred - out.objective_secs).abs() < 1e-6, "ILP and predictor agree");
    }

    #[test]
    fn paper_and_sparse_formulations_agree() {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 60);
        m.set(1, 2, 40);
        let app = AppProfile::new("t", vec![1.0; 3], m, 0);
        let machines = Machines::uniform(3, 1.0);
        let s = snap(
            3,
            &[(0, 1, 8.0), (1, 0, 8.0), (0, 2, 2.0), (2, 0, 2.0), (1, 2, 4.0), (2, 1, 4.0)],
            RateModel::Pipe,
        );
        let sparse = IlpPlacer { formulation: Formulation::Sparse, ..Default::default() }
            .place(&app, &machines, &s, &NetworkLoad::new(3))
            .expect("sparse solved");
        let paper = IlpPlacer { formulation: Formulation::Paper, ..Default::default() }
            .place(&app, &machines, &s, &NetworkLoad::new(3))
            .expect("paper solved");
        assert!(sparse.proven_optimal && paper.proven_optimal);
        assert!(
            (sparse.objective_secs - paper.objective_secs).abs() < 1e-6,
            "{} vs {}",
            sparse.objective_secs,
            paper.objective_secs
        );
    }

    #[test]
    fn ilp_beats_greedy_on_fig9_instance() {
        let mut m = TrafficMatrix::zeros(4);
        m.set(0, 1, 100);
        m.set(0, 2, 50);
        m.set(1, 3, 50);
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
        let machines = Machines::uniform(4, 1.0);
        let load = NetworkLoad::new(4);
        let greedy = GreedyPlacer.place(&app, &machines, &s, &load).unwrap();
        let greedy_time = predict_completion_secs(&app, &greedy, &s);
        let exact = IlpPlacer::default().place(&app, &machines, &s, &load).expect("solved");
        assert!(validate(&app, &machines, &exact.placement).is_ok());
        assert!(
            exact.objective_secs < greedy_time - 1e-9,
            "ILP {} should beat greedy {greedy_time}",
            exact.objective_secs
        );
    }

    #[test]
    fn hose_model_objective_counts_egress() {
        // One source fanning out to two sinks; hose model must sum both.
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 50);
        m.set(0, 2, 50);
        let app = AppProfile::new("fan", vec![1.0; 3], m, 0);
        let machines = Machines::uniform(3, 1.0);
        let s = snap(3, &[], RateModel::Hose); // all hoses rate 1
        let out =
            IlpPlacer::default().place(&app, &machines, &s, &NetworkLoad::new(3)).expect("solved");
        // 100 bytes * 8 / 1 = 800 s whatever the (forced distinct) layout.
        assert!((out.objective_secs - 800.0).abs() < 1e-6, "{}", out.objective_secs);
    }

    #[test]
    fn infeasible_cpu_is_reported() {
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 10);
        let app = AppProfile::new("t", vec![3.0, 3.0], m, 0);
        let machines = Machines::uniform(2, 2.0);
        let s = snap(2, &[], RateModel::Pipe);
        let err =
            IlpPlacer::default().place(&app, &machines, &s, &NetworkLoad::new(2)).unwrap_err();
        assert_eq!(err, PlaceError::InsufficientCpu);
    }

    #[test]
    fn existing_cpu_load_shrinks_capacity() {
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 10);
        let app = AppProfile::new("t", vec![1.0, 1.0], m, 0);
        let machines = Machines::uniform(2, 2.0);
        let s = snap(2, &[(0, 1, 4.0), (1, 0, 4.0)], RateModel::Pipe);
        let mut load = NetworkLoad::new(2);
        load.cpu_used = vec![1.5, 0.0];
        let out = IlpPlacer::default().place(&app, &machines, &s, &load).expect("solved");
        // Machine 0 has only 0.5 cores free: both tasks must use machine 1
        // — and co-locating them there zeroes the objective.
        assert_eq!(out.placement.assignment, vec![1, 1]);
    }
}
