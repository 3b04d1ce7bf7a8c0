//! Best-first branch-and-bound for 0/1 (and general-integer) programs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::model::{Lp, LpOutcome, Solution};
use crate::simplex::solve_lp;

/// Budgets and tolerances for the search.
#[derive(Debug, Clone, Copy)]
pub struct IlpConfig {
    /// Maximum LP relaxations to solve: the search's only budget, so
    /// whether an answer is proven optimal is a function of the input.
    pub max_nodes: usize,
    /// A value within `int_tol` of an integer counts as integral.
    pub int_tol: f64,
    /// Known upper bound on the optimum (e.g. from a heuristic): subtrees
    /// whose LP bound cannot beat it are pruned immediately. The final
    /// answer still reports only solutions the search itself found.
    pub initial_upper_bound: Option<f64>,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig { max_nodes: 20_000, int_tol: 1e-6, initial_upper_bound: None }
    }
}

/// Result of an ILP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpOutcome {
    /// Proven optimal integral solution.
    Optimal(Solution),
    /// Best integral solution found before the budget ran out (a valid
    /// feasible answer, optimality unproven).
    Feasible(Solution),
    /// No integral solution exists.
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
    /// Budget exhausted with no incumbent found.
    Unknown,
}

impl IlpOutcome {
    /// The solution, if any was found.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            IlpOutcome::Optimal(s) | IlpOutcome::Feasible(s) => Some(s),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Node {
    /// LP lower bound of this subtree.
    bound: f64,
    /// `(var, lo, hi)` bound overrides accumulated along the branch.
    fixes: Vec<(usize, f64, f64)>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound on top.
        other.bound.partial_cmp(&self.bound).unwrap_or(Ordering::Equal)
    }
}

/// Solve `lp` with the listed variables required to take integer values.
///
/// Branching is best-first on the LP bound; the branching variable is the
/// most fractional integer variable of the node relaxation.
pub fn solve_ilp(lp: &Lp, integer_vars: &[usize], cfg: &IlpConfig) -> IlpOutcome {
    let mut lp0 = lp.clone();
    let root = match solve_lp(&lp0) {
        LpOutcome::Optimal(s) => s,
        LpOutcome::Infeasible => return IlpOutcome::Infeasible,
        LpOutcome::Unbounded => return IlpOutcome::Unbounded,
        LpOutcome::IterationLimit => return IlpOutcome::Unknown,
    };
    let mut heap = BinaryHeap::new();
    heap.push(Node { bound: root.objective, fixes: Vec::new() });
    let mut incumbent: Option<Solution> = None;
    let mut nodes = 0usize;
    let mut exhausted = false;
    // An externally supplied bound prunes like an incumbent would.
    let cutoff =
        |inc: &Option<Solution>| inc.as_ref().map(|s| s.objective).or(cfg.initial_upper_bound);

    while let Some(node) = heap.pop() {
        if nodes >= cfg.max_nodes {
            exhausted = true;
            break;
        }
        nodes += 1;
        // Prune by incumbent / external cutoff.
        if let Some(bound) = cutoff(&incumbent) {
            if node.bound >= bound - 1e-9 {
                continue;
            }
        }
        // Apply bound overrides and solve the relaxation.
        for &(v, lo, hi) in &node.fixes {
            lp0.bounds[v] = (lo, hi);
        }
        let outcome = solve_lp(&lp0);
        // Restore bounds.
        for &(v, _, _) in &node.fixes {
            lp0.bounds[v] = lp.bounds[v];
        }
        let sol = match outcome {
            LpOutcome::Optimal(s) => s,
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => return IlpOutcome::Unbounded,
            LpOutcome::IterationLimit => continue, // skip numerically stuck nodes
        };
        if let Some(bound) = cutoff(&incumbent) {
            if sol.objective >= bound - 1e-9 {
                continue;
            }
        }
        // Find the most fractional integer variable.
        let mut branch: Option<(usize, f64)> = None;
        for &v in integer_vars {
            let val = sol.x[v];
            let frac = (val - val.round()).abs();
            if frac > cfg.int_tol {
                let dist = (val.fract() - 0.5).abs();
                if branch.is_none_or(|(_, d)| dist < d) {
                    branch = Some((v, dist));
                }
            }
        }
        match branch {
            None => {
                // Integral: snap and accept as incumbent.
                let mut x = sol.x.clone();
                for &v in integer_vars {
                    x[v] = x[v].round();
                }
                let objective = lp.objective_value(&x);
                if lp.is_feasible(&x, 1e-5)
                    && incumbent.as_ref().is_none_or(|inc| objective < inc.objective - 1e-9)
                {
                    incumbent = Some(Solution { x, objective });
                }
            }
            Some((v, _)) => {
                let val = sol.x[v];
                let (lo, hi) = lp.bounds[v];
                let floor = val.floor();
                let mut down = node.fixes.clone();
                down.push((v, lo, floor));
                let mut up = node.fixes.clone();
                up.push((v, floor + 1.0, hi));
                if floor >= lo - 1e-9 {
                    heap.push(Node { bound: sol.objective, fixes: down });
                }
                if floor + 1.0 <= hi + 1e-9 {
                    heap.push(Node { bound: sol.objective, fixes: up });
                }
            }
        }
    }

    match incumbent {
        Some(s) if !exhausted => IlpOutcome::Optimal(s),
        Some(s) => IlpOutcome::Feasible(s),
        None if exhausted => IlpOutcome::Unknown,
        None => IlpOutcome::Infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Relation;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c s.t. a+b+c <= 2 (binaries) -> pick a, b = 16.
        let mut lp = Lp::new(3);
        lp.set_objective(0, -10.0);
        lp.set_objective(1, -6.0);
        lp.set_objective(2, -4.0);
        for v in 0..3 {
            lp.set_bounds(v, 0.0, 1.0);
        }
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 2.0);
        match solve_ilp(&lp, &[0, 1, 2], &IlpConfig::default()) {
            IlpOutcome::Optimal(s) => {
                assert_close(s.objective, -16.0);
                assert_close(s.x[0], 1.0);
                assert_close(s.x[1], 1.0);
                assert_close(s.x[2], 0.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn fractional_relaxation_forces_branching() {
        // max x + y s.t. 2x + 2y <= 3, binaries. LP gives 1.5; ILP gives 1.
        let mut lp = Lp::new(2);
        lp.set_objective(0, -1.0);
        lp.set_objective(1, -1.0);
        lp.set_bounds(0, 0.0, 1.0);
        lp.set_bounds(1, 0.0, 1.0);
        lp.add_constraint(vec![(0, 2.0), (1, 2.0)], Relation::Le, 3.0);
        match solve_ilp(&lp, &[0, 1], &IlpConfig::default()) {
            IlpOutcome::Optimal(s) => assert_close(s.objective, -1.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infeasible_integrality() {
        // x binary, 0.4 <= x <= 0.6: LP feasible, no integer point.
        let mut lp = Lp::new(1);
        lp.set_bounds(0, 0.0, 1.0);
        lp.add_constraint(vec![(0, 1.0)], Relation::Ge, 0.4);
        lp.add_constraint(vec![(0, 1.0)], Relation::Le, 0.6);
        assert_eq!(solve_ilp(&lp, &[0], &IlpConfig::default()), IlpOutcome::Infeasible);
    }

    #[test]
    fn assignment_problem_exact() {
        // 2 tasks, 2 machines, cost matrix [[1, 10], [10, 1]];
        // x_tm binary, each task on one machine, each machine one task.
        // Optimal cost 2 (diagonal).
        let mut lp = Lp::new(4); // x00 x01 x10 x11
        let costs = [1.0, 10.0, 10.0, 1.0];
        for (v, &c) in costs.iter().enumerate() {
            lp.set_objective(v, c);
            lp.set_bounds(v, 0.0, 1.0);
        }
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
        lp.add_constraint(vec![(2, 1.0), (3, 1.0)], Relation::Eq, 1.0);
        lp.add_constraint(vec![(0, 1.0), (2, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(1, 1.0), (3, 1.0)], Relation::Le, 1.0);
        match solve_ilp(&lp, &[0, 1, 2, 3], &IlpConfig::default()) {
            IlpOutcome::Optimal(s) => {
                assert_close(s.objective, 2.0);
                assert_close(s.x[0], 1.0);
                assert_close(s.x[3], 1.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_budget_returns_feasible_or_unknown() {
        // A slightly larger knapsack with a 1-node budget: the root LP is
        // fractional, so with max_nodes=1 we cannot even branch once.
        let mut lp = Lp::new(6);
        let profit = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0];
        let weight = [5.0, 4.0, 3.5, 3.0, 2.5, 2.0];
        for (v, &p) in profit.iter().enumerate() {
            lp.set_objective(v, -p);
            lp.set_bounds(v, 0.0, 1.0);
        }
        lp.add_constraint(weight.iter().copied().enumerate().collect(), Relation::Le, 10.0);
        let cfg = IlpConfig { max_nodes: 1, ..Default::default() };
        match solve_ilp(&lp, &[0, 1, 2, 3, 4, 5], &cfg) {
            IlpOutcome::Feasible(_) | IlpOutcome::Unknown => {}
            other => panic!("expected budget-limited outcome, got {other:?}"),
        }
    }

    #[test]
    fn integral_relaxation_short_circuits() {
        // Totally unimodular constraints: the LP optimum is already integral.
        let mut lp = Lp::new(2);
        lp.set_objective(0, -1.0);
        lp.set_objective(1, -2.0);
        lp.set_bounds(0, 0.0, 1.0);
        lp.set_bounds(1, 0.0, 1.0);
        match solve_ilp(&lp, &[0, 1], &IlpConfig::default()) {
            IlpOutcome::Optimal(s) => assert_close(s.objective, -3.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn general_integer_variables() {
        // min -x with x integer in [0, 3.7]: optimum x = 3.
        let mut lp = Lp::new(1);
        lp.set_objective(0, -1.0);
        lp.set_bounds(0, 0.0, 3.7);
        match solve_ilp(&lp, &[0], &IlpConfig::default()) {
            IlpOutcome::Optimal(s) => assert_close(s.x[0], 3.0),
            other => panic!("{other:?}"),
        }
    }
}
