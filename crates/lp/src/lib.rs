//! Linear and 0/1-integer programming for Choreo's exact placement.
//!
//! The paper's Appendix reduces "minimize application completion time" to a
//! linear program with binary variables (`X_jm` task-to-machine indicators
//! and linearization variables `z_imjn`). No off-the-shelf MILP solver is
//! available offline, so this crate implements the substrate from scratch:
//!
//! * [`model`] — problem description: variables with bounds, linear
//!   constraints (≤, ≥, =), minimization objective.
//! * [`simplex`] — dense two-phase primal simplex with Bland's rule
//!   (anti-cycling). Suitable for the few-hundred-variable relaxations the
//!   placement ILP produces.
//! * [`branch`] — best-first branch-and-bound over declared integer
//!   variables, with a node budget and no clock; returns either a proven
//!   optimum or the best incumbent when the budget runs out (the paper
//!   itself notes the ILP "occasionally took a very long time to solve",
//!   which motivated Choreo's greedy algorithm).

pub mod branch;
pub mod model;
pub mod simplex;

pub use branch::{solve_ilp, IlpConfig, IlpOutcome};
pub use model::{Constraint, Lp, LpOutcome, Relation, Solution};
pub use simplex::solve_lp;
