//! Choreo's placement subsystem (paper §5 + Appendix, evaluated in §6).
//!
//! Given an application profile (tasks, CPU demands, traffic matrix) and a
//! measured [`choreo_measure::NetworkSnapshot`], produce an assignment of
//! tasks to VMs that minimizes completion time:
//!
//! * [`greedy`] — **Algorithm 1**: walk transfers in descending byte order
//!   and put each on the fastest feasible path, modelling already-placed
//!   transfers with either the hose or pipe sharing rule. Near-optimal in
//!   practice (§5: median 13% above optimal over 111 applications) and fast.
//! * [`ilp`] — the Appendix's exact formulation (binary `X_jm`,
//!   linearization variables `z_imjn`, minimax completion objective),
//!   solved by `choreo-lp`'s branch-and-bound.
//! * [`baseline`] — the three comparison placers from §6: Random,
//!   Round-Robin, and Minimum-Machines.
//! * [`predict`] — closed-form completion-time prediction for a placement
//!   under a snapshot (the objective both placers optimize).
//! * [`problem`] — shared vocabulary: machine capacities, placements,
//!   validation, the one CPU admission rule every placer applies
//!   ([`Machines::fits`] and its tolerance [`problem::CPU_TOL`]), the
//!   [`NetworkLoad`] bookkeeping that lets sequence
//!   placement (§2.4/§6.3) account for transfers already in flight, and
//!   [`cpu_packing`], the CPU-only check that proves a placement attempt
//!   must fail before any rate is asked for.

pub mod baseline;
pub mod greedy;
pub mod ilp;
pub mod predict;
pub mod problem;

pub use baseline::{MinMachinesPlacer, RandomPlacer, RoundRobinPlacer};
pub use greedy::{GreedyPlacer, PlaceScratch};
pub use ilp::{IlpPlacer, IlpPlacerOutcome};
pub use predict::predict_completion_secs;
pub use problem::{
    cpu_packing, Machines, NetworkLoad, PackScratch, Packing, PlaceError, Placement,
};
