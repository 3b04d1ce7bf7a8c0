//! Shared placement vocabulary: machines, placements, load bookkeeping,
//! and the one CPU admission rule (Algorithm 1 lines 10–11, the Appendix
//! ILP's constraint (2), the §6.1 baselines' "enough available CPU"):
//! [`Machines::fits`] with its tolerance [`CPU_TOL`], the pre-check
//! [`Machines::check_room`], [`Machines::check_placement`], and the CPU
//! ledger's [`charge_cpu`] / [`release_cpu`]. Every placer and the online
//! scheduler decide CPU through these.

use choreo_profile::AppProfile;
use choreo_topology::VmId;

/// How far a VM's committed CPU may overrun its capacity and still fit
/// ([`Machines::fits`]): slack for the rounding of summed demands.
pub const CPU_TOL: f64 = 1e-9;

/// The tenant's rented VMs, by CPU capacity (§6.1: four cores each).
#[derive(Debug, Clone, PartialEq)]
pub struct Machines {
    /// CPU capacity per VM, cores.
    pub cpu: Vec<f64>,
}

impl Machines {
    /// `n` identical machines with `cores` each.
    pub fn uniform(n: usize, cores: f64) -> Self {
        assert!(n > 0 && cores > 0.0);
        Machines { cpu: vec![cores; n] }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.cpu.len()
    }

    /// True iff there are no machines.
    pub fn is_empty(&self) -> bool {
        self.cpu.is_empty()
    }

    /// The CPU fit test: does `demand` more fit on `vm` with `used` cores
    /// committed, within capacity plus [`CPU_TOL`]?
    #[inline]
    pub fn fits(&self, vm: usize, used: f64, demand: f64) -> bool {
        used + demand <= self.cpu[vm] + CPU_TOL
    }

    /// Cores still free on `vm` with `used` committed, never below zero.
    pub fn free(&self, vm: usize, used: f64) -> f64 {
        (self.cpu[vm] - used).max(0.0)
    }

    /// Every placer's pre-check: [`PlaceError::InsufficientCpu`] when
    /// `app`'s total demand exceeds the total free CPU under ledger `used`.
    pub fn check_room(&self, app: &AppProfile, used: &[f64]) -> Result<(), PlaceError> {
        let total: f64 = app.cpu.iter().sum();
        let free: f64 = used.iter().enumerate().map(|(vm, &u)| self.free(vm, u)).sum();
        if total > free + CPU_TOL {
            return Err(PlaceError::InsufficientCpu);
        }
        Ok(())
    }

    /// Does placement `p` of `app` fit on top of ledger `used`? Each VM's
    /// share, summed in task order, goes to [`Machines::fits`]; the error
    /// names the first task on a VM that overflows.
    pub fn check_placement(
        &self,
        app: &AppProfile,
        p: &Placement,
        used: &[f64],
    ) -> Result<(), PlaceError> {
        assert_eq!(p.assignment.len(), app.n_tasks(), "placement covers every task");
        let mut share = vec![0.0; self.len()];
        for (task, &vm) in p.assignment.iter().enumerate() {
            let vm = vm as usize;
            assert!(vm < self.len(), "task {task} assigned to unknown VM {vm}");
            share[vm] += app.cpu[task];
        }
        let overflows = |&vm: &u32| !self.fits(vm as usize, used[vm as usize], share[vm as usize]);
        match p.assignment.iter().position(overflows) {
            Some(task) => Err(PlaceError::NoFeasibleMachine { task }),
            None => Ok(()),
        }
    }
}

/// Charge `app`'s tasks, placed by `p`, to CPU ledger `used` in task order.
pub fn charge_cpu(used: &mut [f64], app: &AppProfile, p: &Placement) {
    for (task, &vm) in p.assignment.iter().enumerate() {
        used[vm as usize] += app.cpu[task];
    }
}

/// Release what [`charge_cpu`] charged, each VM clamped at zero.
pub fn release_cpu(used: &mut [f64], app: &AppProfile, p: &Placement) {
    for (task, &vm) in p.assignment.iter().enumerate() {
        let c = &mut used[vm as usize];
        *c = (*c - app.cpu[task]).max(0.0);
    }
}

/// An assignment of every task to a VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `assignment[task] = vm index`.
    pub assignment: Vec<u32>,
}

impl Placement {
    /// VM of a task.
    pub fn vm_of(&self, task: usize) -> VmId {
        VmId(self.assignment[task])
    }

    /// Number of distinct VMs used.
    pub fn machines_used(&self) -> usize {
        let mut v = self.assignment.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    }
}

/// Why a placement attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// Total CPU demand cannot fit on the machines at all.
    InsufficientCpu,
    /// The placer could not find a feasible machine for a task
    /// (fragmentation or exhausted capacity).
    NoFeasibleMachine {
        /// Task that could not be placed.
        task: usize,
    },
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::InsufficientCpu => write!(f, "total CPU demand exceeds total capacity"),
            PlaceError::NoFeasibleMachine { task } => {
                write!(f, "no machine has room for task {task}")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Check that a placement covers every task and fits the machines'
/// CPU: [`Machines::check_placement`] on an empty ledger.
pub fn validate(app: &AppProfile, machines: &Machines, p: &Placement) -> Result<(), PlaceError> {
    machines.check_placement(app, p, &vec![0.0; machines.len()])
}

/// Search nodes — one task tried on one host — [`cpu_packing`] visits
/// before it gives up and answers [`Packing::Undecided`].
pub const PACK_NODE_BUDGET: u32 = 4_096;

/// How far a packing may overrun a host's free CPU and still count:
/// three orders of magnitude looser than the placers' [`CPU_TOL`], so
/// the order floating-point sums are taken in can only tip the answer
/// towards "fits".
const PACK_TOL: f64 = 1e-6;
const _: () = assert!(PACK_TOL > 100.0 * CPU_TOL, "packing must stay looser than the fit test");

/// What [`cpu_packing`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packing {
    /// An assignment of every task that fits the hosts' free CPU.
    Found,
    /// The node budget ran out first: nothing is known, so callers treat
    /// it as "fits".
    Undecided,
    /// No assignment of the tasks to the hosts fits their free CPU.
    Impossible,
}

impl Packing {
    /// Could some placement exist? Only a proof of
    /// [`Packing::Impossible`] says no.
    pub fn may_fit(self) -> bool {
        self != Packing::Impossible
    }
}

/// Reusable buffers of [`cpu_packing`]: once they have grown to an
/// instance's size, checking it allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    /// Demands, largest first.
    tasks: Vec<f64>,
    /// `need[t]`: the demand of `tasks[t..]`.
    need: Vec<f64>,
    /// One row of per-host remaining free CPU per search depth, each row
    /// sorted in descending order.
    rows: Vec<f64>,
}

/// Can tasks with CPU demands `demand` be packed onto hosts with `free`
/// CPU at all? A pure, network-oblivious check: it knows nothing of
/// transfers, rates or which placer runs next.
///
/// An exhaustive search, tasks largest first. Hosts whose remaining free
/// CPU is bit-equal to an earlier host's are tried once (the states the
/// two lead to are the same up to renaming), and at every node the
/// search stops when the remaining demand exceeds the remaining room or
/// the largest remaining task exceeds the roomiest host. After
/// [`PACK_NODE_BUDGET`] nodes it answers [`Packing::Undecided`].
///
/// **Soundness.** Any placement Algorithm 1
/// ([`crate::GreedyPlacer::place_with_scratch`]) returns is such a packing: the
/// placer admits a task on a host only through [`Machines::fits`], while
/// the host's committed CPU stays within its capacity plus [`CPU_TOL`],
/// so every host's tasks sum to at most its free CPU plus [`CPU_TOL`].
/// The search accepts anything within `PACK_TOL` (`1e-6`, asserted at
/// compile time to exceed `100 · CPU_TOL`), a margin no summation order
/// of a few dozen core counts can eat, and prunes nothing such a
/// placement could complete. So
/// [`Packing::Impossible`] implies the placer fails on the same hosts,
/// and a caller may skip it — and every rate it would have asked for.
pub fn cpu_packing(demand: &[f64], free: &[f64], scratch: &mut PackScratch) -> Packing {
    let (n, h) = (demand.len(), free.len());
    let PackScratch { tasks, need, rows } = scratch;
    tasks.clear();
    tasks.extend_from_slice(demand);
    tasks.sort_unstable_by(|a, b| b.total_cmp(a));
    need.clear();
    need.resize(n + 1, 0.0);
    for t in (0..n).rev() {
        need[t] = need[t + 1] + tasks[t];
    }
    rows.clear();
    // A host over capacity has no room; clamping only adds room.
    rows.extend(free.iter().map(|&f| f.max(0.0)));
    rows.sort_unstable_by(|a, b| b.total_cmp(a));
    let room = rows.iter().sum();
    rows.resize(h * (n + 1), 0.0);
    let mut budget = PACK_NODE_BUDGET;
    pack_from(scratch, h, 0, room, &mut budget)
}

/// [`cpu_packing`]'s search below depth `t`: `rows[t]` holds the hosts'
/// remaining free CPU, sorted descending, and `room` their clamped sum.
fn pack_from(s: &mut PackScratch, h: usize, t: usize, room: f64, budget: &mut u32) -> Packing {
    let Some(&task) = s.tasks.get(t) else { return Packing::Found };
    // Sum bound: each host may overrun by the tolerance.
    if s.need[t] > room + PACK_TOL * h as f64 {
        return Packing::Impossible;
    }
    for i in 0..h {
        let (row, next) = s.rows[t * h..(t + 2) * h].split_at_mut(h);
        let r = row[i];
        // Largest-task bound at `i == 0`; rows are sorted, so once a host
        // is too small every later one is too.
        if task > r + PACK_TOL {
            break;
        }
        if i > 0 && r.to_bits() == row[i - 1].to_bits() {
            continue;
        }
        if *budget == 0 {
            return Packing::Undecided;
        }
        *budget -= 1;
        next.copy_from_slice(row);
        let left = r - task;
        next[i] = left;
        let mut j = i;
        while j + 1 < h && next[j + 1] > left {
            next.swap(j, j + 1);
            j += 1;
        }
        let room = room - r.max(0.0) + left.max(0.0);
        match pack_from(s, h, t + 1, room, budget) {
            Packing::Impossible => {}
            found_or_undecided => return found_or_undecided,
        }
    }
    Packing::Impossible
}

/// Network and CPU load imposed by applications that are already running —
/// what sequence placement (§2.4) must account for when the next
/// application arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLoad {
    n_vms: usize,
    /// Concurrent transfers currently using each ordered VM pair.
    path_load: Vec<u32>,
    /// Concurrent transfers leaving each VM (hose accounting).
    egress_load: Vec<u32>,
    /// CPU cores consumed on each VM.
    pub cpu_used: Vec<f64>,
}

impl NetworkLoad {
    /// Empty load over `n_vms` machines.
    pub fn new(n_vms: usize) -> Self {
        NetworkLoad {
            n_vms,
            path_load: vec![0; n_vms * n_vms],
            egress_load: vec![0; n_vms],
            cpu_used: vec![0.0; n_vms],
        }
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.n_vms
    }

    /// Transfers currently on ordered pair `(a, b)`.
    pub fn on_path(&self, a: VmId, b: VmId) -> u32 {
        self.path_load[a.0 as usize * self.n_vms + b.0 as usize]
    }

    /// Transfers currently leaving `a`.
    pub fn egress(&self, a: VmId) -> u32 {
        self.egress_load[a.0 as usize]
    }

    /// Account a placed application's transfers and CPU.
    pub fn apply(&mut self, app: &AppProfile, p: &Placement) {
        self.update_network(app, p, true);
        charge_cpu(&mut self.cpu_used, app, p);
    }

    /// Remove a completed application's transfers and CPU.
    pub fn remove(&mut self, app: &AppProfile, p: &Placement) {
        self.update_network(app, p, false);
        release_cpu(&mut self.cpu_used, app, p);
    }

    /// Network counters relative to a baseline (saturating), keeping CPU
    /// as-is. Used after a re-measurement: transfers that were already
    /// running when the network was measured are part of the measured
    /// rates and must not be double-counted by the placer; only load
    /// admitted *after* the measurement needs explicit accounting.
    pub fn network_since(&self, baseline: &NetworkLoad) -> NetworkLoad {
        assert_eq!(self.n_vms, baseline.n_vms);
        NetworkLoad {
            n_vms: self.n_vms,
            path_load: self
                .path_load
                .iter()
                .zip(&baseline.path_load)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            egress_load: self
                .egress_load
                .iter()
                .zip(&baseline.egress_load)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            cpu_used: self.cpu_used.clone(),
        }
    }

    fn update_network(&mut self, app: &AppProfile, p: &Placement, add: bool) {
        for (i, j, _) in app.matrix.transfers_desc() {
            let (a, b) = (p.assignment[i] as usize, p.assignment[j] as usize);
            if a == b {
                continue; // same-VM transfers never touch the network
            }
            let path = &mut self.path_load[a * self.n_vms + b];
            let eg = &mut self.egress_load[a];
            if add {
                *path += 1;
                *eg += 1;
            } else {
                *path = path.saturating_sub(1);
                *eg = eg.saturating_sub(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choreo_profile::TrafficMatrix;

    fn app2() -> AppProfile {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 100);
        m.set(1, 2, 50);
        AppProfile::new("t", vec![1.0, 2.0, 1.0], m, 0)
    }

    #[test]
    fn validate_accepts_feasible() {
        let app = app2();
        let machines = Machines::uniform(2, 4.0);
        let p = Placement { assignment: vec![0, 0, 1] };
        assert!(validate(&app, &machines, &p).is_ok());
    }

    #[test]
    fn validate_rejects_cpu_overflow() {
        let app = app2();
        let machines = Machines::uniform(2, 2.5);
        // 1 + 2 = 3 cores on machine 0 > 2.5.
        let p = Placement { assignment: vec![0, 0, 1] };
        assert!(validate(&app, &machines, &p).is_err());
    }

    #[test]
    fn validate_names_the_first_task_on_the_overflowing_vm() {
        let app = app2();
        let machines = Machines::uniform(3, 2.5);
        // VM 2 takes tasks 0 and 1 (3 cores > 2.5); task 2 fits on VM 0.
        let p = Placement { assignment: vec![2, 2, 0] };
        assert_eq!(validate(&app, &machines, &p), Err(PlaceError::NoFeasibleMachine { task: 0 }));
    }

    /// Does any assignment of `demand` to the hosts keep every host
    /// within its clamped `free` plus the check's tolerance? Tries all
    /// `hosts^tasks` of them.
    fn packs_by_enumeration(demand: &[f64], free: &[f64]) -> bool {
        let (n, h) = (demand.len() as u32, free.len());
        (0..(h as u64).pow(n)).any(|code| {
            let mut used = vec![0.0; h];
            let mut c = code;
            for &d in demand {
                used[(c % h as u64) as usize] += d;
                c /= h as u64;
            }
            used.iter().zip(free).all(|(u, f)| *u <= f.max(0.0) + PACK_TOL)
        })
    }

    #[test]
    fn packing_agrees_with_enumeration_on_small_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut scratch = PackScratch::default();
        let (mut impossible, mut found) = (0, 0);
        for _ in 0..3_000 {
            let n = rng.gen_range(1..=6);
            let h = rng.gen_range(1..=4);
            let demand: Vec<f64> = (0..n).map(|_| 0.5 * rng.gen_range(1..=8) as f64).collect();
            let free: Vec<f64> = (0..h).map(|_| 0.5 * rng.gen_range(0..=8) as f64).collect();
            let got = cpu_packing(&demand, &free, &mut scratch);
            if got == Packing::Undecided {
                continue;
            }
            let fits = got == Packing::Found;
            assert_eq!(fits, packs_by_enumeration(&demand, &free), "{demand:?} on {free:?}");
            found += fits as u32;
            impossible += !fits as u32;
        }
        assert!(impossible > 300 && found > 300, "{impossible} impossible, {found} found");
    }

    #[test]
    fn machines_used_counts_distinct() {
        let p = Placement { assignment: vec![0, 0, 2, 2, 1] };
        assert_eq!(p.machines_used(), 3);
        assert_eq!(p.vm_of(2), VmId(2));
    }

    #[test]
    fn load_apply_and_remove_round_trip() {
        let app = app2();
        let mut load = NetworkLoad::new(3);
        let p = Placement { assignment: vec![0, 1, 1] };
        load.apply(&app, &p);
        // transfer 0->1 crosses VMs 0->1; transfer 1->2 is intra-VM 1.
        assert_eq!(load.on_path(VmId(0), VmId(1)), 1);
        assert_eq!(load.on_path(VmId(1), VmId(0)), 0);
        assert_eq!(load.egress(VmId(0)), 1);
        assert_eq!(load.egress(VmId(1)), 0, "intra-VM transfer stays local");
        assert_eq!(load.cpu_used, vec![1.0, 3.0, 0.0]);
        load.remove(&app, &p);
        assert_eq!(load, NetworkLoad::new(3));
    }
}
