//! The three baseline placers Choreo is compared against (§6).
//!
//! None of them look at the network:
//!
//! * [`RandomPlacer`] — tasks land on random VMs with enough CPU.
//! * [`RoundRobinPlacer`] — tasks cycle through the VM list (a
//!   load-balancing placement).
//! * [`MinMachinesPlacer`] — tasks pack onto as few VMs as possible
//!   (a cost-minimizing placement).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use choreo_profile::AppProfile;

use crate::problem::{Machines, NetworkLoad, PlaceError, Placement};

/// The loop the three baselines share: the total-room pre-check, then
/// each task in order onto the VM `choose(used, demand)` picks, charged
/// to a copy of `load`'s CPU ledger. `None` from `choose` fails the task.
fn assign_tasks(
    app: &AppProfile,
    machines: &Machines,
    load: &NetworkLoad,
    mut choose: impl FnMut(&[f64], f64) -> Option<usize>,
) -> Result<Placement, PlaceError> {
    machines.check_room(app, &load.cpu_used)?;
    let mut used = load.cpu_used.clone();
    let mut assignment = Vec::with_capacity(app.n_tasks());
    for (task, &demand) in app.cpu.iter().enumerate() {
        let vm = choose(&used, demand).ok_or(PlaceError::NoFeasibleMachine { task })?;
        used[vm] += demand;
        assignment.push(vm as u32);
    }
    Ok(Placement { assignment })
}

/// Uniform random assignment subject to CPU constraints.
#[derive(Debug, Clone)]
pub struct RandomPlacer {
    rng: StdRng,
}

impl RandomPlacer {
    /// Seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        RandomPlacer { rng: StdRng::seed_from_u64(seed) }
    }

    /// Place each task on a random VM with room.
    pub fn place(
        &mut self,
        app: &AppProfile,
        machines: &Machines,
        load: &NetworkLoad,
    ) -> Result<Placement, PlaceError> {
        let rng = &mut self.rng;
        assign_tasks(app, machines, load, |used, demand| {
            let feasible: Vec<usize> =
                (0..machines.len()).filter(|&m| machines.fits(m, used[m], demand)).collect();
            (!feasible.is_empty()).then(|| feasible[rng.gen_range(0..feasible.len())])
        })
    }
}

/// Round-robin assignment: "a particular task is assigned to the next
/// machine in the list that has enough available CPU".
#[derive(Debug, Clone, Default)]
pub struct RoundRobinPlacer {
    cursor: usize,
}

impl RoundRobinPlacer {
    /// Fresh placer starting at VM 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Place tasks cycling through machines.
    pub fn place(
        &mut self,
        app: &AppProfile,
        machines: &Machines,
        load: &NetworkLoad,
    ) -> Result<Placement, PlaceError> {
        let n = machines.len();
        let cursor = &mut self.cursor;
        assign_tasks(app, machines, load, |used, demand| {
            let vm = (0..n)
                .map(|probe| (*cursor + probe) % n)
                .find(|&vm| machines.fits(vm, used[vm], demand))?;
            *cursor = (vm + 1) % n;
            Some(vm)
        })
    }
}

/// Packing placer: reuse machines until full, open new ones reluctantly.
#[derive(Debug, Clone, Default)]
pub struct MinMachinesPlacer;

impl MinMachinesPlacer {
    /// Place tasks onto the fewest machines (first-fit in index order,
    /// preferring machines that already host a task or carry load).
    pub fn place(
        &self,
        app: &AppProfile,
        machines: &Machines,
        load: &NetworkLoad,
    ) -> Result<Placement, PlaceError> {
        let mut opened: Vec<bool> = load.cpu_used.iter().map(|&u| u > 0.0).collect();
        assign_tasks(app, machines, load, |used, demand| {
            // First try machines already in use.
            let first_fit = |open: bool| {
                (0..machines.len())
                    .filter(|&m| opened[m] == open)
                    .find(|&m| machines.fits(m, used[m], demand))
            };
            let vm = first_fit(true).or_else(|| first_fit(false))?;
            opened[vm] = true;
            Some(vm)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::validate;
    use choreo_profile::TrafficMatrix;

    fn app(n: usize, cpu: f64) -> AppProfile {
        AppProfile::new("t", vec![cpu; n], TrafficMatrix::zeros(n), 0)
    }

    #[test]
    fn random_respects_cpu_and_is_seeded() {
        let a = app(8, 1.0);
        let machines = Machines::uniform(4, 2.0);
        let load = NetworkLoad::new(4);
        let p1 = RandomPlacer::new(7).place(&a, &machines, &load).unwrap();
        let p2 = RandomPlacer::new(7).place(&a, &machines, &load).unwrap();
        assert_eq!(p1, p2, "same seed, same placement");
        assert!(validate(&a, &machines, &p1).is_ok());
    }

    #[test]
    fn random_varies_across_seeds() {
        let a = app(8, 1.0);
        let machines = Machines::uniform(8, 4.0);
        let load = NetworkLoad::new(8);
        let p1 = RandomPlacer::new(1).place(&a, &machines, &load).unwrap();
        let p2 = RandomPlacer::new(2).place(&a, &machines, &load).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn round_robin_cycles() {
        let a = app(4, 1.0);
        let machines = Machines::uniform(4, 4.0);
        let p = RoundRobinPlacer::new().place(&a, &machines, &NetworkLoad::new(4)).unwrap();
        assert_eq!(p.assignment, vec![0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_skips_full_machines() {
        let a = app(3, 2.0);
        let machines = Machines::uniform(4, 2.0);
        let mut load = NetworkLoad::new(4);
        load.cpu_used[1] = 2.0; // machine 1 already full
        let p = RoundRobinPlacer::new().place(&a, &machines, &load).unwrap();
        assert_eq!(p.assignment, vec![0, 2, 3]);
    }

    #[test]
    fn min_machines_packs() {
        let a = app(4, 1.0);
        let machines = Machines::uniform(4, 4.0);
        let p = MinMachinesPlacer.place(&a, &machines, &NetworkLoad::new(4)).unwrap();
        assert_eq!(p.machines_used(), 1, "all four 1-core tasks fit one 4-core VM");
    }

    #[test]
    fn min_machines_opens_only_when_needed() {
        let a = app(5, 2.0); // 10 cores total
        let machines = Machines::uniform(5, 4.0);
        let p = MinMachinesPlacer.place(&a, &machines, &NetworkLoad::new(5)).unwrap();
        assert_eq!(p.machines_used(), 3, "ceil(10/4) machines");
    }

    #[test]
    fn all_baselines_error_on_infeasible() {
        let a = app(3, 3.0);
        let machines = Machines::uniform(2, 4.0);
        let load = NetworkLoad::new(2);
        assert!(RandomPlacer::new(0).place(&a, &machines, &load).is_err());
        assert!(RoundRobinPlacer::new().place(&a, &machines, &load).is_err());
        assert!(MinMachinesPlacer.place(&a, &machines, &load).is_err());
    }

    #[test]
    fn fragmentation_reports_no_feasible_machine() {
        // Total CPU fits but no single machine can take the 2-core task.
        let mut a = app(3, 1.5);
        a.cpu = vec![1.5, 1.5, 2.0];
        let machines = Machines::uniform(3, 1.9);
        let load = NetworkLoad::new(3);
        let err = MinMachinesPlacer.place(&a, &machines, &load).unwrap_err();
        assert!(matches!(err, PlaceError::NoFeasibleMachine { task: 2 }));
    }
}
