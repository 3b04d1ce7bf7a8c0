//! The Choreo orchestrator: measurement state + placement dispatch.

use choreo_measure::{MeasureBackend, NetworkSnapshot};
use choreo_place::baseline::{MinMachinesPlacer, RandomPlacer, RoundRobinPlacer};
use choreo_place::greedy::GreedyPlacer;
use choreo_place::problem::{Machines, NetworkLoad, PlaceError, Placement};
use choreo_profile::AppProfile;

use crate::config::{ChoreoConfig, PlacerKind};

/// Tenant-side Choreo instance for one VM allocation.
pub struct Choreo {
    machines: Machines,
    config: ChoreoConfig,
    snapshot: Option<NetworkSnapshot>,
    load: NetworkLoad,
    /// Load state at the time of the last measurement: transfers already
    /// running then are baked into the snapshot's rates and must not be
    /// double-counted when placing.
    load_at_measure: NetworkLoad,
    running: Vec<(u64, AppProfile, Placement)>,
    random: RandomPlacer,
    round_robin: RoundRobinPlacer,
    next_tag: u64,
}

impl Choreo {
    /// New orchestrator over the tenant's machines.
    pub fn new(machines: Machines, config: ChoreoConfig) -> Self {
        let n = machines.len();
        let seed = match config.placer {
            PlacerKind::Random(s) => s,
            _ => 0,
        };
        Choreo {
            machines,
            config,
            snapshot: None,
            load: NetworkLoad::new(n),
            load_at_measure: NetworkLoad::new(n),
            running: Vec::new(),
            random: RandomPlacer::new(seed),
            round_robin: RoundRobinPlacer::new(),
            next_tag: 1,
        }
    }

    /// The tenant's machines.
    pub fn machines(&self) -> &Machines {
        &self.machines
    }

    /// Current configuration.
    pub fn config(&self) -> &ChoreoConfig {
        &self.config
    }

    /// Current measured snapshot, if any.
    pub fn snapshot(&self) -> Option<&NetworkSnapshot> {
        self.snapshot.as_ref()
    }

    /// Load currently imposed by running applications.
    pub fn load(&self) -> &NetworkLoad {
        &self.load
    }

    /// Applications currently tracked as running: `(tag, app, placement)`.
    pub fn running(&self) -> &[(u64, AppProfile, Placement)] {
        &self.running
    }

    /// (Re-)measure the network through a backend (§2.2: packet trains get
    /// a snapshot of a 10-VM mesh in under three minutes).
    pub fn measure<B: MeasureBackend>(&mut self, backend: &mut B) -> &NetworkSnapshot {
        assert_eq!(backend.n_vms(), self.machines.len(), "backend covers the machines");
        self.snapshot = Some(NetworkSnapshot::measure(backend, self.config.rate_model));
        self.load_at_measure = self.load.clone();
        self.snapshot.as_ref().expect("just set")
    }

    /// Inject a snapshot directly (tests, replay). The snapshot is assumed
    /// to reflect the currently admitted load.
    pub fn set_snapshot(&mut self, snapshot: NetworkSnapshot) {
        assert_eq!(snapshot.n_vms(), self.machines.len());
        self.snapshot = Some(snapshot);
        self.load_at_measure = self.load.clone();
    }

    /// Place an application with the configured algorithm, *without*
    /// registering it as running. Network-aware placers require a prior
    /// [`Choreo::measure`] / [`Choreo::set_snapshot`].
    pub fn place(&mut self, app: &AppProfile) -> Result<Placement, PlaceError> {
        match &self.config.placer {
            PlacerKind::Greedy => {
                let snap = self.snapshot.as_ref().expect("measure before placing");
                let load = self.load.network_since(&self.load_at_measure);
                GreedyPlacer.place(app, &self.machines, snap, &load)
            }
            PlacerKind::Ilp(placer) => {
                let snap = self.snapshot.as_ref().expect("measure before placing");
                let load = self.load.network_since(&self.load_at_measure);
                placer.place(app, &self.machines, snap, &load).map(|o| o.placement)
            }
            PlacerKind::Random(_) => self.random.place(app, &self.machines, &self.load),
            PlacerKind::RoundRobin => self.round_robin.place(app, &self.machines, &self.load),
            PlacerKind::MinMachines => MinMachinesPlacer.place(app, &self.machines, &self.load),
        }
    }

    /// Register a placed application as running; returns its tag.
    pub fn admit(&mut self, app: &AppProfile, placement: &Placement) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.load.apply(app, placement);
        self.running.push((tag, app.clone(), placement.clone()));
        tag
    }

    /// Mark a running application complete; releases its load.
    pub fn complete(&mut self, tag: u64) {
        if let Some(pos) = self.running.iter().position(|(t, _, _)| *t == tag) {
            let (_, app, placement) = self.running.remove(pos);
            self.load.remove(&app, &placement);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choreo_measure::RateModel;
    use choreo_profile::TrafficMatrix;

    fn snap(n: usize) -> NetworkSnapshot {
        NetworkSnapshot::from_rates(n, vec![100.0; n * n], RateModel::Hose)
    }

    fn app() -> AppProfile {
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 1000);
        AppProfile::new("a", vec![1.0, 1.0], m, 0)
    }

    #[test]
    fn measure_then_place_then_admit() {
        let mut c = Choreo::new(Machines::uniform(4, 4.0), ChoreoConfig::default());
        c.set_snapshot(snap(4));
        let a = app();
        let p = c.place(&a).expect("fits");
        let tag = c.admit(&a, &p);
        assert_eq!(c.running().len(), 1);
        c.complete(tag);
        assert_eq!(c.running().len(), 0);
        assert_eq!(*c.load(), NetworkLoad::new(4));
    }

    #[test]
    #[should_panic(expected = "measure before placing")]
    fn greedy_requires_snapshot() {
        let mut c = Choreo::new(Machines::uniform(2, 4.0), ChoreoConfig::default());
        let _ = c.place(&app());
    }

    #[test]
    fn baselines_work_without_snapshot() {
        for placer in [PlacerKind::Random(1), PlacerKind::RoundRobin, PlacerKind::MinMachines] {
            let mut c = Choreo::new(
                Machines::uniform(2, 4.0),
                ChoreoConfig { placer, ..Default::default() },
            );
            assert!(c.place(&app()).is_ok());
        }
    }

    #[test]
    fn load_accumulates_across_admissions() {
        let mut c = Choreo::new(Machines::uniform(2, 4.0), ChoreoConfig::default());
        c.set_snapshot(snap(2));
        let a = app();
        let p1 = c.place(&a).unwrap();
        c.admit(&a, &p1);
        let used_after_one: f64 = c.load().cpu_used.iter().sum();
        assert!((used_after_one - 2.0).abs() < 1e-9);
        let p2 = c.place(&a).unwrap();
        c.admit(&a, &p2);
        let used_after_two: f64 = c.load().cpu_used.iter().sum();
        assert!((used_after_two - 4.0).abs() < 1e-9);
    }
}
