//! Integration tests pitting the placers against each other.

use choreo_repro::lp::IlpConfig;
use choreo_repro::measure::{NetworkSnapshot, RateModel};
use choreo_repro::place::baseline::{MinMachinesPlacer, RandomPlacer, RoundRobinPlacer};
use choreo_repro::place::greedy::GreedyPlacer;
use choreo_repro::place::ilp::{Formulation, IlpPlacer};
use choreo_repro::place::predict::predict_completion_secs;
use choreo_repro::place::problem::{validate, Machines, NetworkLoad};
use choreo_repro::profile::{AppProfile, TrafficMatrix, WorkloadGen, WorkloadGenConfig};
use rand::{Rng, SeedableRng};

fn random_snapshot(n: usize, seed: u64, model: RateModel) -> NetworkSnapshot {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rates = vec![0.0; n * n];
    for v in rates.iter_mut() {
        *v = if rng.gen_bool(0.2) { rng.gen_range(2e8..8e8) } else { rng.gen_range(9e8..11e8) };
    }
    NetworkSnapshot::from_rates(n, rates, model)
}

#[test]
fn ilp_never_loses_to_greedy() {
    // The exact solver's objective must be <= greedy's on every instance
    // it proves optimal.
    let mut gen = WorkloadGen::new(
        WorkloadGenConfig { tasks_min: 3, tasks_max: 4, ..Default::default() },
        55,
    );
    let machines = Machines::uniform(3, 4.0);
    let load = NetworkLoad::new(3);
    let ilp = IlpPlacer {
        config: IlpConfig { max_nodes: 2000, ..Default::default() },
        ..Default::default()
    };
    let mut compared = 0;
    for k in 0..10u64 {
        let app = gen.next_app();
        if app.cpu.iter().sum::<f64>() > 12.0 {
            continue;
        }
        let snap = random_snapshot(3, 100 + k, RateModel::Hose);
        let Ok(g) = GreedyPlacer.place(&app, &machines, &snap, &load) else { continue };
        let Ok(opt) = ilp.place(&app, &machines, &snap, &load) else { continue };
        if !opt.proven_optimal {
            continue;
        }
        let g_secs = predict_completion_secs(&app, &g, &snap);
        assert!(
            opt.objective_secs <= g_secs + 1e-6,
            "app {k}: ILP {} worse than greedy {g_secs}",
            opt.objective_secs
        );
        assert!(validate(&app, &machines, &opt.placement).is_ok());
        compared += 1;
    }
    // The search is bounded by nodes alone, so which instances it proves
    // optimal is a function of the input, not of the machine.
    assert_eq!(compared, 10, "instances compared");
}

#[test]
fn formulations_agree_on_small_instances() {
    let machines = Machines::uniform(3, 1.0);
    let load = NetworkLoad::new(3);
    for seed in 0..5u64 {
        let mut m = TrafficMatrix::zeros(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        m.set(0, 1, rng.gen_range(1..100) * 1_000_000);
        m.set(1, 2, rng.gen_range(1..100) * 1_000_000);
        m.set(0, 2, rng.gen_range(1..100) * 1_000_000);
        let app = AppProfile::new("x", vec![1.0; 3], m, 0);
        let snap = random_snapshot(3, 200 + seed, RateModel::Pipe);
        let sparse = IlpPlacer { formulation: Formulation::Sparse, ..Default::default() }
            .place(&app, &machines, &snap, &load)
            .expect("sparse");
        let paper = IlpPlacer { formulation: Formulation::Paper, ..Default::default() }
            .place(&app, &machines, &snap, &load)
            .expect("paper");
        assert!(sparse.proven_optimal && paper.proven_optimal, "seed {seed}");
        assert!(
            (sparse.objective_secs - paper.objective_secs).abs() < 1e-6,
            "seed {seed}: {} vs {}",
            sparse.objective_secs,
            paper.objective_secs
        );
    }
}

#[test]
fn greedy_beats_baselines_in_prediction_on_skewed_traffic() {
    // Deterministic, prediction-level version of §6.2: on skewed traffic
    // matrices over heterogeneous networks, greedy's predicted completion
    // beats every baseline's on average.
    let n_vms = 6;
    let machines = Machines::uniform(n_vms, 4.0);
    let load = NetworkLoad::new(n_vms);
    let mut gen = WorkloadGen::new(
        WorkloadGenConfig { tasks_min: 5, tasks_max: 8, ..Default::default() },
        91,
    );
    let mut greedy_sum = 0.0;
    let mut base_sums = [0.0f64; 3];
    let mut n = 0;
    for k in 0..15u64 {
        let app = gen.next_app_with(choreo_repro::profile::AppPattern::Skewed);
        if app.cpu.iter().sum::<f64>() > n_vms as f64 * 4.0 {
            continue;
        }
        let snap = random_snapshot(n_vms, 300 + k, RateModel::Hose);
        let Ok(g) = GreedyPlacer.place(&app, &machines, &snap, &load) else { continue };
        let mut rnd = RandomPlacer::new(k);
        let mut rr = RoundRobinPlacer::new();
        let baselines = [
            rnd.place(&app, &machines, &load),
            rr.place(&app, &machines, &load),
            MinMachinesPlacer.place(&app, &machines, &load),
        ];
        if baselines.iter().any(|b| b.is_err()) {
            continue;
        }
        greedy_sum += predict_completion_secs(&app, &g, &snap);
        for (i, b) in baselines.iter().enumerate() {
            base_sums[i] += predict_completion_secs(&app, b.as_ref().unwrap(), &snap);
        }
        n += 1;
    }
    assert!(n >= 10);
    for (i, name) in ["random", "round-robin", "min-machines"].iter().enumerate() {
        assert!(
            greedy_sum < base_sums[i],
            "greedy total {greedy_sum:.1}s should beat {name} {:.1}s",
            base_sums[i]
        );
    }
}

#[test]
fn predictor_agrees_with_ilp_objective() {
    // The closed-form predictor and the ILP objective are the same model;
    // on proven-optimal placements they must agree numerically.
    let machines = Machines::uniform(3, 1.0);
    let load = NetworkLoad::new(3);
    for seed in 0..5u64 {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 50_000_000 + seed * 10_000_000);
        m.set(2, 0, 30_000_000);
        let app = AppProfile::new("agree", vec![1.0; 3], m, 0);
        for model in [RateModel::Pipe, RateModel::Hose] {
            let snap = random_snapshot(3, 400 + seed, model);
            let out = IlpPlacer::default().place(&app, &machines, &snap, &load).expect("solved");
            let predicted = predict_completion_secs(&app, &out.placement, &snap);
            assert!(
                (predicted - out.objective_secs).abs() < 1e-6,
                "seed {seed} {model:?}: predictor {predicted} vs ILP {}",
                out.objective_secs
            );
        }
    }
}
