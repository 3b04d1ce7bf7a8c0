//! Integration tests pitting the placers against each other.

use choreo_repro::lp::IlpConfig;
use choreo_repro::measure::{NetworkSnapshot, RateModel};
use choreo_repro::place::baseline::{MinMachinesPlacer, RandomPlacer, RoundRobinPlacer};
use choreo_repro::place::greedy::GreedyPlacer;
use choreo_repro::place::ilp::IlpPlacer;
use choreo_repro::place::predict::predict_completion_secs;
use choreo_repro::place::problem::{validate, Machines, NetworkLoad, PlaceError, Placement};
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
    let ilp = IlpPlacer { config: IlpConfig { max_nodes: 2000, ..Default::default() } };
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
    // The shipped linearization against the exhaustive formulation: every
    // CPU-feasible placement of 3 tasks on 3 one-core VMs, priced by the
    // predictor. (The crate's own tests compare it with the Appendix's.)
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
        let ilp = IlpPlacer::default().place(&app, &machines, &snap, &load).expect("ilp");
        let mut best = f64::INFINITY;
        let mut feasible = 0;
        for code in 0..27u32 {
            let placement = Placement { assignment: vec![code / 9, code / 3 % 3, code % 3] };
            if validate(&app, &machines, &placement).is_ok() {
                feasible += 1;
                best = best.min(predict_completion_secs(&app, &placement, &snap));
            }
        }
        assert_eq!(feasible, 6, "seed {seed}: one task per VM");
        assert!(ilp.proven_optimal, "seed {seed}");
        assert!(
            (ilp.objective_secs - best).abs() < 1e-6,
            "seed {seed}: {} vs {best}",
            ilp.objective_secs
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

/// Fold one placer answer into an FNV-1a digest: the assignment, or the
/// error and the task it names.
fn fold_outcome(d: u64, r: Result<Placement, PlaceError>) -> u64 {
    let words: Vec<u64> = match r {
        Ok(p) => std::iter::once(0).chain(p.assignment.iter().map(|&v| v as u64)).collect(),
        Err(PlaceError::InsufficientCpu) => vec![1],
        Err(PlaceError::NoFeasibleMachine { task }) => vec![2, task as u64],
    };
    words.iter().fold(d, |d, &w| (d ^ w).wrapping_mul(0x0000_0100_0000_01B3))
}

#[test]
fn placers_are_pinned_on_nudged_cpu_ledgers() {
    // Every baseline and Algorithm 1 (pipe and hose) over 80 seeded apps
    // on 6 four-core machines whose ledgers sit on half-core steps nudged
    // by nothing, by half the fit tolerance either way, by twice it, or by
    // half a core: the fit test's tolerance decides many of these answers.
    const NUDGES: [f64; 5] = [0.0, 5e-10, -5e-10, 2e-9, 0.5];
    let n_vms = 6;
    let machines = Machines::uniform(n_vms, 4.0);
    let mut gen = WorkloadGen::new(
        WorkloadGenConfig { tasks_min: 2, tasks_max: 8, ..Default::default() },
        23,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let mut random = RandomPlacer::new(9);
    // One round-robin placer: its cursor carries across apps.
    let mut rr = RoundRobinPlacer::new();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut placed = 0;
    for k in 0..80u64 {
        let app = gen.next_app();
        let mut load = NetworkLoad::new(n_vms);
        for u in &mut load.cpu_used {
            *u = 0.5 * rng.gen_range(0..=6) as f64 + NUDGES[rng.gen_range(0..NUDGES.len())];
        }
        let pipe = random_snapshot(n_vms, 500 + k, RateModel::Pipe);
        let hose = random_snapshot(n_vms, 500 + k, RateModel::Hose);
        for r in [
            random.place(&app, &machines, &load),
            rr.place(&app, &machines, &load),
            MinMachinesPlacer.place(&app, &machines, &load),
            GreedyPlacer.place(&app, &machines, &pipe, &load),
            GreedyPlacer.place(&app, &machines, &hose, &load),
        ] {
            placed += r.is_ok() as u32;
            digest = fold_outcome(digest, r);
        }
    }
    assert!((100..300).contains(&placed), "{placed} of 400 attempts placed");
    assert_eq!(digest, 0xa5fd_4bcb_d03b_ea75, "placer digest");
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
