//! Figure 9 + §5: greedy vs. optimal placement.
//!
//! Two parts:
//!
//! 1. The Fig. 9 pathology: a 4-task instance where the greedy algorithm
//!    grabs the single fastest path for the heaviest transfer and thereby
//!    strands the remaining transfers on slow paths, while the optimum
//!    takes the second-fastest pair and finishes sooner overall.
//! 2. The §5 experiment: across many small applications, compare greedy
//!    completion time to the ILP optimum. The paper reports the greedy
//!    median only 13% above optimal over 111 applications.

use choreo_bench::{mean, median, pctile};
use choreo_lp::IlpConfig;
use choreo_measure::{NetworkSnapshot, RateModel};
use choreo_place::greedy::GreedyPlacer;
use choreo_place::ilp::IlpPlacer;
use choreo_place::predict::predict_completion_secs;
use choreo_place::problem::{Machines, NetworkLoad};
use choreo_profile::{AppPattern, AppProfile, WorkloadGen, WorkloadGenConfig};
use rand::{Rng, SeedableRng};

fn fig9_instance() -> (AppProfile, NetworkSnapshot, Machines) {
    let mut m = choreo_profile::TrafficMatrix::zeros(4);
    m.set(0, 1, 100_000_000); // J1 -> J2, 100 MB
    m.set(0, 2, 50_000_000); // J1 -> J3
    m.set(1, 3, 50_000_000); // J2 -> J4
    let app = AppProfile::new("fig9", vec![1.0; 4], m, 0);
    let mut rates = vec![4e8; 16]; // default 400 Mbit/s directed paths
    let set = |rates: &mut Vec<f64>, a: usize, b: usize, r: f64| rates[a * 4 + b] = r;
    set(&mut rates, 0, 1, 10e8); // the greedy trap: one rate-10 path
    set(&mut rates, 2, 3, 9e8);
    set(&mut rates, 2, 0, 8e8);
    set(&mut rates, 2, 1, 8e8);
    set(&mut rates, 3, 0, 8e8);
    set(&mut rates, 3, 1, 8e8);
    let snap = NetworkSnapshot::from_rates(4, rates, RateModel::Pipe);
    (app, snap, Machines::uniform(4, 1.0))
}

fn main() {
    let apps_to_test: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(111);

    // ---- Part 1: the Fig. 9 instance ---------------------------------
    let (app, snap, machines) = fig9_instance();
    let load = NetworkLoad::new(4);
    let g = GreedyPlacer.place(&app, &machines, &snap, &load).expect("feasible");
    let g_secs = predict_completion_secs(&app, &g, &snap);
    let ilp = IlpPlacer::default().place(&app, &machines, &snap, &load).expect("solved");
    println!("# Fig 9 instance:");
    println!("greedy placement  {:?}  completion {g_secs:.2} s", g.assignment);
    println!(
        "optimal placement {:?}  completion {:.2} s (proven: {})",
        ilp.placement.assignment, ilp.objective_secs, ilp.proven_optimal
    );
    println!(
        "greedy is {:.0}% slower on this adversarial instance\n",
        100.0 * (g_secs - ilp.objective_secs) / ilp.objective_secs
    );

    // ---- Part 2: greedy vs optimal over many applications (§5) -------
    // 4-task applications (the Fig. 9 size): large enough for greedy to
    // err, small enough that the in-repo branch-and-bound proves optima
    // within 3 000 nodes.
    let mut rng = rand::rngs::StdRng::seed_from_u64(111);
    let mut gen = WorkloadGen::new(
        WorkloadGenConfig { tasks_min: 4, tasks_max: 4, ..Default::default() },
        111,
    );
    let machines = Machines::uniform(4, 4.0);
    let load = NetworkLoad::new(4);
    let ilp_placer = IlpPlacer {
        config: IlpConfig { max_nodes: 3000, ..Default::default() },
        ..Default::default()
    };
    let mut gaps = Vec::new();
    let mut proven = 0usize;
    let patterns = AppPattern::ALL;
    println!("# columns: app  greedy_secs  optimal_secs  gap_pct");
    while gaps.len() < apps_to_test {
        let pattern = patterns[rng.gen_range(0..patterns.len())];
        let app = gen.next_app_with(pattern);
        if app.cpu.iter().sum::<f64>() > 16.0 {
            continue;
        }
        // EC2-like snapshot: mostly ~950 Mbit/s with a slow tail.
        let n = 4;
        let mut rates = vec![0.0; n * n];
        for v in rates.iter_mut() {
            *v = if rng.gen_bool(0.2) { rng.gen_range(3e8..9e8) } else { rng.gen_range(9e8..11e8) };
        }
        let snap = NetworkSnapshot::from_rates(n, rates, RateModel::Hose);
        let Ok(g) = GreedyPlacer.place(&app, &machines, &snap, &load) else { continue };
        let Ok(opt) = ilp_placer.place(&app, &machines, &snap, &load) else { continue };
        if !opt.proven_optimal {
            continue; // only count proven optima, like the paper's CPLEX runs
        }
        proven += 1;
        let g_secs = predict_completion_secs(&app, &g, &snap);
        let gap = if opt.objective_secs > 1e-9 {
            100.0 * (g_secs - opt.objective_secs) / opt.objective_secs
        } else if g_secs <= 1e-9 {
            0.0
        } else {
            continue; // optimum fully co-locates but greedy doesn't: infinite ratio
        };
        println!("{}\t{:.3}\t{:.3}\t{:.1}", app.name, g_secs, opt.objective_secs, gap);
        gaps.push(gap);
    }
    println!();
    println!(
        "greedy-vs-optimal over {} apps ({} proven): median gap {:.1}%, mean {:.1}%, p90 {:.1}%",
        gaps.len(),
        proven,
        median(&gaps),
        mean(&gaps),
        pctile(&gaps, 0.90)
    );
    println!("# paper §5: median completion time with greedy only 13% above optimal (111 apps)");
}
