//! Placement micro-benchmarks: how the greedy heuristic scales with tasks
//! × machines, and what the exact ILP costs in comparison — the practical
//! reason the paper replaced the ILP with Algorithm 1 (§5: the ILP
//! "occasionally took a very long time to solve").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use choreo_lp::IlpConfig;
use choreo_measure::{NetworkSnapshot, RateModel};
use choreo_place::greedy::GreedyPlacer;
use choreo_place::ilp::IlpPlacer;
use choreo_place::problem::{Machines, NetworkLoad};
use choreo_profile::{AppPattern, WorkloadGen, WorkloadGenConfig};
use rand::{Rng, SeedableRng};

fn snapshot(n: usize, seed: u64) -> NetworkSnapshot {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rates = vec![0.0; n * n];
    for v in rates.iter_mut() {
        *v = rng.gen_range(3e8..11e8);
    }
    NetworkSnapshot::from_rates(n, rates, RateModel::Hose)
}

fn bench_greedy_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_place");
    for (tasks, vms) in [(5usize, 10usize), (10, 10), (20, 20), (40, 40)] {
        let mut gen = WorkloadGen::new(
            WorkloadGenConfig { tasks_min: tasks, tasks_max: tasks, ..Default::default() },
            7,
        );
        let app = gen.next_app_with(AppPattern::Skewed);
        let machines = Machines::uniform(vms, 4.0);
        let snap = snapshot(vms, 1);
        let load = NetworkLoad::new(vms);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{tasks}t_{vms}m")),
            &(),
            |b, _| {
                b.iter(|| {
                    GreedyPlacer.place(black_box(&app), &machines, &snap, &load).expect("feasible")
                })
            },
        );
    }
    group.finish();
}

fn bench_ilp_small(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp_place");
    group.sample_size(10);
    for tasks in [3usize, 4] {
        let mut gen = WorkloadGen::new(
            WorkloadGenConfig { tasks_min: tasks, tasks_max: tasks, ..Default::default() },
            7,
        );
        let app = gen.next_app_with(AppPattern::Pipeline);
        let machines = Machines::uniform(3, 4.0);
        let snap = snapshot(3, 2);
        let load = NetworkLoad::new(3);
        let placer = IlpPlacer {
            config: IlpConfig {
                max_nodes: 500,
                time_limit: Some(std::time::Duration::from_secs(5)),
                ..Default::default()
            },
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(format!("{tasks}t_3m")), &(), |b, _| {
            b.iter(|| placer.place(black_box(&app), &machines, &snap, &load).expect("solved"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_greedy_scaling, bench_ilp_small);
criterion_main!(benches);
