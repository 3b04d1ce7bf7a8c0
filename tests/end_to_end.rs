//! Cross-crate integration: the full measure → profile → place → run
//! pipeline on emulated providers.

use choreo_repro::choreo::{runner, Choreo, ChoreoConfig, PlacerKind};
use choreo_repro::cloudlab::{Cloud, ProviderProfile};
use choreo_repro::measure::RateModel;
use choreo_repro::place::problem::Machines;
use choreo_repro::profile::{AppProfile, TrafficMatrix, WorkloadGen, WorkloadGenConfig};
use choreo_repro::topology::SECS;

fn quiet(mut p: ProviderProfile) -> ProviderProfile {
    p.background.pairs = 0;
    p.measurement_noise = 0.0;
    p.colocate_prob = 0.0;
    p
}

#[test]
fn full_pipeline_on_each_provider() {
    for profile in [
        ProviderProfile::ec2_2013(false),
        ProviderProfile::ec2_2013(true),
        ProviderProfile::rackspace(),
        ProviderProfile::ec2_2012('a'),
    ] {
        let name = profile.name.clone();
        let mut cloud = Cloud::new(profile, 99);
        cloud.allocate(8);
        let mut fc = cloud.flow_cloud(1);
        let mut orch = Choreo::new(Machines::uniform(8, 4.0), ChoreoConfig::default());
        let snap = orch.measure(&mut fc).clone();
        assert_eq!(snap.n_vms(), 8, "{name}");
        assert!(snap.path_rates().iter().all(|r| *r > 0.0), "{name}");
        let mut gen = WorkloadGen::new(
            WorkloadGenConfig { tasks_min: 4, tasks_max: 6, bytes_mu: 18.0, ..Default::default() },
            3,
        );
        let app = gen.next_app();
        let placement = orch.place(&app).expect("fits");
        let rt = runner::run_app(&mut fc, &mut orch, &app, &placement);
        assert!(rt < 600 * SECS, "{name}: runtime {rt}");
        assert!(orch.running().is_empty(), "{name}: load released");
    }
}

#[test]
fn choreo_beats_baselines_on_average_across_many_apps() {
    // Statistical version of the §6.2 claim, small scale for CI: over a
    // dozen experiments, the mean speed-up vs every baseline is positive.
    let n_vms = 8;
    let machines = Machines::uniform(n_vms, 4.0);
    let mut gen = WorkloadGen::new(
        WorkloadGenConfig { tasks_min: 4, tasks_max: 7, bytes_mu: 19.5, ..Default::default() },
        77,
    );
    let mut sums = [0.0f64; 3];
    let mut n = 0;
    for exp in 0..12u64 {
        let app = gen.next_app();
        if app.cpu.iter().sum::<f64>() > n_vms as f64 * 4.0 {
            continue;
        }
        let profile = ProviderProfile::ec2_2013(exp % 2 == 0);
        let run_with = |placer: PlacerKind| -> Option<f64> {
            let mut cloud = Cloud::new(profile.clone(), 400 + exp);
            cloud.allocate(n_vms);
            let mut fc = cloud.flow_cloud(5);
            let mut orch =
                Choreo::new(machines.clone(), ChoreoConfig { placer, ..Default::default() });
            orch.measure(&mut fc);
            let p = orch.place(&app).ok()?;
            Some(runner::run_app(&mut fc, &mut orch, &app, &p) as f64)
        };
        let Some(t_choreo) = run_with(PlacerKind::Greedy) else { continue };
        let baselines = [
            run_with(PlacerKind::Random(exp)),
            run_with(PlacerKind::RoundRobin),
            run_with(PlacerKind::MinMachines),
        ];
        if baselines.iter().any(|b| b.is_none()) {
            continue;
        }
        for (i, b) in baselines.iter().enumerate() {
            let tb = b.unwrap();
            if tb > 0.0 {
                sums[i] += 100.0 * (tb - t_choreo) / tb;
            }
        }
        n += 1;
    }
    assert!(n >= 8, "enough comparable experiments: {n}");
    for (i, name) in ["random", "round-robin", "min-machines"].iter().enumerate() {
        let mean = sums[i] / n as f64;
        assert!(mean > 0.0, "mean speed-up vs {name} should be positive, got {mean:.1}%");
    }
}

#[test]
fn sequences_complete_and_release_all_load() {
    let mut cloud = Cloud::new(quiet(ProviderProfile::ec2_2013(false)), 4);
    cloud.allocate(10);
    let mut fc = cloud.flow_cloud(9);
    let mut orch = Choreo::new(Machines::uniform(10, 4.0), ChoreoConfig::default());
    let apps = WorkloadGen::new(
        WorkloadGenConfig {
            tasks_min: 3,
            tasks_max: 5,
            bytes_mu: 18.5,
            mean_interarrival: 3 * SECS,
            ..Default::default()
        },
        13,
    )
    .apps(4);
    let out = runner::run_sequence(&mut fc, &mut orch, &apps, true);
    assert_eq!(out.runtimes.len(), 4);
    assert!(orch.running().is_empty());
    let total_cpu: f64 = orch.load().cpu_used.iter().sum();
    assert!(total_cpu.abs() < 1e-9, "all CPU released: {total_cpu}");
}

#[test]
fn rackspace_single_app_placement_is_near_neutral() {
    // §2.2: "if a tenant were placing a single application on the
    // Rackspace network, there would be virtually no variation for Choreo
    // to exploit" — Choreo should neither help nor hurt much.
    let mut m = TrafficMatrix::zeros(4);
    m.set(0, 1, 200_000_000);
    m.set(2, 3, 200_000_000);
    let app = AppProfile::new("flat", vec![4.0; 4], m, 0); // 4-core tasks: no co-location
    let machines = Machines::uniform(6, 4.0);
    let run_with = |placer: PlacerKind| -> u64 {
        let mut cloud = Cloud::new(quiet(ProviderProfile::rackspace()), 8);
        cloud.allocate(6);
        let mut fc = cloud.flow_cloud(2);
        let mut orch = Choreo::new(machines.clone(), ChoreoConfig { placer, ..Default::default() });
        orch.measure(&mut fc);
        let p = orch.place(&app).expect("fits");
        runner::run_app(&mut fc, &mut orch, &app, &p)
    };
    let t_choreo = run_with(PlacerKind::Greedy) as f64;
    let t_rr = run_with(PlacerKind::RoundRobin) as f64;
    let diff = (t_choreo - t_rr).abs() / t_rr;
    assert!(diff < 0.05, "flat network: placements within 5%, got {:.1}%", 100.0 * diff);
}

#[test]
fn hose_model_is_inferred_from_measurement() {
    use choreo_repro::measure::bottleneck::survey;
    use choreo_repro::topology::MILLIS;
    let mut cloud = Cloud::new(quiet(ProviderProfile::ec2_2013(false)), 5);
    let vms = cloud.allocate(4);
    let mut pc = cloud.packet_cloud(3);
    let s = survey(&mut pc, &vms, 6, 200 * MILLIS);
    assert_eq!(s.infer_model(), RateModel::Hose);
    assert!(s.distinct_interference < 0.1);
    assert!(s.same_source_interference > 0.9);
}
