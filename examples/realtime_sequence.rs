//! Applications arriving in real time (§2.4 / §6.3), with periodic
//! re-evaluation and migration.
//!
//! Applications arrive one by one; before each placement Choreo
//! re-measures the network — the already-running applications show up as
//! cross traffic, which is exactly the variation Choreo exploits on
//! otherwise-flat networks like Rackspace. We compare the sum of
//! per-application runtimes for Choreo vs. the three §6 baselines, then
//! demonstrate a §2.4 re-evaluation deciding whether a running app should
//! migrate off a degraded path.
//!
//! ```sh
//! cargo run --release --example realtime_sequence
//! ```

use choreo_repro::choreo::migrate::{reevaluate, remaining_app, Reevaluation};
use choreo_repro::choreo::{runner, Choreo, ChoreoConfig, PlacerKind};
use choreo_repro::cloudlab::{Cloud, ProviderProfile};
use choreo_repro::measure::{NetworkSnapshot, RateModel};
use choreo_repro::place::problem::{Machines, NetworkLoad, Placement};
use choreo_repro::profile::{TrafficMatrix, WorkloadGen, WorkloadGenConfig};
use choreo_repro::topology::SECS;

fn main() {
    let gen_cfg = WorkloadGenConfig {
        tasks_min: 4,
        tasks_max: 7,
        bytes_mu: 20.5,              // ≈0.8 GB median transfers: tens of seconds each
        mean_interarrival: 4 * SECS, // arrivals overlap heavily
        ..Default::default()
    };
    let apps = WorkloadGen::new(gen_cfg, 17).apps(4);
    println!("sequence of {} applications:", apps.len());
    for a in &apps {
        println!(
            "  t={:6.1}s  {}  ({} tasks, {:.1} GB)",
            a.start_time as f64 / 1e9,
            a.name,
            a.n_tasks(),
            a.total_bytes() as f64 / 1e9
        );
    }

    let machines = Machines::uniform(10, 4.0);
    let schemes: Vec<(&str, PlacerKind)> = vec![
        ("choreo", PlacerKind::Greedy),
        ("random", PlacerKind::Random(5)),
        ("round-robin", PlacerKind::RoundRobin),
        ("min-machines", PlacerKind::MinMachines),
    ];
    println!("\nsum of per-application runtimes (§6.3 metric):");
    let mut results = Vec::new();
    for (name, placer) in schemes {
        let mut cloud = Cloud::new(ProviderProfile::ec2_2013(false), 31);
        cloud.allocate(10);
        let mut fc = cloud.flow_cloud(2);
        let mut orch = Choreo::new(machines.clone(), ChoreoConfig { placer, ..Default::default() });
        let needs_measure = matches!(orch.config().placer, PlacerKind::Greedy);
        let out = runner::run_sequence(&mut fc, &mut orch, &apps, needs_measure);
        println!("  {name:12} {:8.1} s", out.total() as f64 / 1e9);
        results.push((name, out.total()));
    }
    let choreo_total = results[0].1 as f64;
    for (name, total) in &results[1..] {
        let speedup = 100.0 * (*total as f64 - choreo_total) / *total as f64;
        println!("  vs {name:12}: {speedup:+.1}%");
    }
    println!(
        "  (a single 4-app draw is noisy — the fig10b_sequences bench runs 40 draws\n   \
         and lands at the paper's 22–43% mean range)"
    );

    // ---- §2.4 re-evaluation demo -------------------------------------
    println!("\nre-evaluation (§2.4): a 10 GB transfer is mid-flight when its");
    println!("path degrades from 950 to 80 Mbit/s; Choreo re-measures and decides:");
    let mut m = TrafficMatrix::zeros(2);
    m.set(0, 1, 10_000_000_000);
    let app = choreo_repro::profile::AppProfile::new("victim", vec![1.0, 1.0], m, 0);
    let current = Placement { assignment: vec![0, 1] };
    // 40% already delivered when the degradation hits.
    let rem = remaining_app(&app, &|i, j| if (i, j) == (0, 1) { 4_000_000_000 } else { 0 });
    // Fresh snapshot: VM 0's hose collapsed; VMs 2,3 are healthy.
    let mut rates = vec![950e6; 16];
    rates[..4].fill(80e6); // row 0
    let snap = NetworkSnapshot::from_rates(4, rates, RateModel::Hose);
    // 1-core machines: the tasks cannot simply co-locate, so the decision
    // is genuinely about picking a faster path.
    let machines4 = Machines::uniform(4, 1.0);
    match reevaluate(&rem, &current, &machines4, &snap, &NetworkLoad::new(4), 5.0, 0.10) {
        Reevaluation::Migrate { placement, stay_secs, move_secs } => {
            println!("  MIGRATE to {:?}", placement.assignment);
            println!("  predicted completion if staying:   {stay_secs:7.1} s");
            println!("  predicted completion after moving: {move_secs:7.1} s (incl. 5 s penalty)");
        }
        Reevaluation::Stay { predicted_secs } => {
            println!("  STAY (predicted {predicted_secs:.1} s)");
        }
    }
}
