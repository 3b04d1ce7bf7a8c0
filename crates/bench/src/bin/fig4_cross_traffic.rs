//! Figure 4: validation of the cross-traffic estimator (§3.2) on the two
//! ns-2 topologies of Figure 3.
//!
//! (a) *Simple topology*: 10 sender/receiver pairs share one 1 Gbit/s
//! link. Pair S1→R1 is the foreground bulk TCP connection, sampled every
//! 10 ms; the other nine follow an ON–OFF model with exponential holding
//! times (µ = 5 s). The estimate `c = c₁/c₂ − 1` (c₁ = 1 Gbit/s) should
//! track the actual number of ON background sources.
//!
//! (b) *Cloud topology*: two racks, 1 Gbit/s edges, 10 Gbit/s
//! ToR↔aggregation links shared by the cross traffic; c₁ = 10 Gbit/s.
//! The foreground connection is capped at 1 Gbit/s by its own NIC, so
//! whenever fewer than ~10 flows are active the estimate floors near
//! 10 G/1 G − 1 ≈ 9–10 — "the smallest estimated value is 10" (§3.2).

use std::sync::Arc;

use choreo_measure::cross_traffic_estimate;
use choreo_netsim::Sim;
use choreo_topology::{dumbbell, two_rack, LinkSpec, RouteTable, GBIT, MICROS, MILLIS, SECS};

struct Scenario {
    name: &'static str,
    cloud_variant: bool,
    n_pairs: usize,
    /// c₁: the bottleneck-link rate the estimator divides by.
    path_rate: f64,
    duration_s: u64,
}

fn run_scenario(sc: &Scenario) {
    let topo = Arc::new(if sc.cloud_variant {
        two_rack(
            sc.n_pairs,
            LinkSpec::new(GBIT, 5 * MICROS),
            LinkSpec::new(10.0 * GBIT, 5 * MICROS),
        )
    } else {
        dumbbell(
            sc.n_pairs,
            LinkSpec::new(5.0 * GBIT, 5 * MICROS),
            LinkSpec::new(GBIT, 20 * MICROS),
        )
    });
    let routes = Arc::new(RouteTable::new(&topo));
    let mut sim = Sim::new(topo.clone(), routes, 4242);
    let hosts = topo.hosts().to_vec();
    let (senders, receivers) = hosts.split_at(sc.n_pairs);

    // Foreground: S1 -> R1, bulk TCP, sampled every 10 ms.
    let fg = sim.start_tcp(senders[0], receivers[0], None, None, None, 0);
    let sampler = sim.add_sampler(fg, 10 * MILLIS, sc.duration_s * SECS);

    // Background: S2..Sn -> R2..Rn, ON-OFF with exp(µ = 5 s) holding times.
    for i in 1..sc.n_pairs {
        sim.start_onoff(senders[i], receivers[i], 5 * SECS, 5 * SECS, None, None, 0);
    }

    // Record the actual number of ON sources every 10 ms while running.
    let mut actual = Vec::new();
    for step in 0..(sc.duration_s * 100) {
        sim.run_until((step + 1) * 10 * MILLIS);
        actual.push(sim.active_background_flows() as f64);
    }
    let rates = sim.sampler_rates(sampler);

    println!("# {}: columns: time_s  actual_c  estimated_c", sc.name);
    let mut err_acc = Vec::new();
    for (i, (at, bps)) in rates.iter().enumerate() {
        let est = cross_traffic_estimate(*bps, sc.path_rate);
        let act = actual.get(i).copied().unwrap_or(0.0);
        println!("{}\t{:.2}\t{act:.0}\t{est:.2}", sc.name, *at as f64 / 1e9);
        // In the cloud variant the observable floor is ≈9 (NIC cap).
        let reference = if sc.cloud_variant { act.max(9.0) } else { act };
        if est.is_finite() {
            err_acc.push((est - reference).abs());
        }
    }
    // Skip the slow-start transient; use robust statistics — like the
    // paper's own Fig. 4, the estimate spikes briefly when background
    // connections churn (TCP loss bursts starve the probe for a few
    // samples), so the median and the within-±1 fraction are the
    // meaningful accuracy measures.
    let steady = &err_acc[err_acc.len().min(20)..];
    let within_one = steady.iter().filter(|e| **e <= 1.0).count() as f64 / steady.len() as f64;
    eprintln!(
        "{}: median |estimate − expected| = {:.2} connections; {:.0}% of samples within ±1",
        sc.name,
        choreo_bench::median(steady),
        100.0 * within_one
    );
}

fn main() {
    println!("# Fig 4: cross-traffic estimation vs ground truth");
    run_scenario(&Scenario {
        name: "simple",
        cloud_variant: false,
        n_pairs: 10,
        path_rate: GBIT,
        duration_s: 10,
    });
    eprintln!("# paper (a): estimate tracks actual closely for small c");
    run_scenario(&Scenario {
        name: "cloud",
        cloud_variant: true,
        n_pairs: 25,
        path_rate: 10.0 * GBIT,
        duration_s: 10,
    });
    eprintln!("# paper (b): smallest estimated value is 10");
}
