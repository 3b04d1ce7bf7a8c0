//! Figure 7: temporal stability — how well a throughput measurement from
//! τ minutes ago predicts the current value (§4.1).
//!
//! Per the paper: measure each path every 10 seconds for 30 minutes
//! (258 EC2 paths, 90 Rackspace paths), then plot the CDF of
//! `|λ_c − λ_{c−τ}|/λ_c` for τ ∈ {1, 5, 10, 30} minutes.
//!
//! Paper: on EC2 ≥95% of paths see ≤6% error even at τ = 30 min (median
//! 0.4–0.5%); Rackspace is tighter still (95% ≤ 0.62%).

use choreo_bench::{mean, median, pctile, print_cdf};
use choreo_cloudlab::{Cloud, ProviderProfile};
use choreo_measure::{MeasureBackend, StabilitySeries};
use choreo_topology::{Nanos, SECS};

fn main() {
    let taus: [(u64, &str); 4] = [(60, "1min"), (300, "5min"), (600, "10min"), (1800, "30min")];
    println!("# Fig 7: temporal stability CDFs");
    println!("# columns: provider/tau  err_pct  cdf");
    for (profile, meshes, label) in [
        (ProviderProfile::ec2_2013(false), 3usize, "ec2"),
        (ProviderProfile::rackspace(), 1usize, "rackspace"),
    ] {
        // meshes × 90 ordered pairs ≈ the paper's 258 / 90 paths.
        let mut series: Vec<StabilitySeries> = Vec::new();
        for m in 0..meshes {
            let mut cloud = Cloud::new(profile.clone(), 9000 + m as u64);
            let vms = cloud.allocate(10);
            let mut fc = cloud.flow_cloud(m as u64);
            let pairs: Vec<(choreo_topology::VmId, choreo_topology::VmId)> = vms
                .iter()
                .flat_map(|&a| vms.iter().map(move |&b| (a, b)))
                .filter(|(a, b)| a != b)
                .collect();
            let mut samples: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
            // 30 minutes of 10 s samples (+1 so the 30-min lag has data),
            // each round one probe batch over the mesh.
            let mut rates = Vec::new();
            for _round in 0..181 {
                fc.probe_paths(&pairs, &mut rates);
                for (sample, &rate) in samples.iter_mut().zip(&rates) {
                    sample.push(rate);
                }
                fc.advance(10 * SECS);
            }
            series.extend(samples.into_iter().map(|s| StabilitySeries::new(10 * SECS, s)));
        }
        for &(tau_s, tau_label) in &taus {
            let tau: Nanos = tau_s * SECS;
            // Per-path summary errors (the paper's CDF is over paths).
            let path_errors: Vec<f64> = series.iter().map(|s| 100.0 * s.mean_error(tau)).collect();
            print_cdf(&format!("{label}/{tau_label}"), &path_errors, 1.0);
            let medians: Vec<f64> = series.iter().map(|s| 100.0 * s.median_error(tau)).collect();
            eprintln!(
                "{label} τ={tau_label}: per-path mean err — median {:.2}% mean {:.2}% p95 {:.2}% \
                 | median-of-medians {:.2}%",
                median(&path_errors),
                mean(&path_errors),
                pctile(&path_errors, 0.95),
                median(&medians)
            );
        }
    }
    eprintln!("# paper: EC2 95% ≤6% @ τ≤30min, median 0.4–0.5%; Rackspace 95% ≤0.62%");
}
