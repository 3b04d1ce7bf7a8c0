//! Figure 8: path length (traceroute hops) vs. bandwidth on the EC2-2013
//! paths (§4.2).
//!
//! Properties to reproduce: hop counts land in {1, 2, 4, 6, 8} (the
//! multi-rooted-tree signature, with 1 = same physical machine); the
//! fastest paths (≈4 Gbit/s) are 1-hop co-located pairs; a "typical"
//! ≈1 Gbit/s throughput appears at *every* length — i.e. path length
//! barely predicts throughput, which is what lets the paper conclude the
//! bottleneck is the source hose rather than the fabric.

use choreo_bench::{mean, median};
use choreo_cloudlab::{Cloud, ProviderProfile};
use choreo_measure::MeasureBackend;
use choreo_topology::SECS;
use std::collections::BTreeMap;

fn main() {
    println!("# Fig 8: path length vs bandwidth (EC2-2013)");
    println!("# columns: hops  rate_mbit");
    let mut by_hops: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    // 19 topologies, alternating fabric depth, like Fig 2(a).
    for t in 0..19u64 {
        // Raise co-location odds a touch so 1-hop paths appear in a
        // 19×90-path sample, as in the paper's data.
        let mut profile = ProviderProfile::ec2_2013(t % 2 == 1);
        profile.colocate_prob = 0.03;
        let mut cloud = Cloud::new(profile, 11_000 + t);
        let vms = cloud.allocate(10);
        let mut fc = cloud.flow_cloud(t);
        for &a in &vms {
            for &b in &vms {
                if a != b {
                    let hops = fc.traceroute(a, b);
                    let rate = fc.netperf(&[(a, b)], SECS)[0];
                    println!("{hops}\t{:.1}", rate / 1e6);
                    by_hops.entry(hops).or_default().push(rate);
                }
            }
        }
    }
    eprintln!("hops  n_paths  median_mbit  mean_mbit");
    for (hops, rates) in &by_hops {
        eprintln!(
            "{hops:>4}  {:>7}  {:>10.0}  {:>9.0}",
            rates.len(),
            median(rates) / 1e6,
            mean(rates) / 1e6
        );
    }
    let lengths: Vec<usize> = by_hops.keys().copied().collect();
    eprintln!("observed path-length set: {lengths:?} (paper: {{1, 2, 4, 6, 8}})");
    eprintln!("# paper: little correlation between length and throughput; 1-hop fastest");
}
