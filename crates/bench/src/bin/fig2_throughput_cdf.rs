//! Figure 2: CDFs of TCP throughput measured in May 2013 — (a) 1710 EC2
//! paths from 19 ten-instance topologies, (b) 360 Rackspace paths from 4
//! topologies.
//!
//! Headline properties to reproduce (§2.2): EC2 spans ~300–4400 Mbit/s
//! with ~80% of paths between 900 and 1100 Mbit/s (knees near 950 and
//! 1100, mean ≈957, median ≈929, a handful of ≈4 Gbit/s co-located
//! pairs); Rackspace sits almost exactly at 300 Mbit/s everywhere.

use choreo_bench::{mean, median, print_cdf};
use choreo_cloudlab::{Cloud, ProviderProfile};
use choreo_measure::MeasureBackend;
use choreo_topology::SECS;

fn measure_mesh(profile_for: impl Fn(u64) -> ProviderProfile, topologies: u64, label: &str) {
    let mut rates = Vec::new();
    let mut colocated = 0usize;
    for t in 0..topologies {
        let mut cloud = Cloud::new(profile_for(t), 500 + t);
        let vms = cloud.allocate(10);
        let mut fc = cloud.flow_cloud(t);
        for &a in &vms {
            for &b in &vms {
                if a != b {
                    let r = fc.netperf(&[(a, b)], SECS)[0];
                    if r > 2.5e9 {
                        colocated += 1;
                    }
                    rates.push(r);
                }
            }
        }
    }
    print_cdf(label, &rates, 1e-6);
    let in_band = rates.iter().filter(|r| (900e6..=1100e6).contains(*r)).count();
    eprintln!(
        "{label}: {} paths | mean {:.0} median {:.0} Mbit/s | {:.0}% in 900–1100 | {} paths ≳2.5 Gbit/s (co-located)",
        rates.len(),
        mean(&rates) / 1e6,
        median(&rates) / 1e6,
        100.0 * in_band as f64 / rates.len() as f64,
        colocated
    );
}

fn main() {
    println!("# Fig 2: May-2013 throughput CDFs");
    println!("# columns: provider  rate_mbit  cdf");
    // (a) EC2: 19 topologies, mixing shallow and deep fabrics (Fig 8's
    // 6- and 8-hop paths), 90 ordered pairs each = 1710 paths.
    measure_mesh(|t| ProviderProfile::ec2_2013(t % 2 == 1), 19, "ec2");
    eprintln!("# paper (a): ~80% in 900–1100, mean 957, median 929, 18 paths ≈4 Gbit/s");
    // (b) Rackspace: 4 topologies = 360 paths.
    measure_mesh(|_| ProviderProfile::rackspace(), 4, "rackspace");
    eprintln!("# paper (b): virtually every path ≈300 Mbit/s");
}
