//! Figure 1: CDF of TCP throughput on EC2 in May 2012, one line per
//! availability zone of the US-East datacenter.
//!
//! The 2012 network showed dramatic spatial variability — path throughputs
//! from ~100 Mbit/s to almost 1 Gbit/s, with different distributions per
//! AZ. Each zone is emulated as a separate provider profile (wide hose
//! mixtures + an oversubscribed fabric with heavy neighbours); we allocate
//! 10-VM meshes and run a netperf-style measurement on every ordered pair.

use choreo_bench::{mean, median, print_cdf};
use choreo_cloudlab::{Cloud, ProviderProfile};
use choreo_measure::MeasureBackend;
use choreo_topology::SECS;

fn main() {
    println!("# Fig 1: EC2 May-2012 per-AZ throughput CDFs");
    println!("# columns: zone  rate_mbit  cdf");
    for az in ['a', 'b', 'c', 'd'] {
        let mut rates = Vec::new();
        // A few meshes per zone for a smooth CDF.
        for rep in 0..3u64 {
            let mut cloud = Cloud::new(ProviderProfile::ec2_2012(az), 2012 + rep);
            let vms = cloud.allocate(10);
            let mut fc = cloud.flow_cloud(rep);
            for &a in &vms {
                for &b in &vms {
                    if a != b {
                        rates.push(fc.netperf(&[(a, b)], SECS)[0]);
                    }
                }
            }
        }
        let label = format!("us-east-1{az}");
        print_cdf(&label, &rates, 1e-6);
        eprintln!(
            "{label}: {} paths, min {:.0} / median {:.0} / mean {:.0} / max {:.0} Mbit/s",
            rates.len(),
            rates.iter().cloned().fold(f64::MAX, f64::min) / 1e6,
            median(&rates) / 1e6,
            mean(&rates) / 1e6,
            choreo_bench::max(&rates) / 1e6
        );
    }
    eprintln!("# paper: throughputs vary from ~100 Mbit/s to almost 1 Gbit/s, AZ-dependent");
}
