//! Figure 6: packet-train estimation error vs. burst length and burst
//! count, against 2-second netperf ground truth (§4.1).
//!
//! For each provider we measure a set of VM pairs with a netperf-style
//! bulk transfer of 2 s simulated time (the paper's netperf runs 10 s),
//! then sweep trains of {10, 20, 50} bursts × burst lengths
//! {100, 200, 500, 1000, 2000, 3000, 3800} (P = 1500 B wire, δ = 1 ms) and
//! report the mean relative error per configuration.
//!
//! Paper: EC2 stays low (≈9–15%) across configurations — 10×200 is enough;
//! Rackspace errs ~40–50% until bursts reach ≈2000 packets, then drops to
//! ≈4% (its limiter tolerates much larger line-rate bursts).

use choreo_bench::mean;
use choreo_cloudlab::{Cloud, ProviderProfile};
use choreo_measure::{estimate_from_report, MeasureBackend};
use choreo_netsim::TrainConfig;
use choreo_topology::{VmId, MILLIS, SECS};

fn main() {
    let paths_per_provider: usize =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let burst_lengths = [100u32, 200, 500, 1000, 2000, 3000, 3800];
    let burst_counts = [10u32, 20, 50];

    println!("# Fig 6: packet-train error vs burst length");
    println!("# columns: provider  bursts  burst_len  mean_err_pct");
    for profile in [ProviderProfile::ec2_2013(false), ProviderProfile::rackspace()] {
        let name = profile.name.clone();
        // Ground truth per path, then all train configs on the same path.
        // One cloud per pair keeps paths independent, like the paper's 90
        // distinct paths.
        let mut errs = vec![vec![Vec::new(); burst_lengths.len()]; burst_counts.len()];
        let mut train_seconds = Vec::new();
        for p in 0..paths_per_provider {
            let mut cloud = Cloud::new(profile.clone(), 7000 + p as u64);
            let vms = cloud.allocate(2);
            let mut pc = cloud.packet_cloud(p as u64);
            let truth = pc.netperf(&[(vms[0], vms[1])], 2 * SECS)[0];
            for (bi, &bursts) in burst_counts.iter().enumerate() {
                for (li, &burst_len) in burst_lengths.iter().enumerate() {
                    let cfg = TrainConfig { packet_bytes: 1500, burst_len, bursts, gap: MILLIS };
                    let t0 = pc.now();
                    let report = pc.packet_train(vms[0], vms[1], cfg);
                    // Wire time of the train itself (sim clock).
                    if bursts == 10 && burst_len == 200 {
                        let span =
                            report.bursts.last().map(|b| b.last_rx.saturating_sub(t0)).unwrap_or(0);
                        train_seconds.push(span as f64 / 1e9);
                    }
                    let est = estimate_from_report(&report).throughput_bps;
                    errs[bi][li].push(100.0 * (est - truth).abs() / truth);
                }
            }
        }
        for (bi, &bursts) in burst_counts.iter().enumerate() {
            for (li, &burst_len) in burst_lengths.iter().enumerate() {
                println!("{name}\t{bursts}\t{burst_len}\t{:.2}", mean(&errs[bi][li]));
            }
        }
        let e10_200 = mean(&errs[0][1]);
        let e10_2000 = mean(&errs[0][4]);
        eprintln!(
            "{name}: 10×200 err {:.1}% | 10×2000 err {:.1}% | 10×200 train wire time {:.2} s \
             (netperf ground truth uses 2 s)",
            e10_200,
            e10_2000,
            mean(&train_seconds)
        );
        let _ = VmId(0);
    }
    eprintln!("# paper: EC2 ≈9% at 10×200; Rackspace ≈40–50% until 2000, then ≈4%");
}
