//! Packet-train measurement against netperf ground truth (§3.1/§4.1), and
//! the §4.3 bottleneck survey, on the packet-level emulated clouds.
//!
//! Prints a per-path table of netperf vs. train estimates on EC2-2013 and
//! Rackspace (with both the provider-calibrated train and the *wrong*
//! train, showing why calibration matters — Fig. 6), then runs the
//! interference survey that infers hose-model rate limiting.
//!
//! ```sh
//! cargo run --release --example measure_cloud
//! ```

use choreo_repro::cloudlab::{Cloud, ProviderProfile};
use choreo_repro::measure::bottleneck::survey;
use choreo_repro::measure::{estimate_from_report, MeasureBackend};
use choreo_repro::netsim::TrainConfig;
use choreo_repro::topology::{VmId, MILLIS, SECS};

fn main() {
    for profile in [ProviderProfile::ec2_2013(false), ProviderProfile::rackspace()] {
        let name = profile.name.clone();
        let calibrated = profile.train_config;
        let mut cloud = Cloud::new(profile, 77);
        let vms = cloud.allocate(4);
        let mut pc = cloud.packet_cloud(1);
        println!("\n=== {name} ===");
        println!(
            "{:<10} {:>12} {:>14} {:>9} {:>14} {:>9}",
            "path", "netperf", "train(200)", "err", "calibrated", "err"
        );
        let short = TrainConfig::default(); // 10 × 200 (EC2 calibration)
        for i in 0..3usize {
            let (a, b) = (vms[i], vms[i + 1]);
            // Probe the fresh path first (field conditions: the limiter's
            // credit is banked), then take the netperf ground truth.
            let est_short = estimate_from_report(&pc.packet_train(a, b, short)).throughput_bps;
            let truth = pc.netperf(&[(a, b)], 2 * SECS)[0];
            let est_cal = estimate_from_report(&pc.packet_train(a, b, calibrated)).throughput_bps;
            let err = |e: f64| 100.0 * (e - truth).abs() / truth;
            println!(
                "vm{}->vm{}   {:>9.0} Mb {:>11.0} Mb {:>8.1}% {:>11.0} Mb {:>8.1}%",
                a.0,
                b.0,
                truth / 1e6,
                est_short / 1e6,
                err(est_short),
                est_cal / 1e6,
                err(est_cal)
            );
        }

        // §4.3: interference survey → rate-limit model inference.
        let s = survey(&mut pc, &vms, 8, 300 * MILLIS);
        println!(
            "interference: distinct-endpoints {:.0}%, same-source {:.0}%, hose conservation {:.0}%",
            100.0 * s.distinct_interference,
            100.0 * s.same_source_interference,
            100.0 * s.hose_conservation
        );
        println!("inferred rate-limit model: {:?}", s.infer_model());
        let _ = VmId(0); // (public type re-export smoke)
    }
}
