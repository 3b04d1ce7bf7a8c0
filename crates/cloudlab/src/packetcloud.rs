//! Packet-level cloud backend: trains, netperf ground truth, interference.

use choreo_measure::{estimate_from_report, MeasureBackend};
use choreo_netsim::{FlowId, ShaperId, Sim, TrainConfig, TrainReport};
use choreo_topology::{Nanos, RouteTable, TracerouteStyle, VmId, VmMap, MILLIS, SECS};

use crate::cloud::Cloud;

/// A tenant's view of the cloud at packet granularity.
///
/// Backs the micro experiments: packet-train accuracy (Fig. 6), the
/// cross-traffic estimator validation (Fig. 4 runs on plain `netsim`
/// topologies, this backend covers the cloud variants), and the §4.3
/// bottleneck/interference experiments.
pub struct PacketCloud {
    sim: Sim,
    vms: VmMap,
    shapers: Vec<ShaperId>,
    routes: std::sync::Arc<RouteTable>,
    traceroute_style: TracerouteStyle,
    default_train: TrainConfig,
}

impl PacketCloud {
    /// Build from a [`Cloud`] (called via [`Cloud::packet_cloud`]).
    pub(crate) fn build(cloud: &mut Cloud, seed: u64) -> PacketCloud {
        let mut sim = Sim::new(cloud.topology().clone(), cloud.routes().clone(), seed);
        let shapers: Vec<ShaperId> = (0..cloud.n_vms())
            .map(|i| {
                sim.add_shaper(
                    cloud.hose_of(VmId(i as u32)),
                    cloud.profile.bucket_depth_bytes,
                    cloud.profile.idle_refill_mult,
                )
            })
            .collect();
        let bg = cloud.background_pairs(cloud.profile.background.pairs);
        for (a, b, hose_bps) in bg {
            let sh = sim.add_shaper(
                hose_bps,
                cloud.profile.bucket_depth_bytes,
                cloud.profile.idle_refill_mult,
            );
            sim.start_onoff(
                a,
                b,
                cloud.profile.background.mean_on,
                cloud.profile.background.mean_off,
                Some(sh),
                None,
                0,
            );
        }
        let mut pc = PacketCloud {
            sim,
            vms: cloud.vm_map(),
            shapers,
            routes: cloud.routes().clone(),
            traceroute_style: cloud.profile.traceroute,
            default_train: cloud.profile.train_config,
        };
        pc.sim.run_for(2 * SECS); // let background sources mix
        pc
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.sim.now()
    }

    /// The underlying packet simulator (advanced scenarios).
    pub fn sim_mut(&mut self) -> &mut Sim {
        &mut self.sim
    }

    /// The VM→host map.
    pub fn vm_map(&self) -> &VmMap {
        &self.vms
    }

    /// Send one UDP packet train from `a` to `b` and collect the
    /// receiver-side report (paper §3.1). Advances simulated time by the
    /// train duration plus a small drain margin.
    pub fn packet_train(&mut self, a: VmId, b: VmId, config: TrainConfig) -> TrainReport {
        assert!(a != b, "train needs two distinct VMs");
        let src = self.vms.host(a);
        let dst = self.vms.host(b);
        let flow = self.sim.start_train(
            src,
            dst,
            config,
            Some(self.shapers[a.0 as usize]),
            self.sim.now(),
        );
        // Upper-bound the train's wire time by its size at a conservative
        // 50 Mbit/s plus gaps, then a drain margin.
        let bytes = config.burst_len as u64 * config.bursts as u64 * config.packet_bytes as u64;
        let worst = (bytes as f64 * 8.0 / 50e6 * 1e9) as Nanos
            + config.bursts as u64 * config.gap
            + 200 * MILLIS;
        self.sim.run_for(worst);
        self.sim.train_report(flow)
    }
}

impl MeasureBackend for PacketCloud {
    fn n_vms(&self) -> usize {
        self.vms.len()
    }

    fn probe_paths(&mut self, pairs: &[(VmId, VmId)], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(pairs.len());
        for &(a, b) in pairs {
            let rate = if self.vms.host(a) == self.vms.host(b) {
                // Trains over the loopback measure the loopback; use a
                // short bulk transfer instead (sub-second either way).
                self.netperf(&[(a, b)], 200 * MILLIS)[0]
            } else {
                let report = self.packet_train(a, b, self.default_train);
                estimate_from_report(&report).throughput_bps
            };
            out.push(rate);
        }
    }

    fn netperf(&mut self, pairs: &[(VmId, VmId)], duration: Nanos) -> Vec<f64> {
        let flows: Vec<FlowId> = pairs
            .iter()
            .map(|&(a, b)| {
                assert!(a != b, "netperf needs two distinct VMs");
                let src = self.vms.host(a);
                let dst = self.vms.host(b);
                self.sim.start_tcp(
                    src,
                    dst,
                    None,
                    Some(self.shapers[a.0 as usize]),
                    Some(self.shapers[b.0 as usize]),
                    self.sim.now(),
                )
            })
            .collect();
        let before: Vec<u64> =
            flows.iter().map(|&f| self.sim.tcp_stats(f).delivered_bytes).collect();
        self.sim.run_for(duration);
        let rates = flows
            .iter()
            .zip(before)
            .map(|(&f, b0)| {
                let d = self.sim.tcp_stats(f).delivered_bytes - b0;
                d as f64 * 8.0 / (duration as f64 / 1e9)
            })
            .collect();
        for f in flows {
            self.sim.kill_flow(f);
        }
        rates
    }

    fn traceroute(&mut self, a: VmId, b: VmId) -> usize {
        self.vms.traceroute(&self.routes, self.traceroute_style, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProviderProfile;
    use choreo_measure::estimate_from_report;
    use choreo_topology::MBIT;

    fn quiet(mut p: ProviderProfile) -> ProviderProfile {
        p.background.pairs = 0;
        p.colocate_prob = 0.0;
        p
    }

    #[test]
    fn ec2_train_estimates_near_hose_rate() {
        let mut cloud = Cloud::new(quiet(ProviderProfile::ec2_2013(false)), 21);
        let vms = cloud.allocate(2);
        let hose = cloud.hose_of(vms[0]);
        let mut pc = cloud.packet_cloud(1);
        let rep = pc.packet_train(vms[0], vms[1], TrainConfig::default());
        assert_eq!(rep.received(), 2000, "quiet network: no loss");
        let est = estimate_from_report(&rep).throughput_bps;
        // Shallow bucket: within ~15% of the hose (slightly high).
        let err = (est - hose) / hose;
        assert!(err > -0.05 && err < 0.20, "est {est} vs hose {hose} (err {err})");
    }

    #[test]
    fn rackspace_short_bursts_overestimate_long_bursts_fix_it() {
        let mut cloud = Cloud::new(quiet(ProviderProfile::rackspace()), 22);
        let vms = cloud.allocate(2);
        let mut pc = cloud.packet_cloud(1);
        // Measure the *fresh* path with the short train first — the
        // paper's procedure (and the Fig. 6 sweep) probes paths in their
        // natural idle state, where the limiter's credit is banked.
        let short = pc.packet_train(vms[0], vms[1], TrainConfig::default());
        let short_est = estimate_from_report(&short).throughput_bps;
        let netperf = pc.netperf(&[(vms[0], vms[1])], 2 * SECS)[0];
        assert!((netperf - 300.0 * MBIT).abs() / (300.0 * MBIT) < 0.1, "netperf {netperf}");
        let short_err = (short_est - netperf).abs() / netperf;
        let long = pc.packet_train(vms[0], vms[1], TrainConfig::rackspace());
        let long_est = estimate_from_report(&long).throughput_bps;
        let long_err = (long_est - netperf).abs() / netperf;
        // Fig. 6b: error improves dramatically once bursts reach 2000.
        assert!(short_err > 0.25, "short-burst error should be large: {short_err}");
        assert!(long_err < 0.10, "long-burst error should be small: {long_err}");
    }

    #[test]
    fn same_source_connections_interfere_distinct_do_not() {
        let mut cloud = Cloud::new(quiet(ProviderProfile::ec2_2013(false)), 23);
        let vms = cloud.allocate(4);
        let mut pc = cloud.packet_cloud(1);
        let solo = pc.netperf(&[(vms[0], vms[1])], 300 * MILLIS)[0];
        let same = pc.netperf(&[(vms[0], vms[1]), (vms[0], vms[2])], 300 * MILLIS);
        let distinct = pc.netperf(&[(vms[0], vms[1]), (vms[2], vms[3])], 300 * MILLIS);
        assert!(same[0] < 0.7 * solo, "same-source halves: {} vs {solo}", same[0]);
        assert!(distinct[0] > 0.8 * solo, "distinct unaffected: {} vs {solo}", distinct[0]);
    }

    #[test]
    fn traceroute_full_style_reports_tree_hops() {
        let mut cloud = Cloud::new(quiet(ProviderProfile::ec2_2013(true)), 24);
        let vms = cloud.allocate(8);
        let mut pc = cloud.packet_cloud(1);
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    let h = pc.traceroute(vms[i], vms[j]);
                    assert!([1, 2, 4, 6, 8].contains(&h), "EC2 hop set: got {h}");
                }
            }
        }
    }
}
