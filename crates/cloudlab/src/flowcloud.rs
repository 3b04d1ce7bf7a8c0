//! Flow-level cloud backend: fast measurement and placement execution.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use choreo_flowsim::{FlowKey, FlowSim, HoseId};
use choreo_measure::{MeasureBackend, NetworkSnapshot, RateModel};
use choreo_topology::{Nanos, NodeId, RouteTable, TracerouteStyle, VmId, VmMap, LOOPBACK, SECS};

use crate::cloud::{sample_normal, Cloud};

/// A tenant's view of the cloud at flow granularity.
///
/// Backs the macro experiments (Figs. 1, 2, 7, 8, 10): `netperf`-style
/// measurements return the max-min fair share a bulk TCP connection would
/// get, perturbed by the profile's measurement noise; applications are run
/// by turning traffic-matrix entries into bounded flows.
pub struct FlowCloud {
    sim: FlowSim,
    vms: VmMap,
    hoses: Vec<HoseId>,
    routes: std::sync::Arc<RouteTable>,
    traceroute_style: TracerouteStyle,
    noise_sd: f64,
    rng: StdRng,
    /// Keys of the transfers [`FlowCloud::start_transfer`] started, by
    /// tag: what [`FlowCloud::tag_completion`] answers from.
    transfers: HashMap<u64, Vec<FlowKey>>,
    /// Scratch reused by `probe_paths`.
    probe_scratch: Vec<(NodeId, NodeId, Option<HoseId>)>,
    rate_scratch: Vec<f64>,
}

impl FlowCloud {
    /// Build from a [`Cloud`] (called via [`Cloud::flow_cloud`]).
    pub(crate) fn build(cloud: &mut Cloud, seed: u64) -> FlowCloud {
        let mut sim = FlowSim::new(cloud.topology().clone(), cloud.routes().clone(), seed);
        let hoses: Vec<HoseId> =
            (0..cloud.n_vms()).map(|i| sim.add_hose(cloud.hose_of(VmId(i as u32)))).collect();
        let bg = cloud.background_pairs(cloud.profile.background.pairs);
        for (a, b, hose_bps) in bg {
            let h = sim.add_hose(hose_bps);
            sim.add_onoff(
                a,
                b,
                Some(h),
                cloud.profile.background.mean_on,
                cloud.profile.background.mean_off,
                0,
            );
        }
        let mut fc = FlowCloud {
            sim,
            vms: cloud.vm_map(),
            hoses,
            routes: cloud.routes().clone(),
            traceroute_style: cloud.profile.traceroute,
            noise_sd: cloud.profile.measurement_noise,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_F00D),
            transfers: HashMap::new(),
            probe_scratch: Vec::new(),
            rate_scratch: Vec::new(),
        };
        // Warm up so background sources reach a mixed state.
        fc.sim.run_until(10 * SECS);
        fc
    }

    fn noise(&mut self) -> f64 {
        (1.0 + self.noise_sd * sample_normal(&mut self.rng)).max(0.01)
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.sim.now()
    }

    /// Advance simulated time (background traffic evolves).
    pub fn advance(&mut self, dt: Nanos) {
        let t = self.sim.now() + dt;
        self.sim.run_until(t);
    }

    /// The VM→host map.
    pub fn vm_map(&self) -> &VmMap {
        &self.vms
    }

    /// Mutable access to the underlying simulator (advanced scenarios).
    pub fn sim_mut(&mut self) -> &mut FlowSim {
        &mut self.sim
    }

    /// Start a bounded transfer between two VMs at absolute time `at`.
    /// Returns `None` when both endpoints are the same VM — such transfers
    /// are process-local and complete instantly (the effect Algorithm 1
    /// exploits by co-placing chatty tasks).
    pub fn start_transfer(
        &mut self,
        from: VmId,
        to: VmId,
        bytes: u64,
        at: Nanos,
        tag: u64,
    ) -> Option<FlowKey> {
        if from == to {
            return None;
        }
        let src = self.vms.host(from);
        let dst = self.vms.host(to);
        let hose = Some(self.hoses[from.0 as usize]);
        let key = self.sim.start_flow(src, dst, Some(bytes), hose, at, tag);
        self.transfers.entry(tag).or_default().push(key);
        Some(key)
    }

    /// Run until every bounded flow completes; returns the finish time.
    pub fn run_to_completion(&mut self) -> Nanos {
        self.sim.run_to_completion()
    }

    /// Completion time of the transfers started under `tag`: the latest
    /// of their completion times, `None` while any of them is pending or
    /// active, or when no transfer was started under `tag`.
    pub fn tag_completion(&self, tag: u64) -> Option<Nanos> {
        let keys = self.transfers.get(&tag)?;
        keys.iter().try_fold(0, |latest, &k| Some(latest.max(self.sim.completion_time(k)?)))
    }

    /// Convenience: measure the full mesh into a snapshot using 500 ms
    /// probes (the flow-level analogue of a sub-second packet train).
    pub fn snapshot(&mut self, model: RateModel) -> NetworkSnapshot {
        NetworkSnapshot::measure(self, model)
    }
}

impl MeasureBackend for FlowCloud {
    fn n_vms(&self) -> usize {
        self.vms.len()
    }

    fn probe_paths(&mut self, pairs: &[(VmId, VmId)], out: &mut Vec<f64>) {
        // A packet train takes under a second and injects ~3 MB (§4.1) —
        // negligible next to running applications. The flow-level
        // analogue is the instantaneous fair share a new connection would
        // get, with the provider's measurement noise on top: one batched
        // what-if solve scores every distinct-host pair, co-located pairs
        // read the loopback constant, and the noise is drawn per pair in
        // `pairs` order.
        let mut sim_probes = std::mem::take(&mut self.probe_scratch);
        let mut batched = std::mem::take(&mut self.rate_scratch);
        sim_probes.clear();
        for &(a, b) in pairs {
            let (src, dst) = (self.vms.host(a), self.vms.host(b));
            if src != dst {
                sim_probes.push((src, dst, Some(self.hoses[a.0 as usize])));
            }
        }
        self.sim.probe_rates(&sim_probes, &mut batched);
        out.clear();
        out.reserve(pairs.len());
        let mut next = 0usize;
        for &(a, b) in pairs {
            let raw = if self.vms.host(a) == self.vms.host(b) {
                LOOPBACK.rate_bps
            } else {
                next += 1;
                batched[next - 1]
            };
            out.push(raw * self.noise());
        }
        self.probe_scratch = sim_probes;
        self.rate_scratch = batched;
    }

    fn netperf(&mut self, pairs: &[(VmId, VmId)], duration: Nanos) -> Vec<f64> {
        let flows: Vec<_> = pairs
            .iter()
            .map(|&(a, b)| {
                assert!(a != b, "netperf needs two distinct VMs");
                (self.vms.host(a), self.vms.host(b), Some(self.hoses[a.0 as usize]))
            })
            .collect();
        let raws = self.sim.measure_tcp_throughput(&flows, duration);
        raws.into_iter().map(|raw| raw * self.noise()).collect()
    }

    fn traceroute(&mut self, a: VmId, b: VmId) -> usize {
        self.vms.traceroute(&self.routes, self.traceroute_style, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProviderProfile;
    use choreo_measure::RateModel;
    use choreo_topology::{MBIT, MILLIS};

    fn quiet_ec2() -> Cloud {
        let mut p = ProviderProfile::ec2_2013(false);
        p.background.pairs = 0;
        p.measurement_noise = 0.0;
        p.colocate_prob = 0.0;
        Cloud::new(p, 11)
    }

    #[test]
    fn netperf_measures_the_hose() {
        let mut cloud = quiet_ec2();
        let vms = cloud.allocate(4);
        let hose0 = cloud.hose_of(vms[0]);
        let mut fc = cloud.flow_cloud(1);
        let r = fc.netperf(&[(vms[0], vms[1])], SECS)[0];
        assert!((r - hose0).abs() / hose0 < 0.01, "r = {r}, hose = {hose0}");
    }

    #[test]
    fn rackspace_paths_are_flat_300() {
        let mut cloud = Cloud::new(ProviderProfile::rackspace(), 2);
        cloud.allocate(5);
        let mut fc = cloud.flow_cloud(3);
        let snap = fc.snapshot(RateModel::Hose);
        for r in snap.path_rates() {
            assert!((r - 300.0 * MBIT).abs() / (300.0 * MBIT) < 0.05, "r = {r}");
        }
    }

    #[test]
    fn colocated_vms_see_loopback_rates() {
        let mut p = ProviderProfile::ec2_2013(false);
        p.background.pairs = 0;
        p.measurement_noise = 0.0;
        p.colocate_prob = 1.0;
        let mut cloud = Cloud::new(p, 5);
        let vms = cloud.allocate(2);
        let mut fc = cloud.flow_cloud(1);
        let r = fc.netperf(&[(vms[0], vms[1])], SECS)[0];
        assert!(r > 3e9, "colocated rate should be ≈4 Gbit/s, got {r}");
    }

    #[test]
    fn transfers_run_to_completion() {
        let mut cloud = quiet_ec2();
        let vms = cloud.allocate(3);
        let hose0 = cloud.hose_of(vms[0]);
        let mut fc = cloud.flow_cloud(1);
        let t0 = fc.now();
        fc.start_transfer(vms[0], vms[1], 125_000_000, t0, 42);
        let end = fc.run_to_completion();
        let dur = (end - t0) as f64 / 1e9;
        let expect = 125_000_000.0 * 8.0 / hose0;
        assert!((dur - expect).abs() / expect < 0.02, "dur {dur} vs {expect}");
        assert_eq!(fc.tag_completion(42), Some(end));
    }

    #[test]
    fn tag_completion_waits_for_every_transfer_of_the_tag() {
        let mut cloud = quiet_ec2();
        let vms = cloud.allocate(4);
        let mut fc = cloud.flow_cloud(1);
        let t0 = fc.now();
        let short = fc.start_transfer(vms[0], vms[1], 1_000_000, t0, 5).unwrap();
        let long = fc.start_transfer(vms[2], vms[3], 100_000_000, t0, 5).unwrap();
        assert_eq!(fc.tag_completion(5), None, "both transfers pending");
        fc.advance(100 * MILLIS);
        let first = fc.sim_mut().completion_time(short).expect("the short transfer finished");
        assert_eq!(fc.sim_mut().completion_time(long), None);
        assert_eq!(fc.tag_completion(5), None, "the long transfer is still running");
        let end = fc.run_to_completion();
        assert!(first < end);
        assert_eq!(fc.tag_completion(5), Some(end), "the later completion time");
        assert_eq!(fc.tag_completion(999), None, "no transfer under this tag");
    }

    #[test]
    fn same_vm_transfer_is_instant() {
        let mut cloud = quiet_ec2();
        let vms = cloud.allocate(2);
        let mut fc = cloud.flow_cloud(1);
        assert!(fc.start_transfer(vms[0], vms[0], 1 << 30, 0, 7).is_none());
    }

    #[test]
    fn concurrent_same_source_shares_hose() {
        let mut cloud = quiet_ec2();
        let vms = cloud.allocate(3);
        let hose0 = cloud.hose_of(vms[0]);
        let mut fc = cloud.flow_cloud(1);
        let rates = fc.netperf(&[(vms[0], vms[1]), (vms[0], vms[2])], SECS);
        let sum = rates[0] + rates[1];
        assert!((sum - hose0).abs() / hose0 < 0.02, "sum {sum} vs hose {hose0}");
    }

    #[test]
    fn concurrent_distinct_sources_do_not_interfere() {
        let mut cloud = quiet_ec2();
        let vms = cloud.allocate(4);
        let mut fc = cloud.flow_cloud(1);
        let solo = fc.netperf(&[(vms[0], vms[1])], SECS)[0];
        let rates = fc.netperf(&[(vms[0], vms[1]), (vms[2], vms[3])], SECS);
        assert!((rates[0] - solo).abs() / solo < 0.05, "{} vs {solo}", rates[0]);
    }

    #[test]
    fn netperf_releases_its_flow_records() {
        let mut cloud = quiet_ec2();
        let vms = cloud.allocate(4);
        let mut fc = cloud.flow_cloud(1);
        let records: Vec<usize> = (0..5)
            .map(|_| {
                fc.netperf(&[(vms[0], vms[1]), (vms[2], vms[3])], SECS);
                fc.sim_mut().flow_records()
            })
            .collect();
        assert_eq!(records, vec![2; 5], "each call reuses the records the last one released");
    }

    #[test]
    fn traceroute_respects_provider_style() {
        let mut cloud = Cloud::new(ProviderProfile::rackspace(), 8);
        let vms = cloud.allocate(4);
        let mut fc = cloud.flow_cloud(1);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    let h = fc.traceroute(vms[i], vms[j]);
                    assert!(h == 1 || h == 4, "rackspace reports only 1 or 4, got {h}");
                }
            }
        }
    }
}
