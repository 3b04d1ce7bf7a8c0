//! The [`Cloud`]: topology + tenant allocation + backend factories.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use choreo_topology::{NodeId, RouteTable, Topology, VmId, VmMap};

use crate::flowcloud::FlowCloud;
use crate::packetcloud::PacketCloud;
use crate::profile::ProviderProfile;

/// Standard normal via Box–Muller (shared across the crate).
pub fn sample_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    (-2.0 * u1.ln()).sqrt() * u2.cos()
}

/// A provider region with one tenant allocation.
///
/// Construction builds the physical tree and routing; [`Cloud::allocate`]
/// places tenant VMs on hosts (possibly co-locating a few, per the
/// profile) and samples each VM's hose rate. Backends
/// ([`Cloud::flow_cloud`], [`Cloud::packet_cloud`]) snapshot the current
/// allocation.
pub struct Cloud {
    /// The provider profile in force.
    pub profile: ProviderProfile,
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    rng: StdRng,
    vm_hosts: Vec<NodeId>,
    vm_hose_bps: Vec<f64>,
}

impl Cloud {
    /// Build a region. Equal `(profile, seed)` pairs produce identical
    /// clouds.
    pub fn new(profile: ProviderProfile, seed: u64) -> Self {
        let topo = Arc::new(profile.tree.build());
        let routes = Arc::new(RouteTable::new(&topo));
        Cloud {
            profile,
            topo,
            routes,
            rng: StdRng::seed_from_u64(seed),
            vm_hosts: Vec::new(),
            vm_hose_bps: Vec::new(),
        }
    }

    /// The physical topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Precomputed routes.
    pub fn routes(&self) -> &Arc<RouteTable> {
        &self.routes
    }

    /// Allocate `n` more VMs for the tenant; returns their ids.
    ///
    /// Hosts are drawn uniformly; with probability `colocate_prob` a VM is
    /// instead placed on a host already carrying one of the tenant's VMs
    /// (the paper's ≈4 Gbit/s same-machine paths). Each VM receives a hose
    /// rate sampled from the profile's distribution.
    pub fn allocate(&mut self, n: usize) -> Vec<VmId> {
        let hosts = self.topo.hosts().to_vec();
        assert!(
            self.vm_hosts.len() + n <= hosts.len() * 4,
            "allocation exceeds plausible region capacity"
        );
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let id = VmId(self.vm_hosts.len() as u32);
            let host = if !self.vm_hosts.is_empty()
                && self.rng.gen_bool(self.profile.colocate_prob.clamp(0.0, 1.0))
            {
                self.vm_hosts[self.rng.gen_range(0..self.vm_hosts.len())]
            } else {
                // Prefer unused hosts so VM meshes spread over the fabric.
                let used: Vec<NodeId> = self.vm_hosts.clone();
                let free: Vec<NodeId> =
                    hosts.iter().copied().filter(|h| !used.contains(h)).collect();
                if free.is_empty() {
                    hosts[self.rng.gen_range(0..hosts.len())]
                } else {
                    free[self.rng.gen_range(0..free.len())]
                }
            };
            self.vm_hosts.push(host);
            let hose = self.profile.hose.sample(&mut self.rng);
            self.vm_hose_bps.push(hose);
            out.push(id);
        }
        out
    }

    /// Number of VMs allocated so far.
    pub fn n_vms(&self) -> usize {
        self.vm_hosts.len()
    }

    /// VM→host mapping for the current allocation.
    pub fn vm_map(&self) -> VmMap {
        VmMap::new(&self.topo, self.vm_hosts.clone())
    }

    /// Hose rate assigned to one VM.
    pub fn hose_of(&self, vm: VmId) -> f64 {
        self.vm_hose_bps[vm.0 as usize]
    }

    /// Pick `pairs` random distinct-host background endpoints (other
    /// tenants), with their own sampled hose rates.
    pub(crate) fn background_pairs(&mut self, pairs: usize) -> Vec<(NodeId, NodeId, f64)> {
        let hosts = self.topo.hosts().to_vec();
        (0..pairs)
            .map(|_| {
                let a = hosts[self.rng.gen_range(0..hosts.len())];
                let mut b = hosts[self.rng.gen_range(0..hosts.len())];
                while b == a {
                    b = hosts[self.rng.gen_range(0..hosts.len())];
                }
                let hose = self.profile.hose.sample(&mut self.rng);
                (a, b, hose)
            })
            .collect()
    }

    /// Spawn a flow-level backend over the current allocation.
    pub fn flow_cloud(&mut self, seed: u64) -> FlowCloud {
        FlowCloud::build(self, seed)
    }

    /// Spawn a packet-level backend over the current allocation.
    pub fn packet_cloud(&mut self, seed: u64) -> PacketCloud {
        PacketCloud::build(self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProviderProfile;

    #[test]
    fn allocation_is_deterministic() {
        let mk = || {
            let mut c = Cloud::new(ProviderProfile::ec2_2013(false), 77);
            c.allocate(10);
            (c.vm_hosts.clone(), c.vm_hose_bps.clone())
        };
        assert_eq!(mk().0, mk().0);
        assert_eq!(mk().1, mk().1);
    }

    #[test]
    fn vms_prefer_distinct_hosts() {
        let mut profile = ProviderProfile::ec2_2013(false);
        profile.colocate_prob = 0.0;
        let mut c = Cloud::new(profile, 3);
        let vms = c.allocate(10);
        assert_eq!(vms.len(), 10);
        let mut hosts: Vec<NodeId> = vms.iter().map(|&v| c.vm_hosts[v.0 as usize]).collect();
        hosts.sort();
        hosts.dedup();
        assert_eq!(hosts.len(), 10, "no accidental colocation at prob 0");
    }

    #[test]
    fn forced_colocation_happens() {
        let mut profile = ProviderProfile::ec2_2013(false);
        profile.colocate_prob = 1.0;
        let mut c = Cloud::new(profile, 3);
        let vms = c.allocate(3);
        // VM 0 gets a fresh host, the rest pile onto used hosts.
        let host = |v: VmId| c.vm_hosts[v.0 as usize];
        assert_eq!(host(vms[1]), host(vms[0]));
        assert_eq!(host(vms[2]), host(vms[0]));
    }

    #[test]
    fn hose_rates_follow_profile() {
        let mut c = Cloud::new(ProviderProfile::rackspace(), 9);
        let vms = c.allocate(10);
        for v in vms {
            let h = c.hose_of(v);
            assert!((h - 300e6).abs() / 300e6 < 0.02, "h = {h}");
        }
    }

    #[test]
    fn background_pairs_are_distinct_hosted() {
        let mut c = Cloud::new(ProviderProfile::ec2_2013(false), 1);
        for (a, b, hose) in c.background_pairs(20) {
            assert_ne!(a, b);
            assert!(hose > 0.0);
        }
    }

    #[test]
    fn vm_map_reflects_allocation() {
        let mut c = Cloud::new(ProviderProfile::ec2_2013(true), 4);
        let vms = c.allocate(5);
        let map = c.vm_map();
        assert_eq!(map.len(), 5);
        for v in vms {
            assert_eq!(map.host(v), c.vm_hosts[v.0 as usize]);
        }
    }
}
