//! The VM layer: tenant-visible virtual machines mapped onto physical hosts,
//! VM-level hop counts, and traceroute emulation.
//!
//! Choreo is a *tenant-side* system: it sees VMs, not hosts. Two VMs may
//! share a physical machine — the paper observed 18 EC2 paths near 4 Gbit/s
//! and attributed them to co-located instances (§2.2, §4.2). At the VM level
//! the paper counts a same-host path as **one hop**, and inter-host paths as
//! the number of physical links traversed, which in a multi-rooted tree is
//! always even (§3.3.1, Fig. 8 shows the set {1, 2, 4, 6, 8}).

use crate::graph::{NodeId, Topology};
use crate::route::RouteTable;

/// Index of a tenant VM (dense, assigned at allocation time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u32);

/// How a provider's traceroute reports hop counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracerouteStyle {
    /// Report the true number of links traversed (EC2-like).
    Full,
    /// Hide the fabric: report 1 for co-located VMs and a fixed count for
    /// everything else (Rackspace-like; the paper saw only {1, 4} there
    /// and suspected "Rackspace's traceroute results may hide certain
    /// aspects of their topology").
    Opaque {
        /// Hop count reported for every inter-host path.
        inter_host_hops: usize,
    },
}

/// Mapping from tenant VMs to physical hosts.
#[derive(Debug, Clone)]
pub struct VmMap {
    vm_to_host: Vec<NodeId>,
}

impl VmMap {
    /// Create a mapping; `vm_to_host[i]` is the host of `VmId(i)`.
    ///
    /// Panics if any host id is not a host node of `topo`.
    pub fn new(topo: &Topology, vm_to_host: Vec<NodeId>) -> Self {
        for &h in &vm_to_host {
            assert!(
                topo.node(h).kind.is_host(),
                "VM mapped to non-host node {h:?} ({})",
                topo.node(h).name
            );
        }
        VmMap { vm_to_host }
    }

    /// Number of VMs.
    pub fn len(&self) -> usize {
        self.vm_to_host.len()
    }

    /// True iff no VMs are mapped.
    pub fn is_empty(&self) -> bool {
        self.vm_to_host.is_empty()
    }

    /// Physical host of a VM.
    pub fn host(&self, vm: VmId) -> NodeId {
        self.vm_to_host[vm.0 as usize]
    }

    /// All VM ids.
    pub fn vms(&self) -> impl Iterator<Item = VmId> + '_ {
        (0..self.vm_to_host.len() as u32).map(VmId)
    }

    /// True iff the two VMs share a physical machine.
    pub fn colocated(&self, a: VmId, b: VmId) -> bool {
        self.host(a) == self.host(b)
    }

    /// VM-level hop count: 1 if co-located (traffic stays inside the
    /// hypervisor, "one hop" in the paper's counting), otherwise the number
    /// of physical links on the shortest path.
    pub fn hop_count(&self, routes: &RouteTable, a: VmId, b: VmId) -> usize {
        if a == b {
            return 0;
        }
        if self.colocated(a, b) {
            return 1;
        }
        routes.hop_count(self.host(a), self.host(b))
    }

    /// Emulated traceroute between two VMs under the provider's
    /// reporting style.
    pub fn traceroute(
        &self,
        routes: &RouteTable,
        style: TracerouteStyle,
        a: VmId,
        b: VmId,
    ) -> usize {
        let true_hops = self.hop_count(routes, a, b);
        match style {
            TracerouteStyle::Full => true_hops,
            TracerouteStyle::Opaque { inter_host_hops } => {
                if true_hops <= 1 {
                    true_hops
                } else {
                    inter_host_hops
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkSpec;
    use crate::tree::MultiRootedTreeSpec;
    use crate::units::{GBIT, MICROS};

    fn tree_and_routes() -> (Topology, RouteTable) {
        let t = MultiRootedTreeSpec::default().build();
        let rt = RouteTable::new(&t);
        (t, rt)
    }

    #[test]
    fn colocated_vms_have_one_hop() {
        let (t, rt) = tree_and_routes();
        let h0 = t.hosts()[0];
        let map = VmMap::new(&t, vec![h0, h0]);
        assert!(map.colocated(VmId(0), VmId(1)));
        assert_eq!(map.hop_count(&rt, VmId(0), VmId(1)), 1);
        assert_eq!(map.hop_count(&rt, VmId(0), VmId(0)), 0);
    }

    #[test]
    fn inter_host_hops_match_topology() {
        let (t, rt) = tree_and_routes();
        let h = t.hosts();
        let map = VmMap::new(&t, vec![h[0], h[1], h[4], h[8]]);
        assert_eq!(map.hop_count(&rt, VmId(0), VmId(1)), 2);
        assert_eq!(map.hop_count(&rt, VmId(0), VmId(2)), 4);
        assert_eq!(map.hop_count(&rt, VmId(0), VmId(3)), 6);
    }

    #[test]
    fn opaque_traceroute_reports_fixed_hops() {
        let (t, rt) = tree_and_routes();
        let h = t.hosts();
        let map = VmMap::new(&t, vec![h[0], h[0], h[8]]);
        let style = TracerouteStyle::Opaque { inter_host_hops: 4 };
        assert_eq!(map.traceroute(&rt, style, VmId(0), VmId(1)), 1);
        assert_eq!(map.traceroute(&rt, style, VmId(0), VmId(2)), 4);
        assert_eq!(map.traceroute(&rt, TracerouteStyle::Full, VmId(0), VmId(2)), 6);
    }

    #[test]
    #[should_panic(expected = "non-host")]
    fn mapping_to_switch_rejected() {
        let t = MultiRootedTreeSpec::default().build();
        // Node 0 is a core switch in the generator's creation order.
        let sw = t.nodes().iter().find(|n| !n.kind.is_host()).unwrap().id;
        VmMap::new(&t, vec![sw]);
    }

    #[test]
    fn dumbbell_vm_hops() {
        let t = crate::tree::dumbbell(2, LinkSpec::new(GBIT, MICROS), LinkSpec::new(GBIT, MICROS));
        let rt = RouteTable::new(&t);
        let h = t.hosts();
        let map = VmMap::new(&t, vec![h[0], h[2]]);
        assert_eq!(map.hop_count(&rt, VmId(0), VmId(1)), 3);
    }
}
