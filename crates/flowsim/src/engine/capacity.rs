//! Hoses, runtime capacity and the lost-capacity fraction.
//!
//! Invariant: a capacity is an input the caller may move at any time; a
//! change marks its resource in the arena's dirty window, so the next
//! solve re-solves bit-identical to a cold solve at the new capacities.

use super::FlowSim;

/// Handle to a hose (per-VM egress cap) resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HoseId(pub u32);

/// Residual rate of a failed link (bits/s): effectively zero for any
/// workload, but positive so the max-min solver's "capacities are > 0"
/// contract holds and flows pinned to a failed link converge to a
/// measurably dead rate instead of a divide-by-zero.
pub const FAILED_LINK_BPS: f64 = 1.0;

impl FlowSim {
    /// Register a hose (egress) cap of `rate_bps` and return its handle.
    pub fn add_hose(&mut self, rate_bps: f64) -> HoseId {
        assert!(rate_bps > 0.0);
        let id = HoseId((self.capacities.len()) as u32);
        self.capacities.push(rate_bps);
        self.arena.grow_resources(self.capacities.len());
        HoseId(id.0)
    }

    // -------------------------------------------------- runtime capacity

    /// Capacity currently configured for solver resource `resource`
    /// (bits/s) — the runtime value, which [`FlowSim::set_capacity`] may
    /// have moved off the topology's construction-time spec.
    pub fn capacity(&self, resource: u32) -> f64 {
        self.capacities[resource as usize]
    }

    /// Change one solver resource's capacity at runtime (bits/s, > 0).
    ///
    /// The resource is marked in the arena's dirty window
    /// ([`FlowArena::touch_resource`](crate::FlowArena::touch_resource)),
    /// so the next reallocation re-solves **bit-identical** to a cold solve at the new
    /// capacity: link failure is a cut to [`FAILED_LINK_BPS`],
    /// recovery a restore, degradation a fractional cut. A no-op when
    /// the capacity is already exactly `bits_per_sec`.
    pub fn set_capacity(&mut self, resource: u32, bits_per_sec: f64) {
        assert!(bits_per_sec > 0.0, "capacity must stay positive (failures use FAILED_LINK_BPS)");
        let ri = resource as usize;
        assert!(ri < self.capacities.len(), "set_capacity: bad resource {resource}");
        if self.capacities[ri] == bits_per_sec {
            return;
        }
        self.capacities[ri] = bits_per_sec;
        self.arena.touch_resource(resource);
    }

    /// Nominal (construction-time) rate of link `link`, bits/s.
    pub fn link_nominal_bps(&self, link: u32) -> f64 {
        self.topo.links()[link as usize].spec.rate_bps
    }

    /// Degrade both directions of link `link` to `fraction` of its
    /// nominal rate (`0 < fraction ≤ 1`; `1` restores it).
    pub fn degrade_link(&mut self, link: u32, fraction: f64) {
        assert!(fraction > 0.0 && fraction <= 1.0, "degrade fraction out of (0, 1]");
        let bps = self.link_nominal_bps(link) * fraction;
        self.set_capacity(2 * link, bps);
        self.set_capacity(2 * link + 1, bps);
    }

    /// Fail link `link`: both directions drop to [`FAILED_LINK_BPS`]
    /// (effectively zero; the solver needs capacities to stay positive).
    pub fn fail_link(&mut self, link: u32) {
        self.set_capacity(2 * link, FAILED_LINK_BPS);
        self.set_capacity(2 * link + 1, FAILED_LINK_BPS);
    }

    /// Restore link `link` to its nominal rate.
    pub fn recover_link(&mut self, link: u32) {
        let bps = self.link_nominal_bps(link);
        self.set_capacity(2 * link, bps);
        self.set_capacity(2 * link + 1, bps);
    }

    /// Fraction of the topology's nominal directed-link capacity
    /// currently lost to failures/degradations (0 when healthy) — the
    /// service's capacity-lost gauge.
    pub fn capacity_lost_fraction(&self) -> f64 {
        let mut nominal = 0.0;
        let mut current = 0.0;
        for (l, link) in self.topo.links().iter().enumerate() {
            nominal += 2.0 * link.spec.rate_bps;
            current += self.capacities[2 * l] + self.capacities[2 * l + 1];
        }
        if nominal <= 0.0 {
            return 0.0;
        }
        ((nominal - current) / nominal).max(0.0)
    }
}
