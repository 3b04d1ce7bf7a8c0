//! Network snapshots: the measurement product placement consumes.

use choreo_topology::{Nanos, VmId};

/// How concurrent connections share capacity (paper Algorithm 1, line 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateModel {
    /// Each VM's *egress* is capped; all connections out of a VM share its
    /// hose (what §4.3/§4.4 found on EC2 and Rackspace).
    Hose,
    /// Each path is an independent pipe; connections on the same path share
    /// it, connections on different paths do not interact.
    Pipe,
}

/// Abstraction over "a set of VMs we can measure": implemented by the
/// packet-level cloud (UDP trains + netperf), the flow-level cloud
/// (fair-share probes), and — in principle — real agents over sockets.
pub trait MeasureBackend {
    /// Number of VMs in the allocation.
    fn n_vms(&self) -> usize;

    /// Fast throughput estimates (packet trains in the paper): fills
    /// `out[i]` with the estimated bulk-TCP throughput of `pairs[i]`, in
    /// bits/s. A lone pair is a batch of one. The flow-level cloud scores
    /// the whole batch against one network state with a single what-if
    /// solve, turning the mesh measurement and the placer's candidate
    /// scoring from `O(pairs)` solver passes into one; the packet-level
    /// cloud sends one train after another.
    fn probe_paths(&mut self, pairs: &[(VmId, VmId)], out: &mut Vec<f64>);

    /// Ground-truth bulk TCP measurement (netperf): transfers on all
    /// `pairs` at once for `duration`; returns per-pair throughput
    /// (bits/s), in order. One pair measures a path alone; several measure
    /// how they interfere (§4.3).
    fn netperf(&mut self, pairs: &[(VmId, VmId)], duration: Nanos) -> Vec<f64>;

    /// Provider-visible traceroute hop count.
    fn traceroute(&mut self, a: VmId, b: VmId) -> usize;
}

/// Measured state of a tenant's VM mesh: everything Algorithm 1 needs.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSnapshot {
    n: usize,
    /// Row-major n×n inter-VM rates, bits/s. Diagonal = intra-VM
    /// (effectively infinite; stored as `f64::INFINITY`).
    rates: Vec<f64>,
    /// Per-VM hose (egress) rates, scanned from `rates` once so
    /// placement's inner loop reads them in O(1) instead of scanning a
    /// row per candidate.
    hose: Vec<f64>,
    /// Rate-sharing model for placement simulations.
    pub model: RateModel,
    /// Traceroute hop counts (same layout), if collected.
    pub hops: Option<Vec<usize>>,
}

impl NetworkSnapshot {
    /// Build from a dense rate matrix (diagonal entries are forced to ∞).
    pub fn from_rates(n: usize, mut rates: Vec<f64>, model: RateModel) -> Self {
        assert_eq!(rates.len(), n * n);
        for i in 0..n {
            rates[i * n + i] = f64::INFINITY;
        }
        assert!(rates.iter().all(|r| *r > 0.0), "all measured rates must be positive");
        let hose = (0..n)
            .map(|a| (0..n).filter(|&j| j != a).map(|j| rates[a * n + j]).fold(0.0, f64::max))
            .collect();
        NetworkSnapshot { n, rates, hose, model, hops: None }
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.n
    }

    /// Measured rate from `a` to `b` (∞ when `a == b`).
    pub fn rate(&self, a: VmId, b: VmId) -> f64 {
        self.rates[a.0 as usize * self.n + b.0 as usize]
    }

    /// Estimated hose (egress) rate of a VM: the maximum measured rate out
    /// of it. Under source rate-limiting a single connection can saturate
    /// the hose, so the max over destinations is a consistent estimator.
    /// O(1): computed once, when the snapshot is built.
    pub fn hose_rate(&self, a: VmId) -> f64 {
        self.hose[a.0 as usize]
    }

    /// All finite rates (off-diagonal), for CDFs.
    pub fn path_rates(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.n * (self.n - 1));
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    v.push(self.rates[i * self.n + j]);
                }
            }
        }
        v
    }

    /// Measure every ordered pair with the backend's fast probe and
    /// assemble a snapshot (the paper's "snapshot of the network within a
    /// few minutes for a ten-node topology"). The full mesh goes through
    /// [`MeasureBackend::probe_paths`] as one batch, so backends with a
    /// batched what-if solver pay a single solve for the whole snapshot.
    pub fn measure<B: MeasureBackend>(backend: &mut B, model: RateModel) -> NetworkSnapshot {
        let n = backend.n_vms();
        let mut pairs = Vec::with_capacity(n * n.saturating_sub(1));
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    pairs.push((VmId(i as u32), VmId(j as u32)));
                }
            }
        }
        let mut probed = Vec::new();
        backend.probe_paths(&pairs, &mut probed);
        assert_eq!(probed.len(), pairs.len(), "backend probed every pair");
        let mut rates = vec![f64::INFINITY; n * n];
        for (&(a, b), &rate) in pairs.iter().zip(&probed) {
            rates[a.0 as usize * n + b.0 as usize] = rate;
        }
        let mut snap = NetworkSnapshot::from_rates(n, rates, model);
        let mut hops = vec![0usize; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    hops[i * n + j] = backend.traceroute(VmId(i as u32), VmId(j as u32));
                }
            }
        }
        snap.hops = Some(hops);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap3() -> NetworkSnapshot {
        // Rates: 0->1 = 10, 0->2 = 20, 1->2 = 30, etc.
        let rates = vec![
            0.0, 10.0, 20.0, //
            15.0, 0.0, 30.0, //
            25.0, 35.0, 0.0,
        ];
        NetworkSnapshot::from_rates(3, rates, RateModel::Hose)
    }

    #[test]
    fn diagonal_is_infinite() {
        let s = snap3();
        assert!(s.rate(VmId(0), VmId(0)).is_infinite());
        assert_eq!(s.rate(VmId(0), VmId(1)), 10.0);
        assert_eq!(s.rate(VmId(1), VmId(0)), 15.0);
    }

    #[test]
    fn hose_rate_is_max_egress() {
        let s = snap3();
        assert_eq!(s.hose_rate(VmId(0)), 20.0);
        assert_eq!(s.hose_rate(VmId(2)), 35.0);
    }

    #[test]
    fn path_rates_excludes_diagonal() {
        let s = snap3();
        let r = s.path_rates();
        assert_eq!(r.len(), 6);
        assert!(r.iter().all(|x| x.is_finite()));
    }

    struct FakeBackend {
        n: usize,
    }

    impl MeasureBackend for FakeBackend {
        fn n_vms(&self) -> usize {
            self.n
        }
        fn probe_paths(&mut self, pairs: &[(VmId, VmId)], out: &mut Vec<f64>) {
            out.clear();
            out.extend(pairs.iter().map(|&(a, b)| ((a.0 + 1) * 100 + b.0 + 1) as f64));
        }
        fn netperf(&mut self, pairs: &[(VmId, VmId)], _d: Nanos) -> Vec<f64> {
            let mut out = Vec::new();
            self.probe_paths(pairs, &mut out);
            out
        }
        fn traceroute(&mut self, a: VmId, b: VmId) -> usize {
            if a == b {
                0
            } else {
                4
            }
        }
    }

    #[test]
    fn measure_probes_all_ordered_pairs() {
        let mut b = FakeBackend { n: 3 };
        let s = NetworkSnapshot::measure(&mut b, RateModel::Pipe);
        assert_eq!(s.n_vms(), 3);
        assert_eq!(s.rate(VmId(0), VmId(1)), 102.0);
        assert_eq!(s.rate(VmId(2), VmId(0)), 301.0);
        assert_eq!(s.hops.as_ref().unwrap()[1], 4); // (0,1)
        assert_eq!(s.model, RateModel::Pipe);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_rates_rejected() {
        NetworkSnapshot::from_rates(2, vec![0.0, -1.0, 1.0, 0.0], RateModel::Pipe);
    }
}
