//! Candidate rating against the **live** simulated network.
//!
//! [`LiveRater`] is the online service's analogue of
//! [`choreo_place::BackendRater`]: the greedy placer's per-transfer
//! candidate batches go straight to [`FlowSim::probe_rates`] — one
//! batched what-if replay of the committed allocation's freeze-round log
//! per transfer, observably side-effect-free, never a snapshot. Probes
//! price in every flow currently running, so the placer must combine
//! them with a **network-idle** load (CPU only): stacking transfer
//! counters on top of live probes would double-count running traffic
//! (the same contract as `Choreo::place_live`).

use choreo_flowsim::{FlowSim, HoseId};
use choreo_measure::RateModel;
use choreo_place::rater::CandidateRater;
use choreo_topology::NodeId;

/// Rater over a candidate-host subset of a live [`FlowSim`].
///
/// Local VM index `i` is global host `subset[i]`; pairs are probed
/// through the engine's batched what-if path under the pipe model
/// (probes return per-connection fair shares, which is what the pipe
/// sharing rule divides).
pub struct LiveRater<'a> {
    sim: &'a mut FlowSim,
    hosts: &'a [NodeId],
    subset: &'a [u32],
    probes: &'a mut Vec<(NodeId, NodeId, Option<HoseId>)>,
}

impl<'a> LiveRater<'a> {
    /// Rater over `subset` (global host indices) of `sim`'s network.
    /// `probes` is scratch for the batches handed to the engine — lent by
    /// the caller so a rater per placement attempt allocates nothing.
    pub fn new(
        sim: &'a mut FlowSim,
        hosts: &'a [NodeId],
        subset: &'a [u32],
        probes: &'a mut Vec<(NodeId, NodeId, Option<HoseId>)>,
    ) -> Self {
        LiveRater { sim, hosts, subset, probes }
    }
}

impl CandidateRater for LiveRater<'_> {
    fn n_vms(&self) -> usize {
        self.subset.len()
    }

    fn model(&self) -> RateModel {
        RateModel::Pipe
    }

    fn path_rates(&mut self, pairs: &[(u32, u32)], out: &mut Vec<f64>) {
        self.probes.clear();
        self.probes.extend(pairs.iter().map(|&(m, n)| {
            let src = self.hosts[self.subset[m as usize] as usize];
            let dst = self.hosts[self.subset[n as usize] as usize];
            (src, dst, None)
        }));
        self.sim.probe_rates(self.probes, out);
    }

    fn hose_rate(&mut self, _vm: u32) -> f64 {
        unreachable!("the online scheduler rates candidates under the pipe model")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choreo_topology::{dumbbell, LinkSpec, RouteTable, GBIT, MICROS};
    use std::sync::Arc;

    #[test]
    fn live_rater_maps_subset_to_hosts_and_batches() {
        let t = Arc::new(dumbbell(
            2,
            LinkSpec::new(GBIT, 5 * MICROS),
            LinkSpec::new(GBIT, 20 * MICROS),
        ));
        let r = Arc::new(RouteTable::new(&t));
        let mut sim = FlowSim::new(t.clone(), r, LinkSpec::new(4.2 * GBIT, 20 * MICROS), 1);
        let hosts = t.hosts().to_vec();
        // Load the shared link with one background flow.
        sim.start_flow_now(hosts[1], hosts[3], None, None, 9);
        let subset = [0u32, 2];
        let mut probes = Vec::new();
        let mut rater = LiveRater::new(&mut sim, &hosts, &subset, &mut probes);
        assert_eq!(rater.n_vms(), 2);
        assert_eq!(rater.model(), RateModel::Pipe);
        let mut out = Vec::new();
        // Local pair (0, 1) = hosts 0 -> 2: crosses the loaded shared
        // link, so the probe sees the halved fair share; the reverse
        // direction rides the other (idle) directed capacity.
        rater.path_rates(&[(0, 1), (1, 0)], &mut out);
        assert_eq!(out.len(), 2);
        assert!((out[0] - 0.5e9).abs() < 1.0, "shares with background: {}", out[0]);
        assert!((out[1] - 1e9).abs() < 1.0, "reverse direction is idle: {}", out[1]);
    }
}
