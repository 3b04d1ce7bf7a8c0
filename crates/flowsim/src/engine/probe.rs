//! What-if probes and the per-walk fold memo.
//!
//! Invariant: a probe never touches the arena. It reads the current
//! solve's log, and every memo it keeps — the solver's per-resource
//! records and the engine's per-walk folds — carries the epoch of the
//! solve it was read from, so a new solve invalidates it without a pass.

use choreo_metrics::span;
use choreo_topology::{Nanos, NodeId, WalkId};

use super::{hop_resource, FlowKey, FlowSim, HoseId};
use crate::fairshare::{fold_rate, Fold, ProbeRecord};

impl FlowSim {
    /// Make sure the solver's freeze-round log describes the current
    /// arena: apply pending reallocation, and re-stamp the log if the
    /// arena drifted without a solve (e.g. a hose was added while the
    /// rates were clean).
    fn ensure_probe_log(&mut self) {
        self.reallocate_if_dirty();
        if !self.solver.log_matches(&self.arena) {
            // The flow set is unchanged since the last committed
            // allocation (otherwise the dirty window would have forced a solve), so
            // a warm solve finds nothing perturbed: it carries every round
            // (one key compare each), leaves the committed rates alone and
            // re-stamps the log.
            self.solver.solve_warm(&self.capacities, &mut self.arena, &mut self.rates);
        }
    }

    /// Open a probe call on a current log: the solver's tallies reset, the
    /// walk memo sized to the route table.
    fn begin_probes(&mut self, what: &str) {
        self.solver.begin_probes(&self.capacities, &self.arena, what);
        let walks = self.routes.walk_count();
        if self.walk_folds.len() < walks {
            self.walk_folds.resize(walks, ProbeRecord::default());
        }
        self.last_walks_built = 0;
    }

    /// The [`Fold`] of a probe flow from `src` to `dst`: the records of
    /// its path 0 (deterministic first equal-cost path), spliced from the
    /// parts the route table splits it into — the lead hop, the tail hop
    /// and the hose, each a record, and the walk between, one memoised
    /// fold. `min` is associative, so the splice folds to what the whole
    /// path does. A co-located probe folds the source's loopback alone.
    fn probe_fold(&mut self, src: NodeId, dst: NodeId, hose: Option<HoseId>) -> Fold {
        if src == dst {
            // Co-located: loopback only; hose bypassed (hypervisor-local).
            let lo = self.host_loopback_res(src);
            return self.solver.fold(&self.capacities, &self.arena, [lo]);
        }
        let parts = self.routes.path0_parts(src, dst);
        let ends = parts.lead.iter().chain(&parts.tail).map(hop_resource);
        let fold = self.solver.fold(&self.capacities, &self.arena, ends.chain(hose.map(|h| h.0)));
        match parts.walk {
            Some(walk) => fold.min(self.walk_fold(walk)),
            None => fold,
        }
    }

    /// The [`Fold`] of `walk`'s hops, unranked and folded once per solve
    /// epoch.
    fn walk_fold(&mut self, walk: WalkId) -> Fold {
        let epoch = self.solver.probe_epoch();
        let memo = &mut self.walk_folds[walk.0 as usize];
        if memo.epoch != epoch {
            let hops = self.routes.walk(walk);
            let res = hops.hops().iter().map(hop_resource);
            let (hit, key) = self.solver.fold(&self.capacities, &self.arena, res);
            *memo = ProbeRecord { key, epoch, hit };
            self.last_walks_built += 1;
        }
        (memo.hit, memo.key)
    }

    /// Rate the *hypothetical* new flows `probes[i] = (src, dst, hose)`
    /// would each receive right now, writing `out[i]`, without perturbing
    /// the simulation: the flow-level analogue of starting probe
    /// connections. A lone candidate is a batch of one.
    ///
    /// Implemented as a what-if read of the solver's freeze-round log of
    /// the committed allocation: for each resource of a candidate's path
    /// 0, the first logged round that resource would saturate by with one
    /// more user, and the candidate freezes at the earliest of them —
    /// bit-identical to adding the flow and re-solving. Candidates are
    /// rated **independently** (they do not see one another) against the
    /// same committed state. A resource's answer does not depend on who
    /// asks, so the solver keeps it until the next solve, and the engine
    /// keeps each walk's fold of them likewise: `O(events · log rounds)`
    /// **per distinct resource per solve**, `O(1)` per candidate after
    /// that — a lead hop, a tail hop, a hose and a memoised walk. The
    /// scheduler's `k(k − 1)` ordered pairs over `k` hosts thus read the
    /// log for `2k` access directions and the walks between their ToRs.
    /// The `probe_batch` span covers all of it, route resolution included.
    ///
    /// **Observably side-effect-free**: the arena is never touched (only
    /// the probe memos are written).
    pub fn probe_rates(&mut self, probes: &[(NodeId, NodeId, Option<HoseId>)], out: &mut Vec<f64>) {
        self.ensure_probe_log();
        let timer = span::start("probe_batch");
        self.begin_probes("probe_batch");
        out.clear();
        out.reserve(probes.len());
        for &(src, dst, hose) in probes {
            let fold = self.probe_fold(src, dst, hose);
            out.push(fold_rate(fold));
        }
        drop(timer);
        self.stats.probe_batches += 1;
        self.stats.probes += probes.len() as u64;
        self.stats.probe_replay_rounds += self.solver.last_probe_replay_rounds();
        if span::enabled() {
            span::value("probe_batch_size", probes.len() as f64);
            // Resources and walks the batch had to read the log for;
            // against the batch size, the reuse the memos bought.
            span::value("probe_records_built", self.solver.last_probe_records_built() as f64);
            span::value("probe_walks_built", self.last_walks_built as f64);
            if !probes.is_empty() {
                // Amortised: rounds walked for those records, spread over
                // every candidate they served.
                let depth = self.solver.last_probe_replay_rounds() as f64 / probes.len() as f64;
                span::value("probe_replay_depth", depth);
            }
        }
    }

    /// Emulate bulk TCP throughput measurements: run a real flow for each
    /// `(src, dst, hose)` in `flows`, all at once, for `duration` (the
    /// simulation advances, so background traffic evolves) and return each
    /// flow's mean throughput in bits/s, in order. Every record is
    /// released before the call returns.
    pub fn measure_tcp_throughput(
        &mut self,
        flows: &[(NodeId, NodeId, Option<HoseId>)],
        duration: Nanos,
    ) -> Vec<f64> {
        let start = self.now;
        let keys: Vec<FlowKey> = flows
            .iter()
            .map(|&(src, dst, hose)| {
                let key = self.start_flow(src, dst, None, hose, start, u64::MAX);
                self.stop_flow_at(key, start + duration);
                key
            })
            .collect();
        self.run_until(start + duration);
        let secs = duration as f64 / 1e9;
        let rates = keys.iter().map(|&k| self.delivered_of(self.idx(k)) * 8.0 / secs).collect();
        // The stop events above fired during `run_until`, so the flows are
        // retired and their one stat is harvested: reclaim the records.
        self.release_flows(&keys);
        rates
    }

    /// Bytes of heap the per-walk probe memo holds: `32 · A²` for the
    /// route table's `A` attach nodes once a probe has sized it, 0 before.
    pub fn walk_memo_bytes(&self) -> usize {
        self.walk_folds.capacity() * std::mem::size_of::<ProbeRecord>()
    }
}
