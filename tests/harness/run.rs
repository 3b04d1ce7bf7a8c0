//! One seeded run: build a merged service stream, replay it through an
//! [`OnlineScheduler`], and summarise where the run ended. Part of the
//! scheduler tests' harness (`tests/harness/mod.rs`); a test binary that
//! needs no golden includes this file alone with `#[path]`.

use choreo_repro::flowsim::SolveStats;
use choreo_repro::online::OnlineScheduler;
use choreo_repro::profile::{
    merge_events, NetworkEventStream, NetworkEventStreamConfig, ServiceEvent, WorkloadStream,
    WorkloadStreamConfig,
};

/// The first `n` events of the tenant stream `stream` at `seed`, merged
/// with the network stream `network` at its seed, cut at the last tenant
/// event's instant; tenant events alone when `network` is `None`.
pub fn merged(
    stream: WorkloadStreamConfig,
    seed: u64,
    n: usize,
    network: Option<(NetworkEventStreamConfig, u64)>,
) -> Vec<ServiceEvent> {
    let tenants: Vec<_> = WorkloadStream::new(stream, seed).take(n).collect();
    let horizon = tenants.last().map_or(0, |e| e.at);
    let network = network.map_or_else(Vec::new, |(cfg, seed)| {
        NetworkEventStream::new(cfg, seed).take_while(|e| e.at <= horizon).collect()
    });
    merge_events(tenants, network)
}

/// Where a replayed run ended.
#[derive(Debug, PartialEq)]
pub struct RunSummary {
    /// The scheduler's trajectory digest.
    pub trace_hash: u64,
    /// Bits of the mean departed-tenant rate; `None` if nobody departed.
    pub rate_bits: Option<u64>,
    /// `[admitted, queued, queue_admitted, rejected, migrations,
    /// failure_migrations, network_events, drift_detected]`.
    pub counters: [u64; 8],
    /// The simulator's solve and probe counts.
    pub solve: SolveStats,
}

/// Step `sched` through `events` in order, calling `after_each(sched, i)`
/// after event `i`, and summarise the run.
pub fn replay(
    sched: &mut OnlineScheduler,
    events: &[ServiceEvent],
    mut after_each: impl FnMut(&mut OnlineScheduler, usize),
) -> RunSummary {
    for (i, ev) in events.iter().enumerate() {
        sched.service_step(ev);
        after_each(sched, i);
    }
    let s = sched.stats();
    RunSummary {
        trace_hash: s.trace_hash(),
        rate_bits: s.mean_departed_rate_bps().map(f64::to_bits),
        counters: [
            s.admitted,
            s.queued,
            s.queue_admitted,
            s.rejected,
            s.migrations,
            s.failure_migrations,
            s.network_events,
            s.drift_detected,
        ],
        solve: sched.sim_mut().solve_stats(),
    }
}
