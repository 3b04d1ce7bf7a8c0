//! One seeded run: build a merged service stream, replay it through an
//! [`OnlineScheduler`], and summarise where the run ended. Part of the
//! scheduler tests' harness (`tests/harness/mod.rs`); a test binary that
//! needs no golden includes this file alone with `#[path]`.

use choreo_repro::flowsim::SolveStats;
use choreo_repro::online::{Decision, DecisionKind, OnlineScheduler, ServiceStats};
use choreo_repro::profile::{
    merge_events, NetworkEventStream, NetworkEventStreamConfig, ServiceEvent, TenantEventKind,
    WorkloadStream, WorkloadStreamConfig,
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
    /// The per-event observation: an FNV-1a fold, event by event, of the
    /// number of decisions the event pushed, each of those decisions as
    /// [`Decision::to_json`] renders it, and the placement of each decided
    /// tenant that is still running. Unlike `trace_hash` it sees causes,
    /// gains, drift errors and pass values.
    pub decisions: u64,
}

/// Step `sched` through `events` in order, calling
/// `after_each(sched, i, outcomes)` after event `i`, and summarise the
/// run. A hook that drives `sched` itself pushes each of its calls'
/// outcomes onto `outcomes`; event `i + 1`'s observation folds them
/// followed by the event's own outcome, so a hook that advances the
/// clock ahead of the next event moves no decision to another event.
/// After every arrival, the event's outcome must end with its one
/// verdict: exactly one decision for the tenant of kind `Admit`,
/// `Queue`, `Reject`, `FailureReject` or `Duplicate`, and it is the last.
/// After every event and at the end, every decision counter must have
/// moved since the call began by the decisions seen of its kinds
/// ([`check_counters`]).
pub fn replay(
    sched: &mut OnlineScheduler,
    events: &[ServiceEvent],
    mut after_each: impl FnMut(&mut OnlineScheduler, usize, &mut Vec<Decision>),
) -> RunSummary {
    let start = sched.stats().clone();
    let mut tally = [0; KINDS];
    let mut decisions = FNV_OFFSET;
    let mut outcomes = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let outcome = sched.service_step(ev);
        if let ServiceEvent::Tenant(t) = ev {
            if matches!(t.kind, TenantEventKind::Arrive { .. }) {
                check_arrival_verdict(outcome, t.tenant, i);
            }
        }
        outcomes.extend_from_slice(outcome);
        outcomes.iter().for_each(|d| tally[d.kind as usize] += 1);
        check_counters(&start, sched.stats(), &tally, format_args!("event {i}"));
        decisions = observe(sched, decisions, &outcomes);
        outcomes.clear();
        after_each(sched, i, &mut outcomes);
    }
    outcomes.iter().for_each(|d| tally[d.kind as usize] += 1);
    check_counters(&start, sched.stats(), &tally, format_args!("the end"));
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
        decisions,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Panic unless `outcome`, event `i`'s, holds exactly one verdict for
/// the arriving `tenant` and ends with it.
fn check_arrival_verdict(outcome: &[Decision], tenant: u64, i: usize) {
    use DecisionKind::{Admit, Duplicate, FailureReject, Queue, Reject};
    let verdict = |d: &Decision| {
        d.tenant == tenant && matches!(d.kind, Admit | Queue | Reject | FailureReject | Duplicate)
    };
    let verdicts = outcome.iter().filter(|d| verdict(d)).count();
    assert_eq!(verdicts, 1, "event {i}: tenant {tenant}'s arrival decided {outcome:?}");
    assert!(outcome.last().is_some_and(verdict), "event {i}: {outcome:?} ends with the verdict");
}

/// How many `DecisionKind`s there are.
const KINDS: usize = DecisionKind::FailureReject as usize + 1;

/// Panic unless every decision counter of `now` has moved from `start` by
/// the count in `tally` (decisions seen, by `DecisionKind as usize`) of
/// the kinds it counts: one kind each, except that a `FailureReject` is
/// also a rejection and a `ForcedMigration` also a migration.
fn check_counters(
    start: &ServiceStats,
    now: &ServiceStats,
    tally: &[u64; KINDS],
    at: std::fmt::Arguments,
) {
    use DecisionKind::*;
    let n = |k: DecisionKind| tally[k as usize];
    let moved = |f: fn(&ServiceStats) -> u64| f(now) - f(start);
    let counters = [
        ("admitted", moved(|s| s.admitted), n(Admit)),
        ("queued", moved(|s| s.queued), n(Queue)),
        ("queue_admitted", moved(|s| s.queue_admitted), n(QueueAdmit)),
        ("duplicate_arrivals", moved(|s| s.duplicate_arrivals), n(Duplicate)),
        ("departures", moved(|s| s.departures), n(Depart)),
        ("intensity_changes", moved(|s| s.intensity_changes), n(Intensity)),
        ("migration_passes", moved(|s| s.migration_passes), n(MigrationPass)),
        ("network_events", moved(|s| s.network_events), n(NetworkEvent)),
        ("drift_detected", moved(|s| s.drift_detected), n(DriftDetected)),
        ("rejected", moved(|s| s.rejected), n(Reject) + n(FailureReject)),
        ("failure_rejections", moved(|s| s.failure_rejections), n(FailureReject)),
        ("migrations", moved(|s| s.migrations), n(Migrate) + n(ForcedMigration)),
        ("failure_migrations", moved(|s| s.failure_migrations), n(ForcedMigration)),
    ];
    for (name, moved, seen) in counters {
        assert_eq!(moved, seen, "{at}: `{name}` moved {moved}, the outcomes hold {seen}");
    }
}

/// Fold `outcomes` — the decisions made since the last observation —
/// with the placement of each decided tenant that is still running.
fn observe(sched: &OnlineScheduler, mut digest: u64, outcomes: &[Decision]) -> u64 {
    digest = fnv1a(digest, outcomes.len() as u64);
    for d in outcomes {
        for b in d.to_json().bytes() {
            digest = fnv1a(digest, b as u64);
        }
        if let Some(p) = sched.tenant_placement(d.tenant) {
            digest = fnv1a(digest, p.assignment.len() as u64);
            for &h in &p.assignment {
                digest = fnv1a(digest, h as u64);
            }
        }
    }
    digest
}
