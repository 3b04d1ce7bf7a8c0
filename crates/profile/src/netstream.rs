//! Seeded network-event streams: link failures, degradations and drains.
//!
//! Choreo's motivating measurement (§4.1, fig. 7) is that cloud network
//! performance *changes* — across hours and across days — and a placement
//! that was right at admission can be wrong an epoch later. This module
//! turns that observation into a first-class, reproducible input: a
//! [`NetworkEventStream`] is a seeded, time-ordered iterator of
//! [`NetworkEvent`]s (full link failures, fractional degradations and
//! scheduled maintenance drains, each paired with its recovery) that the
//! online service merges with its tenant stream and replays into
//! `FlowSim::set_capacity`-style entry points.
//!
//! Incidents follow an **exponential inter-incident clock** (memoryless,
//! like measured failure processes) and repairs a **log-normal holding
//! time** (heavy-tailed — most repairs are quick, some drag), both drawn
//! from [`crate::dist`]. The clock's mean is configured; the repair
//! distribution ([`REPAIR_MEDIAN`], [`REPAIR_SIGMA`]) and the incident mix
//! ([`FAIL_PROB`], [`DRAIN_PROB`], [`DEGRADE_RANGE`], [`DRAIN_FRACTION`])
//! are fixed. A link never holds two incidents at once: an
//! incident drawn for a busy link is skipped, deterministically, so the
//! stream stays well-formed (every `LinkFail`/`LinkDegrade`/`DrainStart`
//! is closed by exactly one `LinkRecover`/`DrainEnd`).
//!
//! # Determinism contract for merged streams
//!
//! The stream is bit-reproducible from `(config, seed)`. When merged
//! with a tenant stream ([`merge_events`]), ordering is total: events
//! are taken in `at` order, **tenant events win ties** (a tenant must
//! exist before the network can strand it, and the rule must not depend
//! on heap or iterator internals), and within each stream the original
//! order is preserved. The merged sequence — and therefore the whole
//! service trajectory, including the solver's — is a pure function of
//! the two seeds.

use std::collections::VecDeque;

use choreo_topology::{Nanos, TimerQueue, Topology, SECS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist::{exponential, log_normal};
use crate::stream::TenantEvent;

/// What happened to a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkEventKind {
    /// The link's capacity dropped to `fraction` of nominal (0 < f < 1).
    LinkDegrade {
        /// Remaining fraction of nominal capacity.
        fraction: f64,
    },
    /// The link went down (capacity effectively zero).
    LinkFail,
    /// The link's incident ended; capacity is back to nominal.
    LinkRecover,
    /// Operator maintenance drain began: capacity cut to `fraction` of
    /// nominal while traffic is shifted away.
    DrainStart {
        /// Remaining fraction of nominal capacity during the drain.
        fraction: f64,
    },
    /// The maintenance drain ended; capacity is back to nominal.
    DrainEnd,
}

/// One event of the network stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkEvent {
    /// When the event happens.
    pub at: Nanos,
    /// Which (undirected) topology link it concerns.
    pub link: u32,
    /// What happened.
    pub kind: NetworkEventKind,
}

/// Topology-aware correlated switch failures: with this mode on, an
/// incident can take out **every free link of one agg/core switch** in a
/// single correlated instant (all `LinkFail`s share one `at`), closed by
/// one correlated recovery (all `LinkRecover`s share the switch's single
/// repair draw). The per-link incident process keeps running for the
/// remaining probability mass.
#[derive(Debug, Clone)]
pub struct SwitchFailureConfig {
    /// Link-id groups, one per switch — typically from
    /// [`switch_link_groups`]. Every id must be `< n_links`.
    pub groups: Vec<Vec<u32>>,
    /// Probability an incident is a whole-switch failure.
    pub switch_prob: f64,
}

/// Link groups per switch of a topology: for every node whose
/// [`choreo_topology::NodeKind::tier`] is at least `min_tier`
/// (2 = aggregation, 4 = core), the ids of all links incident to it.
/// Feed the result to [`SwitchFailureConfig::groups`] so one incident
/// can take a whole switch out.
pub fn switch_link_groups(topo: &Topology, min_tier: u8) -> Vec<Vec<u32>> {
    topo.nodes()
        .iter()
        .filter(|n| n.kind.tier() >= min_tier)
        .map(|n| topo.neighbors(n.id).iter().map(|&(_, lid)| lid.0).collect::<Vec<u32>>())
        .filter(|g| !g.is_empty())
        .collect()
}

/// Median incident duration, ns (≈ 20 s, heavy-tailed): the log-normal µ
/// is `REPAIR_MEDIAN.ln()`.
pub const REPAIR_MEDIAN: f64 = 20.0 * 1e9;

/// Log-normal σ of incident durations.
pub const REPAIR_SIGMA: f64 = 0.6;

/// Probability an incident is a full failure (vs degradation/drain).
pub const FAIL_PROB: f64 = 0.4;

/// Probability an incident is a maintenance drain.
pub const DRAIN_PROB: f64 = 0.2;

/// Degradations keep a uniform fraction of capacity in this range
/// (lo, hi).
pub const DEGRADE_RANGE: (f64, f64) = (0.25, 0.75);

/// Drains cut capacity to this fraction of nominal.
pub const DRAIN_FRACTION: f64 = 0.5;

const _: () = assert!(FAIL_PROB >= 0.0 && DRAIN_PROB >= 0.0 && FAIL_PROB + DRAIN_PROB <= 1.0);
const _: () =
    assert!(0.0 < DEGRADE_RANGE.0 && DEGRADE_RANGE.0 <= DEGRADE_RANGE.1 && DEGRADE_RANGE.1 < 1.0);
const _: () = assert!(0.0 < DRAIN_FRACTION && DRAIN_FRACTION < 1.0);

/// Configuration of a [`NetworkEventStream`].
#[derive(Debug, Clone)]
pub struct NetworkEventStreamConfig {
    /// Number of links incidents are drawn over (`0..n_links`).
    pub n_links: u32,
    /// Mean of the exponential inter-incident clock (across all links).
    pub mean_time_between_incidents: Nanos,
    /// Correlated whole-switch failures; `None` keeps the stream
    /// strictly per-link (and bit-identical to its pre-switch-mode
    /// trajectory).
    pub switch_failures: Option<SwitchFailureConfig>,
}

impl Default for NetworkEventStreamConfig {
    fn default() -> Self {
        NetworkEventStreamConfig {
            n_links: 1,
            mean_time_between_incidents: 60 * SECS,
            switch_failures: None,
        }
    }
}

/// Deterministic, time-ordered stream of network incidents and
/// recoveries. Implements [`Iterator`] and is infinite — cap it with
/// `take` or by event time. Equal `(config, seed)` yield identical
/// streams.
pub struct NetworkEventStream {
    cfg: NetworkEventStreamConfig,
    rng: StdRng,
    /// The next incident time, pre-drawn so it merges against the heap.
    next_incident: Nanos,
    /// Each open incident's closing event (`LinkRecover` or `DrainEnd`)
    /// on its link. Simultaneous ones pop in scheduling order, so the
    /// stream is total-ordered.
    pending: TimerQueue<(u32, NetworkEventKind)>,
    /// Links currently holding an incident (no overlapping incidents).
    busy: Vec<bool>,
    /// Remaining events of a correlated switch incident, emitted before
    /// anything else (they share the incident's `at`, which is ≤ every
    /// later draw).
    ready: VecDeque<NetworkEvent>,
}

impl NetworkEventStream {
    /// New stream; equal seeds yield identical event sequences.
    pub fn new(cfg: NetworkEventStreamConfig, seed: u64) -> Self {
        assert!(cfg.n_links >= 1, "need at least one link");
        if let Some(sf) = &cfg.switch_failures {
            assert!((0.0..=1.0).contains(&sf.switch_prob), "switch_prob in [0, 1]");
            assert!(!sf.groups.is_empty(), "switch mode needs at least one group");
            for g in &sf.groups {
                assert!(!g.is_empty(), "switch groups must be non-empty");
                assert!(g.iter().all(|&l| l < cfg.n_links), "group links inside 0..n_links");
            }
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6E65_7473); // "nets"
        let first =
            exponential(&mut rng, cfg.mean_time_between_incidents as f64).min(1e15) as Nanos;
        let busy = vec![false; cfg.n_links as usize];
        NetworkEventStream {
            cfg,
            rng,
            next_incident: first,
            pending: TimerQueue::new(),
            busy,
            ready: VecDeque::new(),
        }
    }

    fn draw_next_incident(&mut self) {
        let dt = exponential(&mut self.rng, self.cfg.mean_time_between_incidents as f64).min(1e15)
            as Nanos;
        self.next_incident = self.next_incident.saturating_add(dt.max(1));
    }

    fn draw_duration(&mut self) -> Nanos {
        log_normal(&mut self.rng, REPAIR_MEDIAN.ln(), REPAIR_SIGMA).clamp(1e6, 1e14) as Nanos
    }
}

impl Iterator for NetworkEventStream {
    type Item = NetworkEvent;

    fn next(&mut self) -> Option<NetworkEvent> {
        loop {
            // Remaining events of a correlated switch incident come
            // first: they carry the incident's `at`, which is no later
            // than any recovery or future incident.
            if let Some(e) = self.ready.pop_front() {
                return Some(e);
            }
            // Recoveries win ties against new incidents: a link must be
            // free again before it can hold the next incident, and the
            // rule must not depend on heap internals.
            if self.pending.peek_time().is_some_and(|at| at <= self.next_incident) {
                let (at, (link, kind)) = self.pending.pop().expect("peeked");
                self.busy[link as usize] = false;
                return Some(NetworkEvent { at, link, kind });
            }
            let at = self.next_incident;
            self.draw_next_incident();
            // The switch-mode draw happens before any per-link draw, so
            // a `None` switch config leaves the per-link trajectory
            // untouched.
            let switch_hit = match &self.cfg.switch_failures {
                Some(sf) => {
                    let prob = sf.switch_prob;
                    self.rng.gen_range(0.0..1.0) < prob
                }
                None => false,
            };
            if switch_hit {
                let n_groups = self.cfg.switch_failures.as_ref().expect("checked").groups.len();
                let gi = self.rng.gen_range(0..n_groups);
                // One duration draw for the whole switch: every link of
                // the incident recovers at the same instant.
                let duration = self.draw_duration();
                let group = self.cfg.switch_failures.as_ref().expect("checked").groups[gi].clone();
                let end = at.saturating_add(duration);
                for link in group {
                    if self.busy[link as usize] {
                        // Already down from an earlier incident; its
                        // existing recovery stands.
                        continue;
                    }
                    self.busy[link as usize] = true;
                    self.pending.push(end, (link, NetworkEventKind::LinkRecover));
                    self.ready.push_back(NetworkEvent {
                        at,
                        link,
                        kind: NetworkEventKind::LinkFail,
                    });
                }
                match self.ready.pop_front() {
                    Some(e) => return Some(e),
                    // Whole switch already down: skip, time advanced.
                    None => continue,
                }
            }
            let link = self.rng.gen_range(0..self.cfg.n_links);
            // Drawing the duration unconditionally keeps the RNG
            // trajectory independent of which links happen to be busy.
            let duration = self.draw_duration();
            let u: f64 = self.rng.gen_range(0.0..1.0);
            if self.busy[link as usize] {
                // Link already holds an incident: skip this draw. Time
                // strictly advanced, so the loop terminates.
                continue;
            }
            let (start, end) = if u < FAIL_PROB {
                (NetworkEventKind::LinkFail, NetworkEventKind::LinkRecover)
            } else if u < FAIL_PROB + DRAIN_PROB {
                (
                    NetworkEventKind::DrainStart { fraction: DRAIN_FRACTION },
                    NetworkEventKind::DrainEnd,
                )
            } else {
                let (lo, hi) = DEGRADE_RANGE;
                let f = lo + (hi - lo) * self.rng.gen_range(0.0..1.0);
                (NetworkEventKind::LinkDegrade { fraction: f }, NetworkEventKind::LinkRecover)
            };
            self.busy[link as usize] = true;
            self.pending.push(at.saturating_add(duration), (link, end));
            return Some(NetworkEvent { at, link, kind: start });
        }
    }
}

/// One event of a merged tenant + network service stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// A tenant arrived, changed intensity, or departed.
    Tenant(TenantEvent),
    /// A link failed, degraded, drained, or recovered.
    Network(NetworkEvent),
}

impl ServiceEvent {
    /// When the event happens.
    pub fn at(&self) -> Nanos {
        match self {
            ServiceEvent::Tenant(e) => e.at,
            ServiceEvent::Network(e) => e.at,
        }
    }
}

/// Stable `(at)`-merge of a tenant stream and a network stream, both
/// already time-ordered. **Tenant events win ties** and each stream's
/// internal order is preserved, so the result is a total order that is
/// a pure function of the two input sequences — the determinism
/// contract the service's trace hash relies on.
pub fn merge_events(tenants: Vec<TenantEvent>, network: Vec<NetworkEvent>) -> Vec<ServiceEvent> {
    let mut out = Vec::with_capacity(tenants.len() + network.len());
    let mut t = tenants.into_iter().peekable();
    let mut n = network.into_iter().peekable();
    loop {
        match (t.peek(), n.peek()) {
            (Some(te), Some(ne)) => {
                if te.at <= ne.at {
                    out.push(ServiceEvent::Tenant(t.next().expect("peeked")));
                } else {
                    out.push(ServiceEvent::Network(n.next().expect("peeked")));
                }
            }
            (Some(_), None) => out.push(ServiceEvent::Tenant(t.next().expect("peeked"))),
            (None, Some(_)) => out.push(ServiceEvent::Network(n.next().expect("peeked"))),
            (None, None) => return out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{WorkloadStream, WorkloadStreamConfig};
    use crate::synth::WorkloadGenConfig;

    fn cfg() -> NetworkEventStreamConfig {
        NetworkEventStreamConfig {
            n_links: 8,
            mean_time_between_incidents: 10 * SECS,
            ..Default::default()
        }
    }

    #[test]
    fn defaults_are_sane() {
        // No `..`: a new field fails to compile here until its default
        // is checked.
        let NetworkEventStreamConfig { n_links, mean_time_between_incidents, switch_failures } =
            NetworkEventStreamConfig::default();
        assert_eq!(n_links, 1);
        assert_eq!(mean_time_between_incidents, 60 * SECS);
        assert!(switch_failures.is_none());
    }

    #[test]
    fn stream_is_time_ordered_and_deterministic() {
        let a: Vec<NetworkEvent> = NetworkEventStream::new(cfg(), 7).take(400).collect();
        let b: Vec<NetworkEvent> = NetworkEventStream::new(cfg(), 7).take(400).collect();
        assert_eq!(a, b, "same seed, same stream");
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "events in time order");
        }
        let c: Vec<NetworkEvent> = NetworkEventStream::new(cfg(), 8).take(400).collect();
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn incidents_are_well_formed_and_never_overlap() {
        let events: Vec<NetworkEvent> = NetworkEventStream::new(cfg(), 3).take(600).collect();
        let mut open: Vec<Option<bool>> = vec![None; 8]; // Some(drain?) while down
        let mut starts = 0usize;
        let mut fails = 0usize;
        let mut degrades = 0usize;
        let mut drains = 0usize;
        for e in &events {
            let slot = &mut open[e.link as usize];
            match e.kind {
                NetworkEventKind::LinkFail => {
                    assert!(slot.is_none(), "no overlapping incidents");
                    *slot = Some(false);
                    starts += 1;
                    fails += 1;
                }
                NetworkEventKind::LinkDegrade { fraction } => {
                    assert!(slot.is_none(), "no overlapping incidents");
                    assert!((0.25..0.75).contains(&fraction), "fraction {fraction}");
                    *slot = Some(false);
                    starts += 1;
                    degrades += 1;
                }
                NetworkEventKind::DrainStart { fraction } => {
                    assert!(slot.is_none(), "no overlapping incidents");
                    assert_eq!(fraction, 0.5);
                    *slot = Some(true);
                    starts += 1;
                    drains += 1;
                }
                NetworkEventKind::LinkRecover => {
                    assert_eq!(*slot, Some(false), "recover closes a fail/degrade");
                    *slot = None;
                }
                NetworkEventKind::DrainEnd => {
                    assert_eq!(*slot, Some(true), "drain end closes a drain");
                    *slot = None;
                }
            }
        }
        assert!(starts > 100, "long streams see real churn: {starts}");
        assert!(fails > 0 && degrades > 0 && drains > 0, "{fails}/{degrades}/{drains}");
    }

    #[test]
    fn switch_incidents_fail_and_recover_whole_groups_together() {
        let groups = vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7]];
        let scfg = NetworkEventStreamConfig {
            switch_failures: Some(SwitchFailureConfig { groups: groups.clone(), switch_prob: 1.0 }),
            ..cfg()
        };
        let events: Vec<NetworkEvent> =
            NetworkEventStream::new(scfg.clone(), 9).take(400).collect();
        assert_eq!(
            events,
            NetworkEventStream::new(scfg, 9).take(400).collect::<Vec<_>>(),
            "deterministic"
        );
        // Every incident is all-LinkFail (switch_prob = 1); each
        // same-instant fail burst must stay inside one switch group and
        // never overlap an open incident on any of its links.
        let mut down = [false; 8];
        let mut correlated_incidents = 0usize;
        let mut i = 0;
        while i < events.len() {
            let e = events[i];
            match e.kind {
                NetworkEventKind::LinkFail => {
                    // Collect the full same-instant fail burst.
                    let mut burst = vec![e.link];
                    while i + 1 < events.len()
                        && events[i + 1].at == e.at
                        && matches!(events[i + 1].kind, NetworkEventKind::LinkFail)
                    {
                        i += 1;
                        burst.push(events[i].link);
                    }
                    let owner = groups
                        .iter()
                        .find(|g| g.contains(&burst[0]))
                        .expect("fail hits a known group");
                    assert!(
                        burst.iter().all(|l| owner.contains(l)),
                        "burst stays inside one switch: {burst:?}"
                    );
                    for &l in &burst {
                        assert!(!down[l as usize], "no overlapping incidents");
                        down[l as usize] = true;
                    }
                    if burst.len() > 1 {
                        correlated_incidents += 1;
                    }
                }
                NetworkEventKind::LinkRecover => {
                    assert!(down[e.link as usize], "recover closes a fail");
                    down[e.link as usize] = false;
                }
                other => panic!("switch_prob = 1 emits only fails/recoveries: {other:?}"),
            }
            i += 1;
        }
        assert!(correlated_incidents > 20, "correlated incidents fired: {correlated_incidents}");
    }

    #[test]
    fn switch_recoveries_share_one_instant_per_incident() {
        let scfg = NetworkEventStreamConfig {
            switch_failures: Some(SwitchFailureConfig {
                groups: vec![vec![0, 1, 2, 3]],
                switch_prob: 1.0,
            }),
            // Rare incidents + quick repairs: incidents never overlap,
            // so each burst's recoveries are easy to pair up.
            mean_time_between_incidents: 1000 * SECS,
            ..cfg()
        };
        let events: Vec<NetworkEvent> = NetworkEventStream::new(scfg, 21).take(200).collect();
        let mut fail_at: Option<Nanos> = None;
        let mut recover_at: Option<Nanos> = None;
        for e in &events {
            match e.kind {
                NetworkEventKind::LinkFail => {
                    if let Some(at) = fail_at {
                        assert_eq!(at, e.at, "burst fails share one instant");
                    } else {
                        fail_at = Some(e.at);
                        recover_at = None;
                    }
                }
                NetworkEventKind::LinkRecover => {
                    if let Some(at) = recover_at {
                        assert_eq!(at, e.at, "burst recoveries share one instant");
                    } else {
                        recover_at = Some(e.at);
                        fail_at = None;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn switch_link_groups_collects_agg_and_core_links() {
        let topo = choreo_topology::MultiRootedTreeSpec::default().build();
        let groups = switch_link_groups(&topo, 2);
        assert!(!groups.is_empty(), "tree has agg/core switches");
        let link_count = topo.link_count() as u32;
        for g in &groups {
            assert!(!g.is_empty());
            assert!(g.iter().all(|&l| l < link_count));
        }
        // Tier >= 2 excludes host and ToR uplink-only nodes: every group
        // belongs to a switch above the ToR layer.
        let n_upper = topo.nodes().iter().filter(|n| n.kind.tier() >= 2).count();
        assert_eq!(groups.len(), n_upper);
    }

    #[test]
    fn merge_is_time_ordered_tenants_win_ties_and_orders_preserved() {
        let tcfg = WorkloadStreamConfig {
            gen: WorkloadGenConfig { mean_interarrival: 5 * SECS, ..Default::default() },
            ..Default::default()
        };
        let tenants: Vec<TenantEvent> = WorkloadStream::new(tcfg, 7).take(200).collect();
        let network: Vec<NetworkEvent> = NetworkEventStream::new(cfg(), 7).take(200).collect();
        let merged = merge_events(tenants.clone(), network.clone());
        assert_eq!(merged.len(), 400);
        for w in merged.windows(2) {
            assert!(w[0].at() <= w[1].at(), "merged stream in time order");
            if w[0].at() == w[1].at() {
                // Tenants win ties: never a network event before a
                // tenant event at the same instant.
                assert!(
                    !(matches!(w[0], ServiceEvent::Network(_))
                        && matches!(w[1], ServiceEvent::Tenant(_))),
                    "tenant events win ties"
                );
            }
        }
        let t_back: Vec<&TenantEvent> = merged
            .iter()
            .filter_map(|e| match e {
                ServiceEvent::Tenant(t) => Some(t),
                _ => None,
            })
            .collect();
        let n_back: Vec<&NetworkEvent> = merged
            .iter()
            .filter_map(|e| match e {
                ServiceEvent::Network(n) => Some(n),
                _ => None,
            })
            .collect();
        assert!(t_back.iter().zip(&tenants).all(|(a, b)| **a == *b), "tenant order preserved");
        assert!(n_back.iter().zip(&network).all(|(a, b)| **a == *b), "network order preserved");
    }
}
