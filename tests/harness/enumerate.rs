//! Bounded-exhaustive scheduler checking: every event sequence up to a
//! length bound over a six-symbol alphabet, replayed on a tiny cluster in
//! order of increasing length, with [`OnlineScheduler::check_invariants`]
//! after every event. The first sequence that breaks an invariant is a
//! shortest counterexample by construction. Part of the scheduler tests'
//! harness (`tests/harness/mod.rs`); `tests/short_streams.rs` includes
//! this file alone with `#[path]`.
//!
//! The cluster is a 4-host `two_rack` (1 Gbit/s 5 µs edges, 1 Gbit/s
//! 20 µs uplinks) with 4 candidate hosts, a wait queue of 2, migration and
//! drift cadences of 2 s, and seed 7. One event lands per simulated
//! second. No cadence scan moves a tenant: the 20 s migration cooldown
//! outlasts every stream, so each move is a forced one (drift or a link
//! failure).

use std::sync::Arc;

use choreo_repro::online::{
    DriftConfig, MigrationConfig, OnlineConfig, OnlineScheduler, SchedulerBuilder,
};
use choreo_repro::profile::{
    AppProfile, NetworkEvent, NetworkEventKind, TenantEvent, TenantEventKind, TenantId,
    TrafficMatrix,
};
use choreo_repro::topology::{two_rack, LinkSpec, RouteTable, Topology, GBIT, MICROS, SECS};

/// One symbol of the alphabet.
#[derive(Clone, Copy, Debug)]
pub enum Symbol {
    /// A 2-task arrival at 2.5 cores a task, task 0 sending to task 1:
    /// its tasks never share a host.
    Arrive2,
    /// A 3-task arrival at 1.5 cores a task, a chain 0 → 1 → 2.
    Arrive3,
    /// The oldest running tenant departs.
    DepartOldest,
    /// The oldest running tenant's intensity toggles between 1 and 3, so
    /// both the growth and the shrink path run.
    Toggle,
    /// Link 4, tor-0's uplink, fails.
    Fail,
    /// Link 4 recovers.
    Recover,
}

/// The alphabet, in the order sequences are enumerated.
pub const ALPHABET: [Symbol; 6] = [
    Symbol::Arrive2,
    Symbol::Arrive3,
    Symbol::DepartOldest,
    Symbol::Toggle,
    Symbol::Fail,
    Symbol::Recover,
];

/// tor-0's uplink: the two edge links of each rack come first.
const UPLINK: u32 = 4;

/// What one enumeration saw.
#[derive(Debug, PartialEq)]
pub struct Enumeration {
    /// Sequences run.
    pub runs: u64,
    /// Events stepped (a depart or toggle with no running tenant is no
    /// event).
    pub events: u64,
    /// FNV-1a fold of the trajectory digest after every event.
    pub digest: u64,
    /// Summed over every run: `[admitted, queued, queue_admitted,
    /// rejected, migrations, failure_migrations, drift_detected,
    /// intensity_changes]`.
    pub totals: [u64; 8],
}

fn fnv1a(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The cluster and the two arriving applications, shared by every run.
struct Setup {
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    cfg: OnlineConfig,
    pair: AppProfile,
    triple: AppProfile,
}

impl Setup {
    fn new() -> Self {
        let edge = LinkSpec::new(GBIT, 5 * MICROS);
        let uplink = LinkSpec::new(GBIT, 20 * MICROS);
        let topo = Arc::new(two_rack(2, edge, uplink));
        let routes = Arc::new(RouteTable::new(&topo));
        let cfg = OnlineConfig {
            candidate_hosts: 4,
            queue_capacity: 2,
            migration: MigrationConfig { cadence: Some(2 * SECS) },
            drift: DriftConfig { cadence: Some(2 * SECS) },
            ..OnlineConfig::default()
        };
        let mut m2 = TrafficMatrix::zeros(2);
        m2.set(0, 1, 800_000_000);
        let mut m3 = TrafficMatrix::zeros(3);
        m3.set(0, 1, 600_000_000);
        m3.set(1, 2, 300_000_000);
        Setup {
            topo,
            routes,
            cfg,
            pair: AppProfile::new("pair", vec![2.5; 2], m2, 0),
            triple: AppProfile::new("triple", vec![1.5; 3], m3, 0),
        }
    }

    fn scheduler(&self) -> OnlineScheduler {
        SchedulerBuilder::new(self.topo.clone(), self.routes.clone())
            .config(self.cfg.clone())
            .seed(7)
            .build()
    }
}

/// Replay `word` on a fresh scheduler, checking the invariants and
/// folding the trajectory digest into `out` after every event.
fn run_word(setup: &Setup, word: &[Symbol], out: &mut Enumeration) {
    let mut s = setup.scheduler();
    let mut arrived: Vec<TenantId> = Vec::new();
    for (i, &sym) in word.iter().enumerate() {
        let at = (i as u64 + 1) * SECS;
        let oldest = arrived.iter().copied().find(|&id| s.tenant_intensity(id).is_some());
        let tenant = |tenant, kind| TenantEvent { at, tenant, kind };
        let link = |kind| NetworkEvent { at, link: UPLINK, kind };
        match sym {
            Symbol::Arrive2 | Symbol::Arrive3 => {
                let app = if matches!(sym, Symbol::Arrive2) { &setup.pair } else { &setup.triple };
                let id = arrived.len() as TenantId;
                arrived.push(id);
                s.step(&tenant(id, TenantEventKind::Arrive { app: Box::new(app.clone()) }));
            }
            Symbol::DepartOldest => {
                let Some(id) = oldest else { continue };
                s.step(&tenant(id, TenantEventKind::Depart));
            }
            Symbol::Toggle => {
                let Some(id) = oldest else { continue };
                let intensity = if s.tenant_intensity(id) == Some(1) { 3 } else { 1 };
                s.step(&tenant(id, TenantEventKind::SetIntensity { intensity }));
            }
            Symbol::Fail => s.network_step(&link(NetworkEventKind::LinkFail)),
            Symbol::Recover => s.network_step(&link(NetworkEventKind::LinkRecover)),
        }
        s.check_invariants();
        out.events += 1;
        out.digest = fnv1a(out.digest, s.stats().trace_hash());
    }
    let st = s.stats();
    let counters = [
        st.admitted,
        st.queued,
        st.queue_admitted,
        st.rejected,
        st.migrations,
        st.failure_migrations,
        st.drift_detected,
        st.intensity_changes,
    ];
    for (total, c) in out.totals.iter_mut().zip(counters) {
        *total += c;
    }
    out.runs += 1;
}

/// Run every sequence over [`ALPHABET`] of length 1 to `k`, shorter
/// sequences first and each length in lexicographic order.
pub fn enumerate(k: usize) -> Enumeration {
    let setup = Setup::new();
    let mut out = Enumeration { runs: 0, events: 0, digest: 0xcbf2_9ce4_8422_2325, totals: [0; 8] };
    let mut word = Vec::with_capacity(k);
    for len in 1..=k {
        let count = ALPHABET.len().pow(len as u32);
        for mut code in 0..count {
            word.clear();
            for _ in 0..len {
                word.push(ALPHABET[code % ALPHABET.len()]);
                code /= ALPHABET.len();
            }
            word.reverse();
            run_word(&setup, &word, &mut out);
        }
    }
    out
}
