//! Seeded multi-tenant event streams for the online placement service.
//!
//! The paper frames Choreo's workflow per application, but its evaluation
//! world is a shared cloud under churn: tenants arrive, run for a while,
//! change how hard they drive the network, and leave. [`WorkloadStream`]
//! turns the [`crate::synth::WorkloadGen`] application synthesizer into
//! that world — a single time-ordered stream of [`TenantEvent`]s
//! (arrival with a profiled traffic matrix, intensity changes over the
//! tenant's lifetime, departure) that is reproducible bit-for-bit from
//! its seed, so a whole service run can be replayed or diffed.
//!
//! Arrival times come from the generator's diurnally modulated Poisson
//! process; tenant lifetimes are log-normal (heavy-tailed, like measured
//! cloud allocations) with a fixed two-minute median ([`LIFETIME_MEDIAN`],
//! [`LIFETIME_SIGMA`]) and intensity changes follow an exponential clock
//! within the lifetime.

use choreo_topology::{Nanos, TimerQueue, SECS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::app::AppProfile;
use crate::dist::{exponential, log_normal};
use crate::synth::{WorkloadGen, WorkloadGenConfig};

/// Stable identifier of a tenant within one stream (dense, from 0).
pub type TenantId = u64;

/// What happened to a tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantEventKind {
    /// The tenant arrived with a profiled application to place.
    Arrive {
        /// The application profile (tasks, CPU, traffic matrix).
        app: Box<AppProfile>,
    },
    /// The tenant changed how many concurrent connections it drives per
    /// transfer (1 = one bulk connection per transfer).
    SetIntensity {
        /// New connections-per-transfer multiplicity, ≥ 1.
        intensity: u32,
    },
    /// The tenant left; its tasks and flows should be torn down.
    Depart,
}

/// One event of the service-facing tenant stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantEvent {
    /// When the event happens.
    pub at: Nanos,
    /// Which tenant it concerns.
    pub tenant: TenantId,
    /// What happened.
    pub kind: TenantEventKind,
}

/// Median tenant lifetime, ns: the log-normal µ is `LIFETIME_MEDIAN.ln()`.
pub const LIFETIME_MEDIAN: f64 = 120.0 * 1e9;

/// Log-normal σ of tenant lifetimes.
pub const LIFETIME_SIGMA: f64 = 0.7;

/// Configuration of a [`WorkloadStream`].
#[derive(Debug, Clone)]
pub struct WorkloadStreamConfig {
    /// Application synthesis knobs (task counts, matrix shapes, the
    /// arrival process mean). See [`WorkloadGenConfig`].
    pub gen: WorkloadGenConfig,
    /// Mean time between a tenant's intensity changes.
    pub mean_intensity_change: Nanos,
    /// Intensities are drawn uniformly from `1..=max_intensity`.
    pub max_intensity: u32,
}

impl Default for WorkloadStreamConfig {
    fn default() -> Self {
        WorkloadStreamConfig {
            gen: WorkloadGenConfig::default(),
            mean_intensity_change: 30 * SECS,
            max_intensity: 3,
        }
    }
}

/// A scheduled (non-arrival) tenant event.
#[derive(Debug, Clone, Copy)]
enum PendingKind {
    IntensityChange,
    Depart,
}

/// Deterministic, time-ordered stream of tenant events.
///
/// Implements [`Iterator`]; the stream is infinite (cap it with `take`
/// or by event time). Equal seeds and configs yield identical streams.
pub struct WorkloadStream {
    cfg: WorkloadStreamConfig,
    gen: WorkloadGen,
    rng: StdRng,
    /// The next arrival, pre-drawn so it can be merged against the heap.
    next_arrival: Option<(Nanos, AppProfile)>,
    /// Scheduled intensity changes and departures. Simultaneous ones pop
    /// in scheduling order, so the merge with the arrival process is
    /// total and deterministic.
    pending: TimerQueue<(TenantId, PendingKind)>,
    next_tenant: TenantId,
    /// Departure time per tenant id — intensity changes are only ever
    /// scheduled strictly before it, so a tenant's stream is always
    /// `Arrive … changes … Depart`.
    depart_at: Vec<Nanos>,
}

impl WorkloadStream {
    /// New stream; equal seeds yield identical event sequences.
    pub fn new(cfg: WorkloadStreamConfig, seed: u64) -> Self {
        assert!(cfg.max_intensity >= 1, "intensities start at 1");
        let gen = WorkloadGen::new(cfg.gen.clone(), seed ^ 0x9E37_79B9);
        let mut s = WorkloadStream {
            cfg,
            gen,
            rng: StdRng::seed_from_u64(seed),
            next_arrival: None,
            pending: TimerQueue::new(),
            next_tenant: 0,
            depart_at: Vec::new(),
        };
        s.draw_arrival();
        s
    }

    fn draw_arrival(&mut self) {
        let app = self.gen.next_app();
        self.next_arrival = Some((app.start_time, app));
    }

    /// Schedule a freshly arrived tenant's lifetime: departure plus an
    /// exponential clock of intensity changes inside it.
    fn schedule_lifetime(&mut self, tenant: TenantId, at: Nanos) {
        let life = log_normal(&mut self.rng, LIFETIME_MEDIAN.ln(), LIFETIME_SIGMA).clamp(1e9, 1e14)
            as Nanos;
        let depart = at + life;
        debug_assert_eq!(self.depart_at.len(), tenant as usize);
        self.depart_at.push(depart);
        if self.cfg.max_intensity > 1 {
            let first = at
                + exponential(&mut self.rng, self.cfg.mean_intensity_change as f64).min(1e15)
                    as Nanos;
            if first < depart {
                self.pending.push(first, (tenant, PendingKind::IntensityChange));
            }
        }
        self.pending.push(depart, (tenant, PendingKind::Depart));
    }
}

impl Iterator for WorkloadStream {
    type Item = TenantEvent;

    fn next(&mut self) -> Option<TenantEvent> {
        let arrival_at = self.next_arrival.as_ref().map(|(at, _)| *at).expect("pre-drawn");
        // Arrivals win ties against scheduled events: a tenant must exist
        // before anything can happen to it, and the ordering must not
        // depend on heap internals.
        if self.pending.peek_time().is_none_or(|at| arrival_at <= at) {
            let (at, app) = self.next_arrival.take().expect("pre-drawn");
            self.draw_arrival();
            let tenant = self.next_tenant;
            self.next_tenant += 1;
            self.schedule_lifetime(tenant, at);
            return Some(TenantEvent {
                at,
                tenant,
                kind: TenantEventKind::Arrive { app: Box::new(app) },
            });
        }
        let (at, (tenant, kind)) = self.pending.pop().expect("peeked");
        match kind {
            PendingKind::Depart => Some(TenantEvent { at, tenant, kind: TenantEventKind::Depart }),
            PendingKind::IntensityChange => {
                let intensity = self.rng.gen_range(1..=self.cfg.max_intensity);
                let dt = exponential(&mut self.rng, self.cfg.mean_intensity_change as f64).min(1e15)
                    as Nanos;
                let depart = self.depart_at[tenant as usize];
                debug_assert!(at < depart, "changes are scheduled before departure");
                if at.saturating_add(dt) < depart {
                    self.pending.push(at + dt, (tenant, PendingKind::IntensityChange));
                }
                Some(TenantEvent { at, tenant, kind: TenantEventKind::SetIntensity { intensity } })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WorkloadStreamConfig {
        WorkloadStreamConfig {
            gen: WorkloadGenConfig { mean_interarrival: 5 * SECS, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn defaults_are_sane() {
        // No `..`: a new field fails to compile here until its default
        // is checked.
        let WorkloadStreamConfig { gen, mean_intensity_change, max_intensity } =
            WorkloadStreamConfig::default();
        assert_eq!(format!("{gen:?}"), format!("{:?}", WorkloadGenConfig::default()));
        assert_eq!(mean_intensity_change, 30 * SECS);
        assert_eq!(max_intensity, 3);
    }

    #[test]
    fn stream_is_time_ordered_and_deterministic() {
        let a: Vec<TenantEvent> = WorkloadStream::new(cfg(), 7).take(300).collect();
        let b: Vec<TenantEvent> = WorkloadStream::new(cfg(), 7).take(300).collect();
        assert_eq!(a, b, "same seed, same stream");
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "events in time order");
        }
        let c: Vec<TenantEvent> = WorkloadStream::new(cfg(), 8).take(300).collect();
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn lifecycles_are_well_formed() {
        let events: Vec<TenantEvent> = WorkloadStream::new(cfg(), 3).take(500).collect();
        let mut arrived = std::collections::HashSet::new();
        let mut departed = std::collections::HashSet::new();
        for e in &events {
            match &e.kind {
                TenantEventKind::Arrive { app } => {
                    assert!(arrived.insert(e.tenant), "tenant arrives once");
                    assert!(app.n_tasks() >= 2);
                }
                TenantEventKind::SetIntensity { intensity } => {
                    assert!(arrived.contains(&e.tenant), "change after arrival");
                    assert!(!departed.contains(&e.tenant), "change before departure");
                    assert!((1..=3).contains(intensity));
                }
                TenantEventKind::Depart => {
                    assert!(arrived.contains(&e.tenant), "depart after arrival");
                    assert!(departed.insert(e.tenant), "tenant departs once");
                }
            }
        }
        assert!(departed.len() > 10, "long streams see real churn: {}", departed.len());
    }

    #[test]
    fn single_intensity_config_emits_no_changes() {
        let cfg = WorkloadStreamConfig { max_intensity: 1, ..cfg() };
        let events: Vec<TenantEvent> = WorkloadStream::new(cfg, 1).take(200).collect();
        assert!(events.iter().all(|e| !matches!(e.kind, TenantEventKind::SetIntensity { .. })));
    }
}
