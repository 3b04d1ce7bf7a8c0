//! Service counters, the deterministic trajectory digest, the
//! per-decision record the scheduler's calls return, and the bounded
//! ring a reader keeps the most recent decisions in.

use choreo_profile::TenantId;
use choreo_topology::Nanos;

/// What the service decided at one point of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Tenant admitted straight from its arrival.
    Admit,
    /// Tenant parked in the wait queue.
    Queue,
    /// Queued tenant admitted by a departure retry.
    QueueAdmit,
    /// Arrival rejected (queue full).
    Reject,
    /// Arrival ignored: the tenant id is already running or queued
    /// (at-least-once delivery hardening).
    Duplicate,
    /// Tenant departed.
    Depart,
    /// Running tenant changed its intensity.
    Intensity,
    /// Migration planner moved the tenant.
    Migrate,
    /// A cluster-wide migration pass ran (tenant is `u64::MAX`).
    MigrationPass,
    /// A link failed, degraded, drained or recovered (tenant is
    /// `u64::MAX`; value is the remaining capacity fraction on that
    /// link — 0 for failures, 1 for recoveries).
    NetworkEvent,
    /// The re-measurement pass found the tenant's epoch-over-epoch
    /// score moved more than the drift threshold (value is the
    /// relative error).
    DriftDetected,
    /// The tenant was moved by a pass it was *forced* into — drift or
    /// link failure routed it to the planner ahead of the cadence.
    ForcedMigration,
    /// Arrival rejected while the cluster had failed links: capacity
    /// was genuinely gone, not merely queued away.
    FailureReject,
}

impl DecisionKind {
    /// Stable snake_case name used by the JSONL trace export.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionKind::Admit => "admit",
            DecisionKind::Queue => "queue",
            DecisionKind::QueueAdmit => "queue_admit",
            DecisionKind::Reject => "reject",
            DecisionKind::Duplicate => "duplicate",
            DecisionKind::Depart => "depart",
            DecisionKind::Intensity => "intensity",
            DecisionKind::Migrate => "migrate",
            DecisionKind::MigrationPass => "migration_pass",
            DecisionKind::NetworkEvent => "network_event",
            DecisionKind::DriftDetected => "drift_detected",
            DecisionKind::ForcedMigration => "forced_migration",
            DecisionKind::FailureReject => "failure_reject",
        }
    }
}

/// Why an arrival was turned away ([`Cause::Reject`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The wait queue was at capacity.
    QueueFull,
    /// Links were down: the capacity was genuinely gone.
    LinksDown,
}

impl RejectReason {
    /// Stable snake_case name used by the JSONL trace export.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::LinksDown => "links_down",
        }
    }
}

/// *Why* a decision fired — the threshold arithmetic behind it, carried
/// alongside the headline value so a trace reader can re-derive the
/// verdict. Purely trace metadata: causes live only in the returned
/// [`Decision`]s, never in the trajectory digest, so attaching them
/// cannot fork a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cause {
    /// Drift detection: the last-epoch relative error against the
    /// threshold it exceeded.
    Drift {
        /// Epoch-over-epoch relative error observed.
        error: f64,
        /// The drift threshold it was compared against,
        /// [`DRIFT_THRESHOLD`](crate::config::DRIFT_THRESHOLD).
        threshold: f64,
    },
    /// A migration cleared the hysteresis bar: the predicted gain
    /// against the minimum-improvement margin it had to beat.
    Hysteresis {
        /// Predicted-over-current score ratio of the executed move.
        gain: f64,
        /// The planner's hysteresis margin,
        /// [`MIN_IMPROVEMENT`](crate::config::MIN_IMPROVEMENT).
        min_improvement: f64,
    },
    /// An arrival was rejected, and why.
    Reject(RejectReason),
}

impl Cause {
    fn write_json(self, out: &mut String) {
        match self {
            Cause::Drift { error, threshold } => {
                out.push_str(&format!(
                    "{{\"type\":\"drift\",\"error\":{},\"threshold\":{}}}",
                    json_f64(error),
                    json_f64(threshold)
                ));
            }
            Cause::Hysteresis { gain, min_improvement } => {
                out.push_str(&format!(
                    "{{\"type\":\"hysteresis\",\"gain\":{},\"min_improvement\":{}}}",
                    json_f64(gain),
                    json_f64(min_improvement)
                ));
            }
            Cause::Reject(reason) => {
                out.push_str(&format!(
                    "{{\"type\":\"reject\",\"reason\":\"{}\"}}",
                    reason.as_str()
                ));
            }
        }
    }
}

/// A finite float as a JSON number; non-finite values become `null`
/// (JSON has no Inf/NaN).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// One entry of the decision trace: when, who, what, and the decision's
/// headline number (baseline score for placements, departure score for
/// departures, new intensity for load changes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Simulated (or service-clock) time of the decision.
    pub at: Nanos,
    /// Tenant the decision concerns (`u64::MAX` for cluster-wide ones).
    pub tenant: TenantId,
    /// What was decided.
    pub kind: DecisionKind,
    /// Decision-specific value (see the struct docs).
    pub value: f64,
    /// The threshold arithmetic behind the decision, where one exists
    /// (drift errors, hysteresis margins, rejection reasons).
    pub cause: Option<Cause>,
}

impl Decision {
    /// One-line JSON object: `at`, `tenant` (`null` for cluster-wide
    /// decisions), `kind`, `value` (`null` when non-finite) and `cause`
    /// (omitted when absent).
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"at\":{},\"tenant\":", self.at);
        if self.tenant == u64::MAX {
            s.push_str("null");
        } else {
            s.push_str(&self.tenant.to_string());
        }
        s.push_str(&format!(
            ",\"kind\":\"{}\",\"value\":{}",
            self.kind.as_str(),
            json_f64(self.value)
        ));
        if let Some(c) = self.cause {
            s.push_str(",\"cause\":");
            c.write_json(&mut s);
        }
        s.push('}');
        s
    }
}

/// A bounded ring of the most recent [`Decision`]s — the service's
/// flight recorder, filled from the outcomes the scheduler's calls
/// return. Contents are a pure function of the decision stream (no
/// wall-clock anywhere), so two bit-identical runs carry identical rings.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRing {
    buf: Vec<Decision>,
    capacity: usize,
    /// All-time decisions pushed (`buf` keeps the last `capacity`).
    total: u64,
}

impl TraceRing {
    /// Ring keeping the last `capacity` decisions (at least 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing { buf: Vec::new(), capacity: capacity.max(1), total: 0 }
    }

    /// Record one decision, overwriting the oldest once the ring is full.
    pub fn push(&mut self, d: Decision) {
        if self.buf.len() < self.capacity {
            self.buf.push(d);
        } else {
            self.buf[(self.total % self.capacity as u64) as usize] = d;
        }
        self.total += 1;
    }

    /// All-time decisions recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Retained capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained decisions, oldest first.
    pub fn recent(&self) -> Vec<Decision> {
        if self.buf.len() < self.capacity {
            return self.buf.clone();
        }
        let split = (self.total % self.capacity as u64) as usize;
        let mut out = Vec::with_capacity(self.capacity);
        out.extend_from_slice(&self.buf[split..]);
        out.extend_from_slice(&self.buf[..split]);
        out
    }

    /// The most recent `n` retained decisions as JSON Lines, oldest
    /// first, one [`Decision::to_json`] object per line (trailing
    /// newline included; empty string for an empty ring). The `/trace`
    /// endpoint and the `GetTrace` wire op render exactly this.
    pub fn to_jsonl(&self, n: usize) -> String {
        let recent = self.recent();
        let skip = recent.len().saturating_sub(n);
        let mut out = String::new();
        for d in &recent[skip..] {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    }
}

/// Counters of one service run plus a running FNV-1a digest of every
/// decision the service makes (admissions with their placements, queue
/// verdicts, migrations, departure rates). Two runs with equal digests
/// made bit-identical decisions — the property the determinism suite
/// checks across repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Tenant events consumed.
    pub events: u64,
    /// Tenants admitted straight from their arrival.
    pub admitted: u64,
    /// Tenants parked in the wait queue at arrival.
    pub queued: u64,
    /// Queued tenants later admitted by a departure retry.
    pub queue_admitted: u64,
    /// Arrivals rejected because the queue was full.
    pub rejected: u64,
    /// Departures that tore real state down (a running tenant's flows,
    /// or a queued tenant's wait-queue slot). A Depart for a tenant that
    /// was rejected at arrival is a digested no-op, not a departure.
    pub departures: u64,
    /// Intensity-change events applied to running tenants.
    pub intensity_changes: u64,
    /// Migration-planner passes executed.
    pub migration_passes: u64,
    /// Tenants actually moved by the planner.
    pub migrations: u64,
    /// Departed tenants with a recorded service rate.
    pub departed: u64,
    /// Arrivals ignored because the tenant id was already running or
    /// queued (duplicate delivery).
    pub duplicate_arrivals: u64,
    /// Network events consumed (failures, degradations, drains,
    /// recoveries).
    pub network_events: u64,
    /// Re-measurement passes executed.
    pub measurement_passes: u64,
    /// Drift detections: a tenant's epoch-over-epoch score moved more
    /// than the configured threshold.
    pub drift_detected: u64,
    /// Tenants moved by a forced (drift- or failure-triggered) pass.
    pub failure_migrations: u64,
    /// Arrivals rejected while links were down (capacity truly gone).
    pub failure_rejections: u64,
    /// Greedy placement attempts skipped because the tenant's tasks
    /// provably cannot be packed onto the candidate hosts' free CPU
    /// ([`choreo_place::cpu_packing`]). Not digested: a skipped attempt
    /// is one that would have failed, and failures digest nothing.
    pub unpackable_skips: u64,
    /// Greedy placement attempts whose packing check ran out of its node
    /// budget and so went on to the placer. Not digested.
    pub pack_undecided: u64,
    rate_sum_bps: f64,
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats {
            events: 0,
            admitted: 0,
            queued: 0,
            queue_admitted: 0,
            rejected: 0,
            departures: 0,
            intensity_changes: 0,
            migration_passes: 0,
            migrations: 0,
            departed: 0,
            duplicate_arrivals: 0,
            network_events: 0,
            measurement_passes: 0,
            drift_detected: 0,
            failure_migrations: 0,
            failure_rejections: 0,
            unpackable_skips: 0,
            pack_undecided: 0,
            rate_sum_bps: 0.0,
            hash: FNV_OFFSET,
        }
    }
}

impl ServiceStats {
    /// Fold a word into the trajectory digest.
    pub(crate) fn note(&mut self, word: u64) {
        let mut h = self.hash;
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
    }

    /// Fold a float (by bit pattern) into the trajectory digest.
    pub(crate) fn note_f64(&mut self, x: f64) {
        self.note(x.to_bits());
    }

    /// Record a departed tenant's mean service rate.
    pub(crate) fn record_departed_rate(&mut self, rate_bps: f64) {
        self.departed += 1;
        self.rate_sum_bps += rate_bps;
        self.note_f64(rate_bps);
    }

    /// Digest of every decision made so far. Equal digests ⇔ equal
    /// trajectories (placements, queue verdicts, migrations, rates).
    pub fn trace_hash(&self) -> u64 {
        self.hash
    }

    /// Mean service rate over departed tenants (`None` before the first
    /// departure) — the quality headline the perf ledger compares
    /// between the greedy and random policies (`rate_gain`).
    pub fn mean_departed_rate_bps(&self) -> Option<f64> {
        if self.departed == 0 {
            None
        } else {
            Some(self.rate_sum_bps / self.departed as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_tracks_decision_stream() {
        let mut a = ServiceStats::default();
        let mut b = ServiceStats::default();
        assert_eq!(a.trace_hash(), b.trace_hash());
        a.note(1);
        a.note(2);
        b.note(1);
        assert_ne!(a.trace_hash(), b.trace_hash(), "prefixes differ");
        b.note(2);
        assert_eq!(a.trace_hash(), b.trace_hash(), "same stream, same digest");
        // Order matters.
        let mut c = ServiceStats::default();
        c.note(2);
        c.note(1);
        assert_ne!(a.trace_hash(), c.trace_hash());
    }

    /// A decision at `at` for tenant `at`, valued `at`.
    fn admit(at: u64) -> Decision {
        Decision { at, tenant: at, kind: DecisionKind::Admit, value: at as f64, cause: None }
    }

    #[test]
    fn trace_ring_keeps_the_most_recent_decisions() {
        let mut ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.push(admit(i));
        }
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.capacity(), 3);
        let recent = ring.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent.iter().map(|d| d.at).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest first, last capacity kept"
        );
        // Before wrap-around the ring returns what it has.
        let mut t = TraceRing::new(8);
        t.push(admit(1));
        assert_eq!(t.recent().len(), 1);
    }

    #[test]
    fn decisions_render_as_jsonl_with_causes() {
        let mut ring = TraceRing::new(8);
        let decision = |at, tenant, kind, value, cause| Decision { at, tenant, kind, value, cause };
        ring.push(decision(5, 3, DecisionKind::Admit, 2.5, None));
        let full = Some(Cause::Reject(RejectReason::QueueFull));
        ring.push(decision(7, 4, DecisionKind::Reject, 0.0, full));
        let drift = Some(Cause::Drift { error: 0.125, threshold: 0.06 });
        ring.push(decision(9, 4, DecisionKind::DriftDetected, 0.125, drift));
        ring.push(decision(11, u64::MAX, DecisionKind::MigrationPass, f64::INFINITY, None));
        let jsonl = ring.to_jsonl(16);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "{\"at\":5,\"tenant\":3,\"kind\":\"admit\",\"value\":2.5}");
        assert_eq!(
            lines[1],
            "{\"at\":7,\"tenant\":4,\"kind\":\"reject\",\"value\":0,\
             \"cause\":{\"type\":\"reject\",\"reason\":\"queue_full\"}}"
        );
        assert_eq!(
            lines[2],
            "{\"at\":9,\"tenant\":4,\"kind\":\"drift_detected\",\"value\":0.125,\
             \"cause\":{\"type\":\"drift\",\"error\":0.125,\"threshold\":0.06}}"
        );
        assert_eq!(
            lines[3], "{\"at\":11,\"tenant\":null,\"kind\":\"migration_pass\",\"value\":null}",
            "cluster-wide tenant and non-finite value render as null"
        );
        // `n` bounds the export to the most recent decisions.
        let tail = ring.to_jsonl(1);
        assert_eq!(tail.lines().count(), 1);
        assert!(tail.contains("migration_pass"), "{tail}");
        assert_eq!(ring.to_jsonl(0), "");
    }

    #[test]
    fn hysteresis_cause_round_trips_through_json() {
        let d = Decision {
            at: 1,
            tenant: 2,
            kind: DecisionKind::Migrate,
            value: 3.0,
            cause: Some(Cause::Hysteresis { gain: 1.5, min_improvement: 0.1 }),
        };
        assert_eq!(
            d.to_json(),
            "{\"at\":1,\"tenant\":2,\"kind\":\"migrate\",\"value\":3,\
             \"cause\":{\"type\":\"hysteresis\",\"gain\":1.5,\"min_improvement\":0.1}}"
        );
    }

    #[test]
    fn departed_rate_mean() {
        let mut s = ServiceStats::default();
        assert_eq!(s.mean_departed_rate_bps(), None);
        s.record_departed_rate(10.0);
        s.record_departed_rate(30.0);
        assert_eq!(s.mean_departed_rate_bps(), Some(20.0));
        assert_eq!(s.departed, 2);
    }
}
