//! The simulated backend: a virtual clock and a scripted transport.
//!
//! [`SimEnv`] turns a script of `(at, conn, request)` triples into the
//! event sequence the service loop consumes, with optional seeded fault
//! injection layered on top. Everything is decided at construction time
//! — the faults are applied to the script with a [`rand::rngs::StdRng`]
//! in script order — so a given `(script, plan)` pair always yields the
//! same delivered sequence, which is what makes whole service runs
//! bit-reproducible.
//!
//! The env also frames each connection the way a real socket would:
//! an [`NetEvent::Open`] before the connection's first delivered
//! request and a [`NetEvent::Closed`] after its last (or at the
//! injected disconnect point).
//!
//! The env consumes its script and keeps no copy of it: faults are
//! applied to the script's own vector, so construction allocates only
//! per connection and for the frames a plan delays or duplicates (plus
//! a sort buffer when the script comes unsorted), and delivery hands
//! the vector's memory back as the undelivered remainder shrinks.

use std::collections::BTreeMap;
use std::mem;

use choreo_topology::Nanos;
use choreo_wire::{ServiceRequest, ServiceResponse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::env::{ConnId, NetEvent, ServiceEnv};

/// Seeded fault injection applied to a [`SimEnv`] script.
///
/// Probabilities are per scripted request, drawn in script order from a
/// generator seeded with `seed` — two envs built from the same script
/// and plan deliver byte-identical sequences.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Probability a request frame is silently dropped.
    pub drop: f64,
    /// Probability a delivered frame is delivered twice (the copy lands
    /// one nanosecond after the original — at-least-once delivery).
    pub duplicate: f64,
    /// Probability a delivered frame is delayed.
    pub delay: f64,
    /// Upper bound on the injected delay, in virtual nanoseconds.
    pub max_delay: Nanos,
    /// Probability the connection drops right after a delivered frame;
    /// the rest of its script is lost.
    pub disconnect: f64,
    /// Seed for the fault generator.
    pub seed: u64,
}

impl Default for FaultPlan {
    /// No faults at all: the script is delivered verbatim.
    fn default() -> FaultPlan {
        FaultPlan { drop: 0.0, duplicate: 0.0, delay: 0.0, max_delay: 0, disconnect: 0.0, seed: 0 }
    }
}

/// What the fault layer actually did to a script.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Frames dropped (including frames lost to a disconnected conn).
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delivered late.
    pub delayed: u64,
    /// Connections torn down mid-script.
    pub disconnects: u64,
}

/// The deterministic in-memory backend: virtual clock, scripted
/// transport, per-connection response recording.
///
/// The env consumes its script and releases it as it delivers: the
/// script's vector is the delivery queue, and its memory goes back to
/// the allocator each time half of it has been delivered.
///
/// Delivery order is time, then class (`Open` < request < `Closed`),
/// then the order the fault pass produced frames in; equal-time
/// `Open`s and `Closed`s go in connection order.
pub struct SimEnv {
    /// Request frames that kept their script slot, latest first.
    frames: Vec<(Nanos, ConnId, ServiceRequest)>,
    /// `frames` entries delivered so far: the production rank of the
    /// next one.
    taken: usize,
    /// Delayed frames and duplicates, latest first, each with the count
    /// of `frames` entries produced before it.
    moved: Vec<(Nanos, usize, ConnId, ServiceRequest)>,
    /// Each connection's `Open` (class 0) and `Closed` (class 2) as
    /// `(at, class, conn)`, latest first; requests are class 1.
    markers: Vec<(Nanos, u8, ConnId)>,
    now: Nanos,
    responses: BTreeMap<ConnId, Vec<ServiceResponse>>,
    counts: FaultCounts,
}

impl SimEnv {
    /// A fault-free env: the script is delivered exactly as written
    /// (stable-sorted by time; equal-time entries keep script order).
    pub fn new(script: Vec<(Nanos, ConnId, ServiceRequest)>) -> SimEnv {
        SimEnv::with_faults(script, FaultPlan::default())
    }

    /// An env with seeded fault injection. The fault generator draws in
    /// script order, so the delivered sequence is a pure function of
    /// `(script, plan)`.
    pub fn with_faults(
        mut script: Vec<(Nanos, ConnId, ServiceRequest)>,
        plan: FaultPlan,
    ) -> SimEnv {
        // A stable sort allocates its buffer even for sorted input.
        if !script.is_sorted_by_key(|&(at, _, _)| at) {
            script.sort_by_key(|&(at, _, _)| at);
        }
        let mut rng = StdRng::seed_from_u64(plan.seed);
        let mut counts = FaultCounts::default();
        // conn -> virtual time its connection dropped.
        let mut disconnected: BTreeMap<ConnId, Nanos> = BTreeMap::new();
        let mut moved = Vec::new();
        let mut kept = 0;
        // Frames that keep their time stay in place; a delayed frame
        // moves out (leaving a placeholder `retain` drops) and a
        // duplicate joins it.
        script.retain_mut(|(at, conn, req)| {
            if disconnected.contains_key(conn) || (plan.drop > 0.0 && rng.gen_bool(plan.drop)) {
                counts.dropped += 1;
                return false;
            }
            let delayed = plan.delay > 0.0 && rng.gen_bool(plan.delay);
            if delayed {
                *at += rng.gen_range(1..=plan.max_delay.max(1));
                counts.delayed += 1;
            }
            let copy = (plan.duplicate > 0.0 && rng.gen_bool(plan.duplicate)).then(|| req.clone());
            if plan.disconnect > 0.0 && rng.gen_bool(plan.disconnect) {
                disconnected.insert(*conn, *at + 1);
                counts.disconnects += 1;
            }
            if delayed {
                moved.push((*at, kept, *conn, mem::replace(req, ServiceRequest::Stats)));
            } else {
                kept += 1;
            }
            if let Some(copy) = copy {
                moved.push((*at + 1, kept, *conn, copy));
                counts.duplicated += 1;
            }
            !delayed
        });
        script.reverse();
        moved.sort_by_key(|&(at, ..)| at);
        moved.reverse();

        // Open lands at the conn's earliest delivery, Closed one
        // nanosecond after its last (or at the disconnect if later).
        let mut spans: BTreeMap<ConnId, (Nanos, Nanos)> = BTreeMap::new();
        let delivered = script.iter().map(|f| (f.0, f.1)).chain(moved.iter().map(|m| (m.0, m.2)));
        for (at, conn) in delivered {
            let (first, last) = spans.entry(conn).or_insert((at, at));
            (*first, *last) = ((*first).min(at), (*last).max(at));
        }
        let mut markers: Vec<_> = spans
            .into_iter()
            .flat_map(|(conn, (first, last))| {
                let closed = disconnected.get(&conn).map_or(last + 1, |&t| t.max(last + 1));
                [(first, 0, conn), (closed, 2, conn)]
            })
            .collect();
        markers.sort_unstable_by(|a, b| b.cmp(a));

        SimEnv {
            frames: script,
            taken: 0,
            moved,
            markers,
            now: 0,
            responses: BTreeMap::new(),
            counts,
        }
    }

    /// What the fault layer did to the script.
    pub fn fault_counts(&self) -> FaultCounts {
        self.counts
    }

    /// Responses the service sent on `conn`, in send order.
    pub fn responses(&self, conn: ConnId) -> &[ServiceResponse] {
        self.responses.get(&conn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Events not yet delivered (0 once the loop has drained the env).
    pub fn remaining(&self) -> usize {
        self.frames.len() + self.moved.len() + self.markers.len()
    }

    /// Whether the next request comes from `moved`: it does when it was
    /// due first, or at the same time but produced before the next frame.
    fn moved_next(&self) -> bool {
        match (self.moved.last(), self.frames.last()) {
            (Some(&(at, before, ..)), Some(&(frame_at, ..))) => {
                (at, before) <= (frame_at, self.taken)
            }
            (moved, _) => moved.is_some(),
        }
    }
}

/// Pop the back of `v`, handing its memory back once half of it is
/// spare.
fn pop_shrinking<T>(v: &mut Vec<T>) -> Option<T> {
    let last = v.pop();
    if v.len() <= v.capacity() / 2 {
        v.shrink_to_fit();
    }
    last
}

impl ServiceEnv for SimEnv {
    fn now(&self) -> Nanos {
        self.now
    }

    fn next_event(&mut self) -> Option<(Nanos, ConnId, NetEvent)> {
        let moved = self.moved_next();
        let request =
            if moved { self.moved.last().map(|m| m.0) } else { self.frames.last().map(|f| f.0) };
        let marker = self.markers.last().map(|&(at, class, _)| (at, class));
        let (at, conn, event) = if marker.is_some_and(|m| request.is_none_or(|at| m < (at, 1))) {
            let (at, class, conn) = pop_shrinking(&mut self.markers)?;
            (at, conn, if class == 0 { NetEvent::Open } else { NetEvent::Closed })
        } else if moved {
            let (at, _, conn, req) = pop_shrinking(&mut self.moved)?;
            (at, conn, NetEvent::Request(req))
        } else {
            let (at, conn, req) = pop_shrinking(&mut self.frames)?;
            self.taken += 1;
            (at, conn, NetEvent::Request(req))
        };
        self.now = self.now.max(at);
        Some((at, conn, event))
    }

    fn send(&mut self, conn: ConnId, resp: ServiceResponse) {
        self.responses.entry(conn).or_default().push(resp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script() -> Vec<(Nanos, ConnId, ServiceRequest)> {
        vec![
            (10, 1, ServiceRequest::Stats),
            (20, 2, ServiceRequest::Metrics),
            (30, 1, ServiceRequest::Depart { tenant: 9 }),
            (40, 2, ServiceRequest::Stats),
        ]
    }

    fn drain(env: &mut SimEnv) -> Vec<(Nanos, ConnId, NetEvent)> {
        std::iter::from_fn(|| env.next_event()).collect()
    }

    #[test]
    fn fault_free_script_is_delivered_verbatim_with_framing() {
        let mut env = SimEnv::new(script());
        let got = drain(&mut env);
        // 4 requests + Open/Closed per conn.
        assert_eq!(got.len(), 8);
        assert_eq!(got[0], (10, 1, NetEvent::Open));
        assert_eq!(got[1], (10, 1, NetEvent::Request(ServiceRequest::Stats)));
        assert_eq!(got[2], (20, 2, NetEvent::Open));
        let closes: Vec<ConnId> =
            got.iter().filter(|(_, _, e)| *e == NetEvent::Closed).map(|(_, c, _)| *c).collect();
        assert_eq!(closes, vec![1, 2]);
        assert_eq!(env.fault_counts(), FaultCounts::default());
        assert_eq!(env.remaining(), 0);
    }

    #[test]
    fn same_seed_same_plan_is_bit_identical() {
        let plan = FaultPlan {
            drop: 0.3,
            duplicate: 0.3,
            delay: 0.3,
            max_delay: 50,
            disconnect: 0.1,
            seed: 42,
        };
        let mut a = SimEnv::with_faults(script(), plan);
        let mut b = SimEnv::with_faults(script(), plan);
        assert_eq!(drain(&mut a), drain(&mut b));
        assert_eq!(a.fault_counts(), b.fault_counts());
    }

    #[test]
    fn different_seeds_eventually_differ() {
        let mk = |seed| {
            let plan = FaultPlan {
                drop: 0.5,
                duplicate: 0.5,
                delay: 0.5,
                max_delay: 1_000,
                disconnect: 0.0,
                seed,
            };
            let mut env = SimEnv::with_faults(script(), plan);
            drain(&mut env)
        };
        assert!((0..16).any(|s| mk(s) != mk(s + 100)), "fault plans respond to the seed");
    }

    #[test]
    fn delivery_times_never_decrease() {
        let plan = FaultPlan {
            drop: 0.1,
            duplicate: 0.4,
            delay: 0.6,
            max_delay: 500,
            disconnect: 0.2,
            seed: 7,
        };
        let mut env = SimEnv::with_faults(script(), plan);
        let got = drain(&mut env);
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0, "{w:?}");
        }
    }

    #[test]
    fn disconnect_drops_the_rest_of_the_conn_script() {
        let plan = FaultPlan { disconnect: 1.0, seed: 1, ..FaultPlan::default() };
        let mut env = SimEnv::with_faults(script(), plan);
        let got = drain(&mut env);
        // Each conn delivers exactly its first request, then closes.
        let requests = got.iter().filter(|(_, _, e)| matches!(e, NetEvent::Request(_))).count();
        assert_eq!(requests, 2);
        assert_eq!(env.fault_counts().disconnects, 2);
        assert_eq!(env.fault_counts().dropped, 2);
    }

    #[test]
    fn responses_are_recorded_per_conn() {
        let mut env = SimEnv::new(vec![]);
        env.send(3, ServiceResponse::Queued);
        env.send(3, ServiceResponse::Done);
        env.send(5, ServiceResponse::Done);
        assert_eq!(env.responses(3), &[ServiceResponse::Queued, ServiceResponse::Done]);
        assert_eq!(env.responses(5), &[ServiceResponse::Done]);
        assert_eq!(env.responses(9), &[] as &[ServiceResponse]);
    }
}
