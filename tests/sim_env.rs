//! `SimEnv`'s delivery order against an independent reference.
//!
//! The reference below is the straightforward construction: clone every
//! delivered frame into a fresh list, add each connection's `Open` and
//! `Closed`, and sort the lot on `(at, class, idx)` — class `Open` <
//! request < `Closed`, `idx` the order the fault pass produced requests
//! in (connection order for the markers). `SimEnv` applies the faults to
//! the script's own vector and merges its lists while it delivers; every
//! fault plan must give the same `(at, conn, event)` sequence and the
//! same fault counts. Scripts are short, unsorted, spread over several
//! connections and crowded onto a few instants, so equal times are the
//! common case.

use std::collections::BTreeMap;

use choreo_repro::service::{
    ConnId, FaultCounts, FaultPlan, NetEvent, ServiceEnv, ServiceRequest, SimEnv,
};
use choreo_repro::topology::Nanos;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Script = Vec<(Nanos, ConnId, ServiceRequest)>;

/// The delivered sequence and fault counts, built the straightforward
/// way. Draws from the fault generator exactly as `FaultPlan` documents:
/// per request, in (stably) time-sorted script order — drop, delay (and
/// its length), duplicate, disconnect.
fn reference(mut script: Script, plan: FaultPlan) -> (Vec<(Nanos, ConnId, NetEvent)>, FaultCounts) {
    script.sort_by_key(|(at, _, _)| *at);
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let mut counts = FaultCounts::default();
    let mut delivered: Script = Vec::new();
    let mut disconnected: BTreeMap<ConnId, Nanos> = BTreeMap::new();
    for (at, conn, req) in script {
        if disconnected.contains_key(&conn) {
            counts.dropped += 1;
            continue;
        }
        if plan.drop > 0.0 && rng.gen_bool(plan.drop) {
            counts.dropped += 1;
            continue;
        }
        let mut deliver_at = at;
        if plan.delay > 0.0 && rng.gen_bool(plan.delay) {
            deliver_at += rng.gen_range(1..=plan.max_delay.max(1));
            counts.delayed += 1;
        }
        delivered.push((deliver_at, conn, req.clone()));
        if plan.duplicate > 0.0 && rng.gen_bool(plan.duplicate) {
            delivered.push((deliver_at + 1, conn, req));
            counts.duplicated += 1;
        }
        if plan.disconnect > 0.0 && rng.gen_bool(plan.disconnect) {
            disconnected.insert(conn, deliver_at + 1);
            counts.disconnects += 1;
        }
    }
    let mut first: BTreeMap<ConnId, Nanos> = BTreeMap::new();
    let mut last: BTreeMap<ConnId, Nanos> = BTreeMap::new();
    for &(at, conn, _) in &delivered {
        let f = first.entry(conn).or_insert(at);
        *f = (*f).min(at);
        let l = last.entry(conn).or_insert(at);
        *l = (*l).max(at);
    }
    let mut all: Vec<(Nanos, u8, usize, ConnId, NetEvent)> = Vec::new();
    for (idx, (&conn, &at)) in first.iter().enumerate() {
        all.push((at, 0, idx, conn, NetEvent::Open));
    }
    for (idx, (at, conn, req)) in delivered.into_iter().enumerate() {
        all.push((at, 1, idx, conn, NetEvent::Request(req)));
    }
    for (idx, (&conn, &at)) in last.iter().enumerate() {
        let closed_at = disconnected.get(&conn).map_or(at + 1, |&t| t.max(at + 1));
        all.push((closed_at, 2, idx, conn, NetEvent::Closed));
    }
    all.sort_by_key(|&(at, class, idx, _, _)| (at, class, idx));
    (all.into_iter().map(|(at, _, _, conn, ev)| (at, conn, ev)).collect(), counts)
}

/// A script from `(at, conn, kind)` draws. Every request carries its
/// script index, so a reordering of any two frames is visible.
fn script_of(ops: &[(u64, u64, u8)]) -> Script {
    ops.iter()
        .enumerate()
        .map(|(i, &(at, conn, kind))| {
            let tenant = i as u64;
            let req = match kind {
                0 => ServiceRequest::Depart { tenant },
                1 => ServiceRequest::SetIntensity { tenant, intensity: 1 + (i % 3) as u32 },
                _ => ServiceRequest::ForceMigration { at: tenant },
            };
            (at, conn, req)
        })
        .collect()
}

/// Drain `SimEnv::with_faults` and compare it with the reference.
fn check(ops: &[(u64, u64, u8)], plan: FaultPlan) -> Result<(), String> {
    let script = script_of(ops);
    let (want, want_counts) = reference(script.clone(), plan);
    let mut env = SimEnv::with_faults(script, plan);
    prop_assert_eq!(env.remaining(), want.len(), "events queued at construction");
    prop_assert_eq!(env.fault_counts(), want_counts);
    let mut got = Vec::new();
    while let Some(ev) = env.next_event() {
        got.push(ev);
    }
    prop_assert_eq!(env.remaining(), 0);
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #[test]
    fn fault_free_delivery_matches_reference(
        ops in prop::collection::vec((0u64..12, 0u64..4, 0u8..3), 0..40),
    ) {
        check(&ops, FaultPlan::default())?;
    }

    #[test]
    fn dropping_delivery_matches_reference(
        ops in prop::collection::vec((0u64..12, 0u64..4, 0u8..3), 0..40),
        seed in 0u64..1000,
    ) {
        check(&ops, FaultPlan { drop: 0.4, seed, ..FaultPlan::default() })?;
    }

    #[test]
    fn delaying_delivery_matches_reference(
        ops in prop::collection::vec((0u64..12, 0u64..4, 0u8..3), 0..40),
        seed in 0u64..1000,
        max_delay in 0u64..6,
    ) {
        check(&ops, FaultPlan { delay: 0.5, max_delay, seed, ..FaultPlan::default() })?;
    }

    #[test]
    fn duplicating_delivery_matches_reference(
        ops in prop::collection::vec((0u64..12, 0u64..4, 0u8..3), 0..40),
        seed in 0u64..1000,
    ) {
        check(&ops, FaultPlan { duplicate: 0.5, seed, ..FaultPlan::default() })?;
    }

    #[test]
    fn disconnecting_delivery_matches_reference(
        ops in prop::collection::vec((0u64..12, 0u64..4, 0u8..3), 0..40),
        seed in 0u64..1000,
    ) {
        check(&ops, FaultPlan { disconnect: 0.2, seed, ..FaultPlan::default() })?;
    }

    #[test]
    fn mixed_fault_delivery_matches_reference(
        ops in prop::collection::vec((0u64..12, 0u64..4, 0u8..3), 0..40),
        seed in 0u64..1000,
        max_delay in 0u64..6,
    ) {
        let plan = FaultPlan {
            drop: 0.2,
            duplicate: 0.3,
            delay: 0.3,
            max_delay,
            disconnect: 0.1,
            seed,
        };
        check(&ops, plan)?;
    }
}
