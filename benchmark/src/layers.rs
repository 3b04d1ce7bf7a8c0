//! Single-layer timings taken from outside: wire codec replay, route
//! lookups, and the live simulator at the end of a run.

use std::hint::black_box;
use std::time::Instant;

use choreo_flowsim::FlowSim;
use choreo_metrics::Registry;
use choreo_online::OnlineScheduler;
use choreo_profile::{NetworkEvent, NetworkEventKind};
use choreo_topology::{Nanos, NodeId, RouteTable, Topology, SECS};
use choreo_wire::{ServiceRequest, ServiceResponse};

use crate::stats::median;

/// SplitMix64: the benchmark's own seeded generator for picking hosts
/// and links, so no program RNG stream is touched.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Two different hosts.
    fn host_pair(&mut self, hosts: &[NodeId]) -> (NodeId, NodeId) {
        let a = self.below(hosts.len());
        let b = (a + 1 + self.below(hosts.len() - 1)) % hosts.len();
        (hosts[a], hosts[b])
    }
}

/// Mean nanoseconds of one `path_for_flow` over a million seeded lookups.
pub fn path_lookup_ns(topo: &Topology, routes: &RouteTable, seed: u64) -> f64 {
    const LOOKUPS: usize = 1_000_000;
    let mut rng = Rng(seed);
    let hosts = topo.hosts();
    let queries: Vec<(NodeId, NodeId, u64)> = (0..LOOKUPS)
        .map(|_| {
            let (a, b) = rng.host_pair(hosts);
            (a, b, rng.next())
        })
        .collect();
    let t0 = Instant::now();
    let mut hops = 0usize;
    for &(a, b, h) in &queries {
        hops += black_box(routes.path_for_flow(a, b, h)).len();
    }
    black_box(hops);
    t0.elapsed().as_nanos() as f64 / LOOKUPS as f64
}

/// The wire codec replayed over a pass's real requests and responses.
pub struct WireCosts {
    pub encode_request_ns: f64,
    pub decode_request_ns: f64,
    pub encode_response_ns: f64,
    pub decode_response_ns: f64,
    pub frame_roundtrip_ns: f64,
    pub request_bytes_mean: f64,
    pub response_bytes_mean: f64,
    /// Every frame decoded back to the message it was encoded from.
    pub lossless: bool,
}

fn per_item_ns(t0: Instant, items: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / items.max(1) as f64
}

fn mean_len<T: AsRef<[u8]>>(frames: &[T]) -> f64 {
    frames.iter().map(|f| f.as_ref().len()).sum::<usize>() as f64 / frames.len().max(1) as f64
}

pub fn wire_replay(requests: &[ServiceRequest], responses: &[ServiceResponse]) -> WireCosts {
    let t0 = Instant::now();
    let req_frames: Vec<_> = requests.iter().map(|r| black_box(r.encode())).collect();
    let encode_request_ns = per_item_ns(t0, requests.len());
    let t0 = Instant::now();
    let req_back: Vec<_> = req_frames.iter().map(|f| ServiceRequest::decode(&f[4..])).collect();
    let decode_request_ns = per_item_ns(t0, requests.len());

    let t0 = Instant::now();
    let resp_frames: Vec<_> = responses.iter().map(|r| black_box(r.encode())).collect();
    let encode_response_ns = per_item_ns(t0, responses.len());
    let t0 = Instant::now();
    let resp_back: Vec<_> = resp_frames.iter().map(|f| ServiceResponse::decode(&f[4..])).collect();
    let decode_response_ns = per_item_ns(t0, responses.len());

    let mut framed = Vec::with_capacity(1 << 16);
    let mut roundtrip_ok = true;
    let t0 = Instant::now();
    for r in requests {
        framed.clear();
        r.write_to(&mut framed).expect("writing to a Vec cannot fail");
        roundtrip_ok &= ServiceRequest::read_from(&mut framed.as_slice()).is_ok();
    }
    let frame_roundtrip_ns = per_item_ns(t0, requests.len());

    WireCosts {
        encode_request_ns,
        decode_request_ns,
        encode_response_ns,
        decode_response_ns,
        frame_roundtrip_ns,
        request_bytes_mean: mean_len(&req_frames),
        response_bytes_mean: mean_len(&resp_frames),
        lossless: roundtrip_ok
            && req_back.iter().zip(requests).all(|(b, r)| b.as_ref() == Ok(r))
            && resp_back.iter().zip(responses).all(|(b, r)| b.as_ref() == Ok(r)),
    }
}

/// Timings on the live simulator a run leaves behind, from `now` on.
/// Each operation is undone before the next, so the flow set ends as it
/// was found (simulated time moves on, and a link the stream had left
/// degraded may end recovered).
pub struct FlowsimCosts {
    pub probe_batch_240_us: f64,
    pub churn_solve_us: f64,
    pub capacity_solve_us: f64,
    pub run_until_1s_us: f64,
}

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

pub fn flowsim_costs(sim: &mut FlowSim, topo: &Topology, now: Nanos, seed: u64) -> FlowsimCosts {
    let mut rng = Rng(seed);
    let hosts = topo.hosts();
    let n_links = topo.links().len();

    // 240 what-if candidates per batch: 16 candidate hosts, all pairs.
    let mut rates = Vec::new();
    let probe: Vec<f64> = (0..40)
        .map(|_| {
            let probes: Vec<_> = (0..240)
                .map(|_| {
                    let (a, b) = rng.host_pair(hosts);
                    (a, b, None)
                })
                .collect();
            let t0 = Instant::now();
            sim.probe_rates(&probes, &mut rates);
            black_box(&rates);
            us_since(t0)
        })
        .collect();

    let churn: Vec<f64> = (0..200)
        .map(|_| {
            let (a, b) = rng.host_pair(hosts);
            let t0 = Instant::now();
            let key = sim.start_flow_now(a, b, None, None, u64::MAX);
            black_box(sim.rate_bps(key));
            sim.stop_flows_now(&[key]);
            sim.release_flows(&[key]);
            us_since(t0)
        })
        .collect();

    let (a, b) = rng.host_pair(hosts);
    let witness = sim.start_flow_now(a, b, None, None, u64::MAX);
    black_box(sim.rate_bps(witness));
    let capacity: Vec<f64> = (0..200)
        .map(|_| {
            let link = rng.below(n_links) as u32;
            let t0 = Instant::now();
            sim.degrade_link(link, 0.5);
            black_box(sim.rate_bps(witness));
            sim.recover_link(link);
            black_box(sim.rate_bps(witness));
            us_since(t0)
        })
        .collect();
    sim.stop_flows_now(&[witness]);
    sim.release_flows(&[witness]);

    let integrate: Vec<f64> = (1..=20)
        .map(|k| {
            let until = now + k * SECS;
            let t0 = Instant::now();
            sim.run_until(until);
            us_since(t0)
        })
        .collect();

    FlowsimCosts {
        probe_batch_240_us: median(&probe),
        churn_solve_us: median(&churn),
        capacity_solve_us: median(&capacity),
        run_until_1s_us: median(&integrate),
    }
}

/// Median nanoseconds of an `advance_to` that has nowhere to go: what
/// `step` spends repeating the advance a replay already made.
pub fn idle_advance_ns(sched: &mut OnlineScheduler, now: Nanos) -> f64 {
    let times: Vec<f64> = (0..2_000)
        .map(|_| {
            let t0 = Instant::now();
            sched.advance_to(now);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Microseconds of each `network_step` in a seeded set of 200 links
/// degraded to half and recovered, applied at `now`.
pub fn network_step_probe(
    sched: &mut OnlineScheduler,
    topo: &Topology,
    now: Nanos,
    seed: u64,
) -> Vec<f64> {
    let mut rng = Rng(seed);
    let n_links = topo.links().len();
    let mut out = Vec::with_capacity(400);
    for _ in 0..200 {
        let link = rng.below(n_links) as u32;
        for kind in [NetworkEventKind::LinkDegrade { fraction: 0.5 }, NetworkEventKind::LinkRecover]
        {
            let t0 = Instant::now();
            sched.network_step(&NetworkEvent { at: now, link, kind });
            out.push(us_since(t0));
        }
    }
    out
}

/// Median microseconds of one `render()` and the exposition's size.
pub fn render_cost(registry: &Registry) -> (f64, f64) {
    let mut bytes = 0;
    let times: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let text = black_box(registry.render());
            let us = us_since(t0);
            bytes = text.len();
            us
        })
        .collect();
    (median(&times), bytes as f64)
}
