//! The simulator engine: wires topology, queues, shapers, flows and the
//! event kernel together.
//!
//! # Resource model
//!
//! Every transmission resource is a [`LinkQueue`] addressed by a flat index:
//! directed link `l` in direction `d` is `2·l + d` (`DirectedHop::index`);
//! the per-host "memory loopback" (used by flows between co-located VMs,
//! §2.2's ≈4 Gbit/s paths) is `2·L + host_index`. Packets carry their owning
//! flow, a forward/reverse flag and a hop counter; the flow stores its
//! ECMP-selected path, so forwarding is just an index lookup.
//!
//! # Hose model
//!
//! Outgoing packets of a flow pass through the flow's source-side
//! [`TokenBucket`] shaper (if any) before entering the host NIC queue; ACKs
//! pass through the destination-side shaper. Co-located (loopback) traffic
//! bypasses shapers, which is how the paper's ≈4 Gbit/s same-machine paths
//! coexist with a 1 Gbit/s hose.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use choreo_topology::route::splitmix64;
use choreo_topology::units::tx_time;
use choreo_topology::{
    exp_holding, DirectedHop, Nanos, NodeId, RouteTable, TimerQueue, Topology, LOOPBACK,
};

use crate::config::{
    TrainConfig, ACK_BYTES, HEADER_BYTES, HOST_QUEUE_BYTES, MSS, SHAPER_BACKLOG_BYTES,
    SWITCH_QUEUE_BYTES,
};
use crate::event::Ev;
use crate::onoff::{OnOffSource, SourceId};
use crate::packet::{FlowId, Packet, PktKind};
use crate::queue::{Enqueue, LinkQueue};
use crate::sampler::{Sampler, SamplerId};
use crate::shaper::{ShaperId, ShaperVerdict, TokenBucket};
use crate::tcp::{TcpActions, TcpFlow};
use crate::udp::{TrainReport, TrainState};

/// What kind of traffic a flow carries.
#[derive(Debug)]
enum FlowKind {
    Tcp(TcpFlow),
    Train(TrainState),
}

/// A flow: endpoints, chosen path, shapers, protocol state.
#[derive(Debug)]
struct Flow {
    src: NodeId,
    dst: NodeId,
    /// Forward path hops (empty iff co-located endpoints → loopback).
    fwd: Vec<DirectedHop>,
    src_shaper: Option<ShaperId>,
    dst_shaper: Option<ShaperId>,
    kind: FlowKind,
    dead: bool,
}

/// Summary statistics of a TCP flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpStats {
    /// Simulated start time.
    pub started_at: Nanos,
    /// Completion time, if the (bounded) flow finished.
    pub completed_at: Option<Nanos>,
    /// Bytes acknowledged at the sender (`una × MSS`).
    pub acked_bytes: u64,
    /// Bytes delivered in order at the receiver (`rcv_next × MSS`).
    pub delivered_bytes: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
}

/// The packet-level simulator.
pub struct Sim {
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    now: Nanos,
    events: TimerQueue<Ev>,
    /// `2·links + hosts` transmission resources.
    resources: Vec<LinkQueue>,
    shapers: Vec<TokenBucket>,
    flows: Vec<Flow>,
    sources: Vec<OnOffSource>,
    /// Endpoints and shapers of each ON–OFF source, parallel to `sources`
    /// (kept here so the onoff module stays simulator-agnostic).
    source_endpoints: Vec<(NodeId, NodeId, Option<ShaperId>, Option<ShaperId>)>,
    samplers: Vec<Sampler>,
    rng: StdRng,
    /// Total packets dropped anywhere (queues + shapers).
    pub total_drops: u64,
}

impl Sim {
    /// Build a simulator over a topology, with every host's loopback at
    /// [`LOOPBACK`]. `seed` drives ECMP tie-breaking and ON–OFF holding
    /// times; equal seeds give identical runs.
    pub fn new(topo: Arc<Topology>, routes: Arc<RouteTable>, seed: u64) -> Self {
        let mut resources = Vec::with_capacity(topo.link_count() * 2 + topo.hosts().len());
        for l in topo.links() {
            for _ in 0..2 {
                // Host-attached link directions get the big NIC buffer;
                // switch-to-switch ports get the small switch buffer.
                let tail_is_host = |n: NodeId| topo.node(n).kind.is_host();
                let cap = if tail_is_host(l.a) || tail_is_host(l.b) {
                    HOST_QUEUE_BYTES
                } else {
                    SWITCH_QUEUE_BYTES
                };
                resources.push(LinkQueue::new(l.spec.rate_bps, l.spec.delay, cap));
            }
        }
        for _ in topo.hosts() {
            resources.push(LinkQueue::new(LOOPBACK.rate_bps, LOOPBACK.delay, HOST_QUEUE_BYTES));
        }
        Sim {
            topo,
            routes,
            now: 0,
            events: TimerQueue::new(),
            resources,
            shapers: Vec::new(),
            flows: Vec::new(),
            sources: Vec::new(),
            source_endpoints: Vec::new(),
            samplers: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            total_drops: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Register a token-bucket egress shaper (one per VM under the hose
    /// model) with a [`SHAPER_BACKLOG_BYTES`] backlog and an idle-refill
    /// multiplier (hypervisor credit accrual while the VM's egress is
    /// idle; see [`TokenBucket::idle_refill_mult`]).
    pub fn add_shaper(
        &mut self,
        rate_bps: f64,
        depth_bytes: f64,
        idle_refill_mult: f64,
    ) -> ShaperId {
        let id = ShaperId(self.shapers.len() as u32);
        self.shapers.push(TokenBucket::new(
            rate_bps,
            depth_bytes,
            SHAPER_BACKLOG_BYTES,
            idle_refill_mult,
        ));
        id
    }

    // ---------------------------------------------------------------- flows

    fn pick_path(&mut self, src: NodeId, dst: NodeId, flow_id: u32) -> Vec<DirectedHop> {
        if src == dst {
            return Vec::new();
        }
        let hash = splitmix64((flow_id as u64) << 32 | self.rng.gen::<u32>() as u64);
        self.routes.path_for_flow(src, dst, hash).hops().to_vec()
    }

    /// Start a TCP flow at time `at` transferring `bytes` (`None` =
    /// unbounded). Returns its id immediately.
    pub fn start_tcp(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        src_shaper: Option<ShaperId>,
        dst_shaper: Option<ShaperId>,
        at: Nanos,
    ) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        let fwd = self.pick_path(src, dst, id.0);
        let limit = bytes.map(|b| b.div_ceil(MSS as u64).max(1));
        self.flows.push(Flow {
            src,
            dst,
            fwd,
            src_shaper,
            dst_shaper,
            kind: FlowKind::Tcp(TcpFlow::new(limit, at)),
            dead: false,
        });
        self.events.push(at.max(self.now), Ev::FlowStart { flow: id.0 });
        id
    }

    /// Launch a UDP packet train at time `at`. Returns the flow id; read
    /// the result with [`Sim::train_report`] once `run_until` passes the
    /// train's end.
    pub fn start_train(
        &mut self,
        src: NodeId,
        dst: NodeId,
        config: TrainConfig,
        src_shaper: Option<ShaperId>,
        at: Nanos,
    ) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        let fwd = self.pick_path(src, dst, id.0);
        let base_rtt = self.base_rtt(src, dst);
        self.flows.push(Flow {
            src,
            dst,
            fwd,
            src_shaper,
            dst_shaper: None,
            kind: FlowKind::Train(TrainState::new(config, base_rtt)),
            dead: false,
        });
        self.events.push(at.max(self.now), Ev::UdpBurst { flow: id.0, burst: 0 });
        id
    }

    /// Stop a flow: it stops sending and ignores all future packets.
    pub fn kill_flow(&mut self, id: FlowId) {
        self.flows[id.0 as usize].dead = true;
    }

    /// Register an ON–OFF bulk-TCP background source between two hosts.
    /// It starts OFF and toggles with exponential holding times.
    #[allow(clippy::too_many_arguments)] // mirrors start_tcp's surface
    pub fn start_onoff(
        &mut self,
        src: NodeId,
        dst: NodeId,
        mean_on: Nanos,
        mean_off: Nanos,
        src_shaper: Option<ShaperId>,
        dst_shaper: Option<ShaperId>,
        at: Nanos,
    ) -> SourceId {
        let id = SourceId(self.sources.len() as u32);
        self.sources.push(OnOffSource::new(mean_on, mean_off));
        // Remember endpoints by storing a template flow? Endpoints are kept
        // in the closure-free world via a parallel vec.
        self.source_endpoints.push((src, dst, src_shaper, dst_shaper));
        let first = at.max(self.now) + self.sample_exp(mean_off);
        self.events.push(first, Ev::OnOffToggle { source: id.0 });
        id
    }

    /// Attach a periodic throughput sampler to a flow, ticking every
    /// `interval` until `until`.
    pub fn add_sampler(&mut self, flow: FlowId, interval: Nanos, until: Nanos) -> SamplerId {
        let id = SamplerId(self.samplers.len() as u32);
        self.samplers.push(Sampler::new(flow, interval, until));
        self.events.push(self.now, Ev::Sample { sampler: id.0 });
        id
    }

    /// Samples collected so far by a sampler.
    pub fn sampler_rates(&self, id: SamplerId) -> Vec<(Nanos, f64)> {
        self.samplers[id.0 as usize].rates_bps()
    }

    // ------------------------------------------------------------- queries

    /// TCP statistics snapshot.
    ///
    /// Panics if the flow is not TCP.
    pub fn tcp_stats(&self, id: FlowId) -> TcpStats {
        match &self.flows[id.0 as usize].kind {
            FlowKind::Tcp(t) => TcpStats {
                started_at: t.started_at,
                completed_at: t.completed_at,
                acked_bytes: t.una * MSS as u64,
                delivered_bytes: t.rcv_next * MSS as u64,
                retransmits: t.retransmits,
            },
            FlowKind::Train(_) => panic!("flow {id:?} is a packet train, not TCP"),
        }
    }

    /// Receiver-side packet-train report.
    ///
    /// Panics if the flow is not a train.
    pub fn train_report(&self, id: FlowId) -> TrainReport {
        match &self.flows[id.0 as usize].kind {
            FlowKind::Train(t) => t.report(),
            FlowKind::Tcp(_) => panic!("flow {id:?} is TCP, not a packet train"),
        }
    }

    /// Unloaded round-trip time between two hosts: serialization of one
    /// data packet plus propagation, out and back, along the shortest path
    /// (loopback if co-located).
    pub fn base_rtt(&self, src: NodeId, dst: NodeId) -> Nanos {
        if src == dst {
            return 2 * (LOOPBACK.delay + tx_time((MSS + HEADER_BYTES) as u64, LOOPBACK.rate_bps));
        }
        let path = self.routes.path(src, dst, 0);
        let mut rtt = 0;
        for hop in path.hops() {
            let spec = self.topo.link(hop.link()).spec;
            rtt += 2 * spec.delay;
            rtt += tx_time((MSS + HEADER_BYTES) as u64, spec.rate_bps);
            rtt += tx_time(ACK_BYTES as u64, spec.rate_bps);
        }
        rtt
    }

    // ------------------------------------------------------------ mechanics

    fn loopback_index(&self, host: NodeId) -> usize {
        2 * self.topo.link_count() + self.routes.host_index(host)
    }

    /// Path (hop list) a packet follows, given its direction.
    fn packet_path_len(&self, pkt: &Packet) -> usize {
        self.flows[pkt.flow.0 as usize].fwd.len()
    }

    fn packet_hop(&self, pkt: &Packet) -> DirectedHop {
        let flow = &self.flows[pkt.flow.0 as usize];
        if pkt.reverse {
            let idx = flow.fwd.len() - 1 - pkt.hop as usize;
            flow.fwd[idx].flip()
        } else {
            flow.fwd[pkt.hop as usize]
        }
    }

    /// Move a packet onto its next resource, or deliver it.
    fn forward(&mut self, mut pkt: Packet) {
        let path_len = self.packet_path_len(&pkt);
        if path_len == 0 && pkt.hop == 0 {
            // Co-located endpoints: one trip through the loopback resource.
            let flow = &self.flows[pkt.flow.0 as usize];
            let host = if pkt.reverse { flow.dst } else { flow.src };
            pkt.hop = u8::MAX; // marks "loopback traversed"
            let res = self.loopback_index(host);
            self.enqueue_at(res, pkt);
            return;
        }
        if pkt.hop == u8::MAX || pkt.hop as usize >= path_len {
            self.deliver(pkt);
            return;
        }
        let hop = self.packet_hop(&pkt);
        let res = hop.index();
        pkt.hop += 1;
        self.enqueue_at(res, pkt);
    }

    fn enqueue_at(&mut self, res: usize, pkt: Packet) {
        match self.resources[res].enqueue(pkt) {
            Enqueue::StartTx(tx) => self.events.push(self.now + tx, Ev::TxDone { res: res as u32 }),
            Enqueue::Queued => {}
            Enqueue::Dropped => self.total_drops += 1,
        }
    }

    /// Inject a freshly created packet at its source VM: through the
    /// appropriate shaper (loopback traffic bypasses shaping).
    fn inject(&mut self, pkt: Packet) {
        let flow = &self.flows[pkt.flow.0 as usize];
        if flow.fwd.is_empty() {
            self.forward(pkt);
            return;
        }
        let shaper = if pkt.reverse { flow.dst_shaper } else { flow.src_shaper };
        match shaper {
            None => self.forward(pkt),
            Some(sid) => match self.shapers[sid.0 as usize].offer(self.now, pkt) {
                ShaperVerdict::Pass => self.forward(pkt),
                ShaperVerdict::Hold(Some(at)) => {
                    self.events.push(at, Ev::ShaperReady { shaper: sid.0 })
                }
                ShaperVerdict::Hold(None) => {}
                ShaperVerdict::Dropped => self.total_drops += 1,
            },
        }
    }

    fn deliver(&mut self, pkt: Packet) {
        if self.flows[pkt.flow.0 as usize].dead {
            return;
        }
        match pkt.kind {
            PktKind::Data { seq } => {
                let ack = match &mut self.flows[pkt.flow.0 as usize].kind {
                    FlowKind::Tcp(t) => t.on_data(seq),
                    FlowKind::Train(_) => return,
                };
                let ack_pkt = Packet {
                    flow: pkt.flow,
                    kind: PktKind::Ack { ack },
                    size: ACK_BYTES,
                    hop: 0,
                    reverse: true,
                };
                self.inject(ack_pkt);
            }
            PktKind::Ack { ack } => {
                let actions = match &mut self.flows[pkt.flow.0 as usize].kind {
                    FlowKind::Tcp(t) => t.on_ack(ack, self.now),
                    FlowKind::Train(_) => return,
                };
                self.perform(pkt.flow, actions);
            }
            PktKind::Probe { burst, idx } => {
                if let FlowKind::Train(t) = &mut self.flows[pkt.flow.0 as usize].kind {
                    t.on_probe(burst, idx, self.now);
                }
            }
        }
    }

    /// Execute TCP side effects: emit segments, manage the RTO timer.
    fn perform(&mut self, flow: FlowId, actions: TcpActions) {
        for seq in actions.emit {
            let pkt = Packet {
                flow,
                kind: PktKind::Data { seq },
                size: MSS + HEADER_BYTES,
                hop: 0,
                reverse: false,
            };
            self.inject(pkt);
        }
        if actions.cancel_rto || actions.rearm_rto {
            if let FlowKind::Tcp(t) = &mut self.flows[flow.0 as usize].kind {
                t.rto_gen = t.rto_gen.wrapping_add(1);
                if actions.rearm_rto {
                    let at = self.now + t.rto_with_backoff();
                    let gen = t.rto_gen;
                    self.events.push(at, Ev::TcpRto { flow: flow.0, gen });
                }
            }
        }
    }

    fn sample_exp(&mut self, mean: Nanos) -> Nanos {
        exp_holding(mean, self.rng.gen_range(f64::EPSILON..=1.0))
    }

    /// Emit one burst of a packet train and schedule the next.
    fn emit_burst(&mut self, flow_idx: u32, burst: u32) {
        let (config, fwd_first, src, src_shaper, dead) = {
            let f = &self.flows[flow_idx as usize];
            let cfg = match &f.kind {
                FlowKind::Train(t) => t.config,
                FlowKind::Tcp(_) => return,
            };
            (cfg, f.fwd.first().copied(), f.src, f.src_shaper, f.dead)
        };
        if dead || burst >= config.bursts {
            return;
        }
        for idx in 0..config.burst_len {
            let pkt = Packet {
                flow: FlowId(flow_idx),
                kind: PktKind::Probe { burst, idx },
                size: config.packet_bytes,
                hop: 0,
                reverse: false,
            };
            self.inject(pkt);
        }
        if let FlowKind::Train(t) = &mut self.flows[flow_idx as usize].kind {
            t.sent += config.burst_len as u64;
            t.next_burst = burst + 1;
        }
        if burst + 1 < config.bursts {
            // The real sender's sendto() blocks on a full socket buffer, so
            // the inter-burst gap starts when the local NIC/hypervisor has
            // accepted the burst: max(line-rate serialization, shaper drain).
            let line_rate = fwd_first
                .map(|h| self.topo.link(h.link()).spec.rate_bps)
                .unwrap_or(LOOPBACK.rate_bps);
            let burst_bytes = config.burst_len as u64 * config.packet_bytes as u64;
            let serialize = tx_time(burst_bytes, line_rate);
            let drain = src_shaper
                .map(|sid| {
                    let sh = &mut self.shapers[sid.0 as usize];
                    let backlog = sh.backlog_bytes() as f64;
                    let tokens = sh.tokens_at(self.now);
                    let deficit = (backlog - tokens).max(0.0);
                    ((deficit * 8.0 / sh.rate_bps) * 1e9) as Nanos
                })
                .unwrap_or(0);
            let _ = src;
            let next_at = self.now + serialize.max(drain) + config.gap;
            self.events.push(next_at, Ev::UdpBurst { flow: flow_idx, burst: burst + 1 });
        }
    }

    // ------------------------------------------------------------ main loop

    /// Run the simulation until simulated time `t` (inclusive).
    pub fn run_until(&mut self, t: Nanos) {
        while let Some(at) = self.events.peek_time() {
            if at > t {
                break;
            }
            let (at, ev) = self.events.pop().expect("peeked");
            self.now = at;
            self.dispatch(ev);
        }
        self.now = self.now.max(t);
    }

    /// Run for `dt` beyond the current time.
    pub fn run_for(&mut self, dt: Nanos) {
        let t = self.now + dt;
        self.run_until(t);
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::TxDone { res } => {
                let (pkt, next) = self.resources[res as usize].tx_done();
                let delay = self.resources[res as usize].delay;
                if let Some(tx) = next {
                    self.events.push(self.now + tx, Ev::TxDone { res });
                }
                self.events.push(self.now + delay, Ev::Arrive { pkt });
            }
            Ev::Arrive { pkt } => self.forward(pkt),
            Ev::ShaperReady { shaper } => {
                let (released, next) = self.shapers[shaper as usize].drain(self.now);
                for pkt in released {
                    self.forward(pkt);
                }
                if let Some(at) = next {
                    self.events.push(at, Ev::ShaperReady { shaper });
                }
            }
            Ev::TcpRto { flow, gen } => {
                let actions = match &mut self.flows[flow as usize] {
                    f if f.dead => return,
                    f => match &mut f.kind {
                        FlowKind::Tcp(t) if t.rto_gen == gen => t.on_rto(self.now),
                        _ => return,
                    },
                };
                self.perform(FlowId(flow), actions);
            }
            Ev::UdpBurst { flow, burst } => self.emit_burst(flow, burst),
            Ev::OnOffToggle { source } => self.toggle_source(source),
            Ev::Sample { sampler } => {
                let flow = self.samplers[sampler as usize].flow;
                let delivered = match &self.flows[flow.0 as usize].kind {
                    FlowKind::Tcp(t) => t.rcv_next * MSS as u64,
                    FlowKind::Train(t) => {
                        t.records.iter().flatten().map(|b| b.received as u64).sum::<u64>()
                            * t.config.packet_bytes as u64
                    }
                };
                if let Some(next) = self.samplers[sampler as usize].tick(self.now, delivered) {
                    self.events.push(next, Ev::Sample { sampler });
                }
            }
            Ev::FlowStart { flow } => {
                let actions = match &mut self.flows[flow as usize] {
                    f if f.dead => return,
                    f => match &mut f.kind {
                        FlowKind::Tcp(t) => t.on_start(self.now),
                        FlowKind::Train(_) => return,
                    },
                };
                self.perform(FlowId(flow), actions);
            }
        }
    }

    fn toggle_source(&mut self, source: u32) {
        let (src, dst, ss, ds) = self.source_endpoints[source as usize];
        let turn_on = !self.sources[source as usize].on;
        if turn_on {
            let flow = self.start_tcp(src, dst, None, ss, ds, self.now);
            let s = &mut self.sources[source as usize];
            s.on = true;
            s.flow = Some(flow);
            s.on_periods += 1;
        } else {
            let s = &mut self.sources[source as usize];
            s.on = false;
            if let Some(f) = s.flow.take() {
                self.kill_flow(f);
            }
        }
        let mean = self.sources[source as usize].current_mean();
        let dt = self.sample_exp(mean);
        self.events.push(self.now + dt, Ev::OnOffToggle { source });
    }

    /// Number of ON–OFF sources currently transmitting.
    pub fn active_background_flows(&self) -> usize {
        self.sources.iter().filter(|s| s.on).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choreo_topology::{dumbbell, LinkSpec, GBIT, MBIT, MICROS, MILLIS, SECS};

    fn net(n_pairs: usize, shared_rate: f64) -> (Arc<Topology>, Arc<RouteTable>) {
        let t = Arc::new(dumbbell(
            n_pairs,
            LinkSpec::new(GBIT, 5 * MICROS),
            LinkSpec::new(shared_rate, 20 * MICROS),
        ));
        let r = Arc::new(RouteTable::new(&t));
        (t, r)
    }

    /// Mean delivered throughput between flow start and `now`, bits/s.
    fn mean_throughput_bps(st: &TcpStats, now: Nanos) -> f64 {
        let dur = st.completed_at.unwrap_or(now) - st.started_at;
        st.delivered_bytes as f64 * 8.0 / (dur as f64 / 1e9)
    }

    #[test]
    fn bounded_tcp_flow_completes() {
        let (t, r) = net(1, GBIT);
        let mut sim = Sim::new(t.clone(), r, 1);
        let src = t.hosts()[0];
        let dst = t.hosts()[1];
        let f = sim.start_tcp(src, dst, Some(1_000_000), None, None, 0);
        sim.run_until(5 * SECS);
        let st = sim.tcp_stats(f);
        assert!(st.completed_at.is_some(), "1 MB over 1 Gbit/s should finish quickly");
        assert!(st.acked_bytes >= 1_000_000);
        assert_eq!(sim.total_drops, 0);
    }

    #[test]
    fn tcp_throughput_approaches_link_rate() {
        let (t, r) = net(1, GBIT);
        let mut sim = Sim::new(t.clone(), r, 2);
        let f = sim.start_tcp(t.hosts()[0], t.hosts()[1], None, None, None, 0);
        sim.run_until(2 * SECS);
        let st = sim.tcp_stats(f);
        let rate = mean_throughput_bps(&st, sim.now());
        // Goodput ≈ rate × MSS/(MSS+hdr) ≈ 0.965 Gbit/s; accept within 10%.
        assert!(rate > 0.85e9 && rate < 1.0e9, "rate = {rate}");
    }

    #[test]
    fn two_flows_share_bottleneck_fairly() {
        let (t, r) = net(2, GBIT);
        let mut sim = Sim::new(t.clone(), r, 3);
        let f1 = sim.start_tcp(t.hosts()[0], t.hosts()[2], None, None, None, 0);
        let f2 = sim.start_tcp(t.hosts()[1], t.hosts()[3], None, None, None, 0);
        sim.run_until(4 * SECS);
        let r1 = mean_throughput_bps(&sim.tcp_stats(f1), sim.now());
        let r2 = mean_throughput_bps(&sim.tcp_stats(f2), sim.now());
        let share = r1 / (r1 + r2);
        assert!(share > 0.35 && share < 0.65, "share = {share}, r1={r1}, r2={r2}");
        assert!(r1 + r2 > 0.8e9, "link well utilized: {}", r1 + r2);
    }

    #[test]
    fn shaper_limits_tcp_to_hose_rate() {
        let (t, r) = net(1, GBIT);
        let mut sim = Sim::new(t.clone(), r, 4);
        let hose = sim.add_shaper(300.0 * MBIT, 120_000.0, 1.0);
        let f = sim.start_tcp(t.hosts()[0], t.hosts()[1], None, Some(hose), None, 0);
        sim.run_until(3 * SECS);
        let rate = mean_throughput_bps(&sim.tcp_stats(f), sim.now());
        assert!(rate < 320.0 * MBIT, "rate = {rate}");
        assert!(rate > 250.0 * MBIT, "rate = {rate}");
    }

    #[test]
    fn colocated_flow_uses_loopback() {
        let (t, r) = net(2, GBIT);
        let mut sim = Sim::new(t.clone(), r, 5);
        let host = t.hosts()[0];
        let hose = sim.add_shaper(300.0 * MBIT, 120_000.0, 1.0);
        // Same host on both ends; shaper must be bypassed.
        let f = sim.start_tcp(host, host, None, Some(hose), None, 0);
        sim.run_until(SECS);
        let rate = mean_throughput_bps(&sim.tcp_stats(f), sim.now());
        assert!(rate > 3.0e9, "loopback should exceed NIC rate: {rate}");
    }

    #[test]
    fn train_report_counts_all_packets_when_unloaded() {
        let (t, r) = net(1, GBIT);
        let mut sim = Sim::new(t.clone(), r, 6);
        let cfg = TrainConfig { burst_len: 50, bursts: 4, ..Default::default() };
        let f = sim.start_train(t.hosts()[0], t.hosts()[1], cfg, None, 0);
        sim.run_until(SECS);
        let rep = sim.train_report(f);
        assert_eq!(rep.sent, 200);
        assert_eq!(rep.received(), 200);
        assert_eq!(rep.bursts.len(), 4);
        assert_eq!(rep.loss_rate(), 0.0);
    }

    #[test]
    fn train_burst_rate_reflects_bottleneck() {
        // Shared link at 500 Mbit/s; burst spacing at the receiver should
        // reflect that rate, not the 1 Gbit/s edge.
        let (t, r) = net(1, 500.0 * MBIT);
        let mut sim = Sim::new(t.clone(), r, 7);
        let cfg = TrainConfig { burst_len: 200, bursts: 5, ..Default::default() };
        let f = sim.start_train(t.hosts()[0], t.hosts()[1], cfg, None, 0);
        sim.run_until(SECS);
        let rep = sim.train_report(f);
        // Per-burst observed rate = bytes/(span) ≈ 500 Mbit/s.
        for b in &rep.bursts {
            let bits = (b.received as f64 - 1.0) * 1500.0 * 8.0;
            let rate = bits / (b.span() as f64 / 1e9);
            assert!((rate - 500e6).abs() / 500e6 < 0.05, "burst rate {rate}");
        }
    }

    #[test]
    fn onoff_source_toggles_and_creates_flows() {
        let (t, r) = net(2, GBIT);
        let mut sim = Sim::new(t.clone(), r, 8);
        sim.start_onoff(t.hosts()[0], t.hosts()[2], 100 * MILLIS, 100 * MILLIS, None, None, 0);
        sim.run_until(2 * SECS);
        let s = &sim.sources[0];
        assert!(s.on_periods >= 3, "should have toggled several times: {}", s.on_periods);
    }

    #[test]
    fn sampler_tracks_delivery() {
        let (t, r) = net(1, GBIT);
        let mut sim = Sim::new(t.clone(), r, 9);
        let f = sim.start_tcp(t.hosts()[0], t.hosts()[1], None, None, None, 0);
        let s = sim.add_sampler(f, 10 * MILLIS, SECS);
        sim.run_until(SECS);
        let rates = sim.sampler_rates(s);
        assert!(rates.len() > 90);
        // Steady-state samples should sit near line rate.
        let late: Vec<f64> = rates.iter().rev().take(20).map(|(_, r)| *r).collect();
        let avg = late.iter().sum::<f64>() / late.len() as f64;
        assert!(avg > 0.8e9, "avg late-sample rate {avg}");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let (t, r) = net(2, GBIT);
        let run = |seed| {
            let mut sim = Sim::new(t.clone(), r.clone(), seed);
            sim.start_onoff(t.hosts()[1], t.hosts()[3], 50 * MILLIS, 50 * MILLIS, None, None, 0);
            let f = sim.start_tcp(t.hosts()[0], t.hosts()[2], None, None, None, 0);
            sim.run_until(SECS);
            sim.tcp_stats(f).delivered_bytes
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn base_rtt_is_symmetric_and_positive() {
        let (t, r) = net(1, GBIT);
        let sim = Sim::new(t.clone(), r, 10);
        let a = t.hosts()[0];
        let b = t.hosts()[1];
        assert_eq!(sim.base_rtt(a, b), sim.base_rtt(b, a));
        assert!(sim.base_rtt(a, b) > 0);
        assert!(sim.base_rtt(a, a) > 0, "loopback RTT");
    }

    #[test]
    #[should_panic(expected = "no path from")]
    fn base_rtt_of_an_unroutable_pair_panics_by_name() {
        // Two islands: hosts with no link between them.
        let mut b = Topology::builder();
        let hosts = b.hosts(2, "h");
        let t = Arc::new(b.build());
        let r = Arc::new(RouteTable::new(&t));
        let sim = Sim::new(t, r, 11);
        sim.base_rtt(hosts[0], hosts[1]);
    }
}
