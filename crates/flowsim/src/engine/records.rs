//! Keys, flow records and their recycling, the slot-indexed columns,
//! activation and retirement.
//!
//! Invariant: a [`FlowKey`] addresses its record only while the record's
//! generation matches, and a record is in the arena (holds a slot) exactly
//! while it is `Active`; its rate and byte counter then live in the slot
//! columns, and eviction settles the bytes and returns the slot to 0.

use rand::Rng;

use choreo_topology::route::splitmix64;
use choreo_topology::{Nanos, NodeId};

use super::{hop_resource, FlowSim, HoseId};
use crate::fairshare::FlowSlot;

/// Handle to a flow in a [`FlowSim`].
///
/// The raw `u32` packs a **record index** (low `KEY_INDEX_BITS` bits)
/// and a **generation stamp** (high bits). Retiring a flow and releasing
/// its record ([`FlowSim::release_flow`]) bumps the record's generation,
/// so any key minted before the release no longer matches: using it is a
/// *checked* error (panic with a "stale FlowKey" message), never a silent
/// read of whichever flow reused the record. Treat the inner value as
/// opaque — only keys returned by the simulator are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey(pub u32);

/// Low bits of a [`FlowKey`] that address the flow record. 22 bits allow
/// ~4M concurrently allocated records; the remaining 10 bits carry the
/// generation stamp.
pub(super) const KEY_INDEX_BITS: u32 = 22;
const KEY_INDEX_MASK: u32 = (1 << KEY_INDEX_BITS) - 1;
/// Generations wrap after 1024 releases of one record; a key must be both
/// stale *and* exactly 1024·k releases old to slip past the check, which
/// is far outside any key-holding window the engine's callers have.
const KEY_GEN_MASK: u32 = (1 << (32 - KEY_INDEX_BITS)) - 1;

impl FlowKey {
    #[inline]
    fn pack(index: u32, generation: u32) -> FlowKey {
        FlowKey((generation << KEY_INDEX_BITS) | index)
    }
    #[inline]
    pub(super) fn index(self) -> u32 {
        self.0 & KEY_INDEX_MASK
    }
    #[inline]
    fn generation(self) -> u32 {
        self.0 >> KEY_INDEX_BITS
    }
}

/// Lifecycle state of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStatus {
    /// Scheduled but not yet started.
    Pending,
    /// Transferring.
    Active,
    /// Finished (bounded flows) or stopped; carries the end time.
    Done(Nanos),
}

/// Sentinel for "flow not in the arena".
pub(super) const NO_SLOT: u32 = u32::MAX;

#[derive(Debug)]
pub(super) struct Flow {
    pub(super) resources: Vec<u32>,
    /// Arena slot while the flow is active; `NO_SLOT` otherwise.
    pub(super) slot: u32,
    /// Remaining payload bytes; `None` = unbounded.
    pub(super) remaining: Option<f64>,
    /// Delivered bytes as of eviction from the arena. While the flow is
    /// live the counter is `FlowSim::delivered[slot]`; this is 0 until it
    /// is settled here.
    pub(super) delivered: f64,
    pub(super) status: FlowStatus,
    /// Caller-assigned grouping tag (e.g. application id).
    pub(super) tag: u64,
    /// Generation stamp a [`FlowKey`] must match to address this record;
    /// bumped on every release so stale keys are rejected.
    pub(super) generation: u32,
}

impl FlowSim {
    pub(super) fn host_loopback_res(&self, host: NodeId) -> u32 {
        (self.topo.link_count() * 2 + self.routes.host_index(host)) as u32
    }

    /// Fill `buf` with the resource list of a flow from `src` to `dst`.
    /// `seq` is the all-time arrival counter (record indices are recycled
    /// and must not seed the ECMP hash).
    fn fill_resources(
        &mut self,
        buf: &mut Vec<u32>,
        src: NodeId,
        dst: NodeId,
        hose: Option<HoseId>,
        seq: u64,
    ) {
        buf.clear();
        if src == dst {
            // Co-located: loopback only; hose bypassed (hypervisor-local).
            buf.push(self.host_loopback_res(src));
            return;
        }
        let hash = splitmix64((seq << 32) | self.rng.gen::<u32>() as u64);
        let path = self.routes.path_for_flow(src, dst, hash);
        buf.extend(path.hops().iter().map(hop_resource));
        if let Some(h) = hose {
            buf.push(h.0);
        }
    }

    /// Resolve a key to its record index, panicking on a generation
    /// mismatch (use-after-release, double release, or a forged key).
    #[inline]
    pub(super) fn idx(&self, key: FlowKey) -> usize {
        let i = key.index() as usize;
        assert!(
            i < self.flows.len() && self.flows[i].generation == key.generation(),
            "stale FlowKey: the flow record was released (or the key is forged)"
        );
        i
    }

    /// Like [`FlowSim::idx`] but `None` for stale keys — the event heap
    /// may legitimately hold keys whose flows were released after they
    /// retired, and those events must become no-ops.
    #[inline]
    pub(super) fn live_idx(&self, key: FlowKey) -> Option<usize> {
        let i = key.index() as usize;
        (i < self.flows.len() && self.flows[i].generation == key.generation()).then_some(i)
    }

    /// Put an activating flow into the arena. Its slot's columns already
    /// read 0 (vacant slots always do): no rate until the next solve,
    /// nothing delivered yet.
    pub(super) fn arena_insert(&mut self, index: usize) {
        let f = &mut self.flows[index];
        let slot = self.arena.add(&f.resources);
        f.slot = slot.0;
        let s = slot.0 as usize;
        if self.slot_owner.len() <= s {
            self.slot_owner.resize(s + 1, NO_SLOT);
            self.rates.resize(s + 1, 0.0);
            self.delivered.resize(s + 1, 0.0);
        }
        self.slot_owner[s] = index as u32;
        if f.remaining.is_some() {
            self.bounded.push(slot.0);
        }
        self.peak_active = self.peak_active.max(self.arena.n_flows());
    }

    /// Drop a deactivating flow from the arena, settling its byte counter
    /// into the record and returning its slot's columns to 0.
    fn arena_evict(&mut self, index: usize) {
        let f = &mut self.flows[index];
        if f.slot != NO_SLOT {
            let s = f.slot as usize;
            self.arena.remove(FlowSlot(f.slot));
            self.slot_owner[s] = NO_SLOT;
            f.delivered = std::mem::take(&mut self.delivered[s]);
            self.rates[s] = 0.0;
            if f.remaining.is_some() {
                // A linear search, but over the bounded flows only — the
                // online path has none, and the scans this list replaced
                // walked every slot on every event.
                let at = self.bounded.iter().position(|&b| b == f.slot);
                self.bounded.swap_remove(at.expect("live bounded flows are listed"));
            }
            f.slot = NO_SLOT;
        }
    }

    /// Construct a `Pending` flow record — reusing a released record when
    /// one is free — and return its generation-stamped key. The caller
    /// decides how the flow enters the simulation (scheduled via the
    /// event heap, or activated on the spot).
    pub(super) fn push_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        hose: Option<HoseId>,
        tag: u64,
    ) -> FlowKey {
        self.flow_seq += 1;
        let seq = self.flow_seq;
        let index = match self.free_flows.pop() {
            Some(i) => i as usize,
            None => {
                assert!(
                    self.flows.len() < KEY_INDEX_MASK as usize,
                    "flow record index space exhausted (release retired flows)"
                );
                self.flows.push(Flow {
                    resources: Vec::new(),
                    slot: NO_SLOT,
                    remaining: None,
                    delivered: 0.0,
                    status: FlowStatus::Pending,
                    tag: 0,
                    generation: 0,
                });
                self.flows.len() - 1
            }
        };
        // Reuse the record's resource buffer in place (no per-flow Vec).
        let mut resources = std::mem::take(&mut self.flows[index].resources);
        self.fill_resources(&mut resources, src, dst, hose, seq);
        let f = &mut self.flows[index];
        let generation = f.generation;
        *f = Flow {
            resources,
            slot: NO_SLOT,
            remaining: bytes.map(|b| b as f64),
            delivered: 0.0,
            status: FlowStatus::Pending,
            tag,
            generation,
        };
        if bytes.is_some() {
            self.unfinished_bounded += 1;
        }
        FlowKey::pack(index as u32, generation)
    }

    /// Transition a pending/active flow to `Done` at the current time:
    /// arena slot evicted (rate zeroed, byte counter settled). No-op if
    /// the flow already retired.
    pub(super) fn retire(&mut self, index: usize) {
        let f = &mut self.flows[index];
        if !matches!(f.status, FlowStatus::Pending | FlowStatus::Active) {
            return;
        }
        f.status = FlowStatus::Done(self.now);
        if f.remaining.is_some() {
            self.unfinished_bounded -= 1;
        }
        self.arena_evict(index);
    }

    pub(super) fn release_index(&mut self, index: usize) {
        let f = &mut self.flows[index];
        assert!(
            matches!(f.status, FlowStatus::Done(_)),
            "only a retired (Done) flow's record can be released"
        );
        f.generation = (f.generation + 1) & KEY_GEN_MASK;
        self.free_flows.push(index as u32);
    }

    /// Release a retired flow's record for reuse.
    ///
    /// Harvest whatever stats you need first
    /// ([`FlowSim::delivered_bytes`], [`FlowSim::completion_time`], …):
    /// after the release the key — and every copy of it — is **stale**,
    /// and any use panics. Releasing a flow that is still pending or
    /// active (stop it first) or releasing twice is also a panic. Callers
    /// that never release simply keep the pre-recycling behavior of an
    /// append-only record table, with an identical trajectory.
    pub fn release_flow(&mut self, key: FlowKey) {
        let i = self.idx(key);
        self.release_index(i);
    }

    /// Release a batch of retired flows ([`FlowSim::release_flow`]).
    pub fn release_flows(&mut self, keys: &[FlowKey]) {
        for &k in keys {
            self.release_flow(k);
        }
    }

    /// Start a flow **immediately**: the flow goes straight into the
    /// arena as `Active` at the current time, skipping the event heap.
    ///
    /// This is the online placement service's admission hook — a placed
    /// tenant's transfers become visible to the very next probe without
    /// an event-heap round trip, and a tenant's whole flow set lands in
    /// one arena dirty window, so the next reallocation is a single warm
    /// delta solve covering all of them.
    pub fn start_flow_now(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        hose: Option<HoseId>,
        tag: u64,
    ) -> FlowKey {
        let key = self.push_flow(src, dst, bytes, hose, tag);
        // Same transition the `Ev::Start` dispatch performs, minus the
        // heap round trip.
        let i = key.index() as usize;
        self.flows[i].status = FlowStatus::Active;
        self.arena_insert(i);
        key
    }

    /// Stop a set of flows **immediately** (tenant teardown): every
    /// pending or active flow in `keys` is marked done at the current
    /// time and evicted from the arena, accumulating one combined dirty
    /// window — the next reallocation is a single warm delta solve over
    /// the whole departure instead of one per flow.
    pub fn stop_flows_now(&mut self, keys: &[FlowKey]) {
        for &key in keys {
            let i = self.idx(key);
            self.retire(i);
        }
    }
}
