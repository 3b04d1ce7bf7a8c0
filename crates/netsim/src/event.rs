//! The events the simulator schedules. They wait in a
//! [`choreo_topology::TimerQueue`], which fires events due at the same
//! instant in the order they were scheduled.

use crate::packet::Packet;

/// Events the simulator processes.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// A transmission resource (directed link, loopback, or shaper drain
    /// slot) finished serializing its head packet.
    TxDone {
        /// Flattened resource index (see `sim::Res`).
        res: u32,
    },
    /// A packet arrives at the node at the end of its current hop.
    Arrive {
        /// The arriving packet.
        pkt: Packet,
    },
    /// Token-bucket shaper has accumulated enough tokens for its head packet.
    ShaperReady {
        /// Shaper index.
        shaper: u32,
    },
    /// TCP retransmission timeout.
    TcpRto {
        /// Flow index.
        flow: u32,
        /// Generation stamp; stale timers (generation mismatch) are ignored.
        gen: u32,
    },
    /// Emit the next burst of a UDP packet train.
    UdpBurst {
        /// Flow index.
        flow: u32,
        /// Burst index to emit.
        burst: u32,
    },
    /// An ON–OFF source toggles state.
    OnOffToggle {
        /// Source index.
        source: u32,
    },
    /// Periodic throughput sampler tick.
    Sample {
        /// Sampler index.
        sampler: u32,
    },
    /// Deferred flow start.
    FlowStart {
        /// Flow index.
        flow: u32,
    },
}
