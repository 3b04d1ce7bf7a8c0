//! The packet level's fixed parameters and packet-train configuration.
//!
//! The paper fixes the TCP and queue parameters of its packet-level
//! ground truth once (§3.2), so they are constants here rather than
//! settable fields; co-located traffic uses
//! [`choreo_topology::LOOPBACK`]. Only a packet train's shape is
//! configured per call ([`TrainConfig`]), since the paper sweeps it.

use choreo_topology::{Nanos, MILLIS};

/// TCP maximum segment size (payload bytes per data packet).
pub const MSS: u32 = 1448;

/// Header overhead added to every data packet on the wire, bytes; a full
/// data segment is `MSS + HEADER_BYTES` = 1500 bytes.
pub const HEADER_BYTES: u32 = 52;

/// ACK packet wire size, bytes.
pub const ACK_BYTES: u32 = 52;

/// Initial congestion window, packets.
pub const INIT_CWND: f64 = 10.0;

/// Initial slow-start threshold, packets.
pub const INIT_SSTHRESH: f64 = 64.0;

/// Minimum retransmission timeout.
pub const MIN_RTO: Nanos = 5 * MILLIS;

/// Retransmission timeout before any RTT sample exists.
pub const INITIAL_RTO: Nanos = 20 * MILLIS;

/// Drop-tail queue capacity at switch ports, bytes.
pub const SWITCH_QUEUE_BYTES: u64 = 256 * 1024;

/// Drop-tail queue capacity at host NICs (and of each host's loopback),
/// bytes. Must comfortably hold one whole UDP packet-train burst: the
/// sender hands the burst to the NIC back-to-back.
pub const HOST_QUEUE_BYTES: u64 = 8 * 1024 * 1024;

/// Backlog capacity of every hose shaper, bytes: deep enough that the
/// limiter shapes (delays) a 2000-packet burst rather than dropping it.
pub const SHAPER_BACKLOG_BYTES: u64 = 32 << 20;

/// Parameters of one UDP packet train (paper §3.1, §4.1).
///
/// A train is `bursts` bursts of `burst_len` back-to-back packets of
/// `packet_bytes` each (wire size), with consecutive bursts separated by
/// `gap` ("δ") to avoid persistent congestion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Wire size of each probe packet (the paper uses 1472-byte payloads,
    /// i.e. 1500 bytes on the wire).
    pub packet_bytes: u32,
    /// Packets per burst (the paper sweeps 100–3800; 200 suits EC2, 2000
    /// suits Rackspace).
    pub burst_len: u32,
    /// Number of bursts (the paper settles on 10).
    pub bursts: u32,
    /// Gap between bursts (δ, 1 ms in the paper).
    pub gap: Nanos,
}

impl Default for TrainConfig {
    /// The paper's EC2 configuration: 10 bursts × 200 × 1500 B, δ = 1 ms.
    fn default() -> Self {
        TrainConfig { packet_bytes: 1500, burst_len: 200, bursts: 10, gap: MILLIS }
    }
}

impl TrainConfig {
    /// The paper's Rackspace configuration: 10 bursts × 2000 packets.
    pub fn rackspace() -> Self {
        TrainConfig { burst_len: 2000, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_ec2_configuration() {
        let c = TrainConfig::default();
        assert_eq!(c.packet_bytes, 1500);
        assert_eq!(c.burst_len, 200);
        assert_eq!(c.bursts, 10);
        assert_eq!(c.gap, MILLIS);
    }

    #[test]
    fn rackspace_config_uses_long_bursts() {
        let c = TrainConfig::rackspace();
        assert_eq!(c.burst_len, 2000);
        assert_eq!((c.packet_bytes, c.bursts, c.gap), (1500, 10, MILLIS));
    }

    #[test]
    fn data_packet_is_mss_plus_headers() {
        assert_eq!(MSS + HEADER_BYTES, 1500);
    }

    #[test]
    fn host_queue_holds_a_full_burst() {
        let train = TrainConfig::rackspace();
        assert!(HOST_QUEUE_BYTES >= (train.burst_len * train.packet_bytes) as u64);
    }
}
