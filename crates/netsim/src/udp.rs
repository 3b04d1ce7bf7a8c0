//! UDP packet-train sender/receiver state (paper §3.1).
//!
//! The sender emits `K` bursts of `B` back-to-back `P`-byte packets,
//! separated by δ. The receiver records, per burst, the kernel timestamps of
//! the first and last packet received, the packet count, and which sequence
//! numbers framed the burst — enough for the estimator to apply the paper's
//! correction when a burst's head or tail packet was lost.

use choreo_topology::Nanos;

use crate::config::TrainConfig;

/// Receiver-side record of one burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstRecord {
    /// Burst index within the train.
    pub burst: u32,
    /// Timestamp of the first packet received for this burst.
    pub first_rx: Nanos,
    /// Timestamp of the last packet received so far.
    pub last_rx: Nanos,
    /// Packets received (`n_i ≤ B`).
    pub received: u32,
    /// Smallest in-burst sequence number seen.
    pub min_idx: u32,
    /// Largest in-burst sequence number seen.
    pub max_idx: u32,
}

impl BurstRecord {
    /// Observed receive duration `t_i` (last − first).
    pub fn span(&self) -> Nanos {
        self.last_rx.saturating_sub(self.first_rx)
    }

    /// True if the burst's first packet (idx 0) was lost.
    pub fn lost_head(&self) -> bool {
        self.min_idx > 0
    }

    /// True if the burst's last packet (idx B−1) was lost.
    pub fn lost_tail(&self, burst_len: u32) -> bool {
        self.max_idx + 1 < burst_len
    }
}

/// Full receiver-side report for one train.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Train configuration (as sent).
    pub config: TrainConfig,
    /// Records for bursts that had at least one packet arrive, by index.
    pub bursts: Vec<BurstRecord>,
    /// Packets handed to the network by the sender.
    pub sent: u64,
    /// Base (unloaded) round-trip time of the path, for the Mathis cap.
    pub base_rtt: Nanos,
}

impl TrainReport {
    /// Total packets received across bursts.
    pub fn received(&self) -> u64 {
        self.bursts.iter().map(|b| b.received as u64).sum()
    }

    /// Overall loss rate across the train.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - self.received() as f64 / self.sent as f64
    }
}

/// Sender + receiver state for an in-flight train.
#[derive(Debug)]
pub struct TrainState {
    /// Train parameters.
    pub config: TrainConfig,
    /// Next burst index the sender will emit.
    pub next_burst: u32,
    /// Packets emitted so far.
    pub sent: u64,
    /// Per-burst receive records (sparse; filled as packets arrive).
    pub records: Vec<Option<BurstRecord>>,
    /// Measured base RTT filled in by the simulator at creation.
    pub base_rtt: Nanos,
}

impl TrainState {
    /// Fresh train.
    pub fn new(config: TrainConfig, base_rtt: Nanos) -> Self {
        let n = config.bursts as usize;
        TrainState { config, next_burst: 0, sent: 0, records: vec![None; n], base_rtt }
    }

    /// Receiver accepts probe (burst, idx) at time `now`.
    pub fn on_probe(&mut self, burst: u32, idx: u32, now: Nanos) {
        let slot = &mut self.records[burst as usize];
        match slot {
            None => {
                *slot = Some(BurstRecord {
                    burst,
                    first_rx: now,
                    last_rx: now,
                    received: 1,
                    min_idx: idx,
                    max_idx: idx,
                });
            }
            Some(r) => {
                r.last_rx = now;
                r.received += 1;
                r.min_idx = r.min_idx.min(idx);
                r.max_idx = r.max_idx.max(idx);
            }
        }
    }

    /// Snapshot the receiver-side report.
    pub fn report(&self) -> TrainReport {
        TrainReport {
            config: self.config,
            bursts: self.records.iter().flatten().copied().collect(),
            sent: self.sent,
            base_rtt: self.base_rtt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TrainConfig {
        TrainConfig { packet_bytes: 1500, burst_len: 4, bursts: 2, gap: 1_000_000 }
    }

    #[test]
    fn records_first_last_and_count() {
        let mut st = TrainState::new(small_config(), 1000);
        st.on_probe(0, 0, 100);
        st.on_probe(0, 1, 200);
        st.on_probe(0, 3, 450);
        let r = st.records[0].unwrap();
        assert_eq!(r.first_rx, 100);
        assert_eq!(r.last_rx, 450);
        assert_eq!(r.received, 3);
        assert_eq!(r.span(), 350);
    }

    #[test]
    fn head_and_tail_loss_detection() {
        let mut st = TrainState::new(small_config(), 1000);
        st.on_probe(0, 1, 100);
        st.on_probe(0, 2, 200);
        let r = st.records[0].unwrap();
        assert!(r.lost_head());
        assert!(r.lost_tail(4));
        st.on_probe(1, 0, 300);
        st.on_probe(1, 3, 400);
        let r1 = st.records[1].unwrap();
        assert!(!r1.lost_head());
        assert!(!r1.lost_tail(4));
    }

    #[test]
    fn report_aggregates_loss() {
        let mut st = TrainState::new(small_config(), 1000);
        st.sent = 8;
        st.on_probe(0, 0, 1);
        st.on_probe(0, 1, 2);
        st.on_probe(1, 0, 3);
        st.on_probe(1, 1, 4);
        st.on_probe(1, 2, 5);
        st.on_probe(1, 3, 6);
        let rep = st.report();
        assert_eq!(rep.received(), 6);
        assert!((rep.loss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(rep.bursts.len(), 2);
    }

    #[test]
    fn missing_burst_absent_from_report() {
        let mut st = TrainState::new(small_config(), 1000);
        st.sent = 8;
        st.on_probe(1, 2, 5);
        let rep = st.report();
        assert_eq!(rep.bursts.len(), 1);
        assert_eq!(rep.bursts[0].burst, 1);
    }
}
