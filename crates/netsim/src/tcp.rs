//! Simplified TCP Reno/NewReno, segment-granular.
//!
//! The paper's measurements (and its cross-traffic model, §3.2) rely on one
//! property of TCP: *bulk connections sharing a bottleneck split it roughly
//! evenly*. This module implements enough of Reno to get that emergent
//! behaviour from first principles: slow start, congestion avoidance, fast
//! retransmit after three duplicate ACKs, NewReno partial-ACK retransmission
//! during recovery, and exponential-backoff RTO — all over drop-tail queues.
//!
//! Sequence numbers count whole MSS-sized segments, not bytes; a flow of
//! `n` segments transfers `n × MSS` payload bytes. Logic is expressed as
//! pure state transitions returning [`TcpActions`], so the protocol can be
//! unit-tested without a simulator; `sim` executes the actions (emitting
//! packets, arming timers).

use std::collections::BTreeSet;

use choreo_topology::Nanos;

use crate::config::{INITIAL_RTO, INIT_CWND, INIT_SSTHRESH, MIN_RTO};

/// Sender + receiver state of one TCP connection.
#[derive(Debug)]
pub struct TcpFlow {
    /// Segments to transfer; `None` = unbounded (netperf-style).
    pub limit: Option<u64>,
    // ---- sender ----
    /// Next new segment to emit.
    pub next_seq: u64,
    /// Oldest unacknowledged segment.
    pub una: u64,
    /// Congestion window, segments (fractional during CA growth).
    pub cwnd: f64,
    /// Slow-start threshold, segments.
    pub ssthresh: f64,
    /// Consecutive duplicate ACKs seen.
    pub dupacks: u32,
    /// `Some(recover)` while in fast recovery, until `una >= recover`.
    pub recover: Option<u64>,
    /// Smoothed RTT (`None` before the first sample).
    pub srtt: Option<Nanos>,
    /// RTT variance.
    pub rttvar: Nanos,
    /// Current retransmission timeout (without backoff multiplier).
    pub rto: Nanos,
    /// Exponential backoff multiplier (doubles per timeout).
    pub backoff: u32,
    /// Timer generation; stale `TcpRto` events carry an older generation.
    pub rto_gen: u32,
    /// Outstanding RTT measurement: (segment, send time).
    pub rtt_probe: Option<(u64, Nanos)>,
    // ---- receiver ----
    /// Next in-order segment expected by the receiver.
    pub rcv_next: u64,
    /// Out-of-order segments buffered at the receiver.
    pub ooo: BTreeSet<u64>,
    // ---- lifecycle / stats ----
    /// Simulated start time.
    pub started_at: Nanos,
    /// Completion time (all segments acked), if finished.
    pub completed_at: Option<Nanos>,
    /// Retransmitted segment count.
    pub retransmits: u64,
}

/// Side effects the simulator must perform after a TCP state transition.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TcpActions {
    /// Segments to put on the wire (new or retransmitted), in order.
    pub emit: Vec<u64>,
    /// Restart the RTO timer (new generation).
    pub rearm_rto: bool,
    /// Stop the RTO timer (flow completed).
    pub cancel_rto: bool,
    /// The flow just completed.
    pub completed: bool,
}

impl TcpFlow {
    /// Fresh connection transferring `limit` segments (`None` = unbounded).
    pub fn new(limit: Option<u64>, now: Nanos) -> Self {
        TcpFlow {
            limit,
            next_seq: 0,
            una: 0,
            cwnd: INIT_CWND,
            ssthresh: INIT_SSTHRESH,
            dupacks: 0,
            recover: None,
            srtt: None,
            rttvar: 0,
            rto: INITIAL_RTO,
            backoff: 1,
            rto_gen: 0,
            rtt_probe: None,
            rcv_next: 0,
            ooo: BTreeSet::new(),
            started_at: now,
            completed_at: None,
            retransmits: 0,
        }
    }

    /// Segments in flight.
    pub fn flight(&self) -> u64 {
        self.next_seq - self.una
    }

    /// True once every segment of a bounded flow is acknowledged.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Effective RTO including backoff.
    pub fn rto_with_backoff(&self) -> Nanos {
        self.rto.saturating_mul(self.backoff as u64)
    }

    /// Collect the new segments the window currently permits, advancing
    /// `next_seq` and arming an RTT probe if none is outstanding.
    fn window_sends(&mut self, now: Nanos) -> Vec<u64> {
        let mut out = Vec::new();
        let cwnd = self.cwnd.floor().max(1.0) as u64;
        loop {
            if self.flight() >= cwnd {
                break;
            }
            if let Some(limit) = self.limit {
                if self.next_seq >= limit {
                    break;
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((seq, now));
            }
            out.push(seq);
        }
        out
    }

    /// Open the connection: emit the initial window.
    pub fn on_start(&mut self, now: Nanos) -> TcpActions {
        let emit = self.window_sends(now);
        TcpActions { rearm_rto: !emit.is_empty(), emit, ..Default::default() }
    }

    /// Sender receives a cumulative ACK for `ack` (next expected segment).
    pub fn on_ack(&mut self, ack: u64, now: Nanos) -> TcpActions {
        let mut actions = TcpActions::default();
        if self.is_complete() {
            return actions;
        }
        if ack > self.una {
            let newly = (ack - self.una) as f64;
            // RTT sampling (Karn: probe invalidated on retransmit).
            if let Some((pseq, sent)) = self.rtt_probe {
                if ack > pseq {
                    self.rtt_sample(now.saturating_sub(sent));
                    self.rtt_probe = None;
                }
            }
            self.una = ack;
            self.dupacks = 0;
            self.backoff = 1;
            match self.recover {
                Some(recover) if ack < recover => {
                    // NewReno partial ACK: retransmit the next hole,
                    // deflate by the amount acked.
                    actions.emit.push(self.una);
                    self.retransmits += 1;
                    self.rtt_probe = None;
                    self.cwnd = (self.cwnd - newly + 1.0).max(1.0);
                }
                Some(_) => {
                    // Recovery complete.
                    self.recover = None;
                    self.cwnd = self.ssthresh;
                }
                None => {
                    if self.cwnd < self.ssthresh {
                        self.cwnd += newly; // slow start
                    } else {
                        self.cwnd += newly / self.cwnd; // congestion avoidance
                    }
                }
            }
            if let Some(limit) = self.limit {
                if self.una >= limit {
                    self.completed_at = Some(now);
                    actions.completed = true;
                    actions.cancel_rto = true;
                    return actions;
                }
            }
            actions.emit.extend(self.window_sends(now));
            actions.rearm_rto = true;
        } else if ack == self.una && self.flight() > 0 {
            self.dupacks += 1;
            if self.recover.is_some() {
                // Window inflation per extra dupack.
                self.cwnd += 1.0;
                actions.emit.extend(self.window_sends(now));
            } else if self.dupacks == 3 {
                // Fast retransmit.
                self.ssthresh = (self.flight() as f64 / 2.0).max(2.0);
                self.recover = Some(self.next_seq);
                self.cwnd = self.ssthresh + 3.0;
                actions.emit.push(self.una);
                self.retransmits += 1;
                self.rtt_probe = None;
                actions.rearm_rto = true;
            }
        }
        actions
    }

    /// Retransmission timer fired (current generation).
    pub fn on_rto(&mut self, _now: Nanos) -> TcpActions {
        if self.is_complete() || self.flight() == 0 && self.limit.is_some_and(|l| self.una >= l) {
            return TcpActions::default();
        }
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.recover = None;
        self.dupacks = 0;
        self.backoff = self.backoff.saturating_mul(2).min(64);
        self.rtt_probe = None;
        self.retransmits += 1;
        TcpActions { emit: vec![self.una], rearm_rto: true, ..Default::default() }
    }

    /// Receiver accepts a data segment; returns the cumulative ACK to send.
    pub fn on_data(&mut self, seq: u64) -> u64 {
        if seq == self.rcv_next {
            self.rcv_next += 1;
            while self.ooo.remove(&self.rcv_next) {
                self.rcv_next += 1;
            }
        } else if seq > self.rcv_next {
            self.ooo.insert(seq);
        }
        self.rcv_next
    }

    /// Jacobson/Karels RTT estimation.
    fn rtt_sample(&mut self, sample: Nanos) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let err = srtt.abs_diff(sample);
                self.rttvar = (3 * self.rttvar + err) / 4;
                self.srtt = Some((7 * srtt + sample) / 8);
            }
        }
        let srtt = self.srtt.expect("just set");
        self.rto = (srtt + 4 * self.rttvar).max(MIN_RTO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_window_emits_init_cwnd_segments() {
        let mut f = TcpFlow::new(Some(100), 0);
        let a = f.on_start(0);
        assert_eq!(a.emit.len(), INIT_CWND as usize);
        assert_eq!(a.emit, (0..10).collect::<Vec<_>>());
        assert!(a.rearm_rto);
        assert_eq!(f.flight(), 10);
    }

    #[test]
    fn short_flow_emits_only_limit() {
        let mut f = TcpFlow::new(Some(3), 0);
        let a = f.on_start(0);
        assert_eq!(a.emit, vec![0, 1, 2]);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut f = TcpFlow::new(None, 0);
        f.on_start(0);
        // ACK all 10: cwnd 10 -> 20, emits 20 more.
        let a = f.on_ack(10, 1000);
        assert_eq!(f.cwnd, 20.0);
        assert_eq!(a.emit.len(), 20);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut f = TcpFlow::new(None, 0);
        f.ssthresh = 4.0;
        f.cwnd = 4.0;
        f.on_start(0);
        f.on_ack(4, 1000);
        // 4 acks worth: cwnd += 4/4 = 1.
        assert!((f.cwnd - 5.0).abs() < 1e-9);
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut f = TcpFlow::new(None, 0);
        f.on_start(0); // emits 0..10, flight 10
        assert_eq!(f.on_ack(0, 1).emit, Vec::<u64>::new());
        assert_eq!(f.on_ack(0, 2).emit, Vec::<u64>::new());
        let a = f.on_ack(0, 3);
        assert_eq!(a.emit, vec![0], "retransmit the hole");
        assert_eq!(f.retransmits, 1);
        assert!(f.recover.is_some());
        assert_eq!(f.ssthresh, 5.0);
        assert_eq!(f.cwnd, 8.0); // ssthresh + 3
    }

    #[test]
    fn full_ack_exits_recovery_at_ssthresh() {
        let mut f = TcpFlow::new(None, 0);
        f.on_start(0);
        for _ in 0..3 {
            f.on_ack(0, 1);
        }
        assert!(f.recover.is_some());
        let recover = f.recover.unwrap();
        f.on_ack(recover, 10);
        assert!(f.recover.is_none());
        assert_eq!(f.cwnd, f.ssthresh);
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut f = TcpFlow::new(None, 0);
        f.on_start(0); // 0..10
        for _ in 0..3 {
            f.on_ack(0, 1);
        }
        // Partial ack up to 4 (recover is 10).
        let a = f.on_ack(4, 2);
        assert_eq!(a.emit.first(), Some(&4), "NewReno retransmits the next hole");
        assert!(f.recover.is_some(), "still in recovery");
    }

    #[test]
    fn rto_collapses_window_and_backs_off() {
        let mut f = TcpFlow::new(None, 0);
        f.on_start(0);
        let a = f.on_rto(1_000_000);
        assert_eq!(a.emit, vec![0]);
        assert_eq!(f.cwnd, 1.0);
        assert_eq!(f.backoff, 2);
        let _ = f.on_rto(2_000_000);
        assert_eq!(f.backoff, 4);
        // Backoff resets on forward progress.
        f.on_ack(1, 3_000_000);
        assert_eq!(f.backoff, 1);
    }

    #[test]
    fn completion_fires_once_all_acked() {
        let mut f = TcpFlow::new(Some(5), 0);
        f.on_start(0);
        let a = f.on_ack(5, 500);
        assert!(a.completed);
        assert!(a.cancel_rto);
        assert_eq!(f.completed_at, Some(500));
        // Further ACKs are no-ops.
        assert_eq!(f.on_ack(5, 600), TcpActions::default());
    }

    #[test]
    fn receiver_reorders_out_of_order_segments() {
        let mut f = TcpFlow::new(None, 0);
        assert_eq!(f.on_data(0), 1);
        assert_eq!(f.on_data(2), 1, "gap: cumulative ack stays");
        assert_eq!(f.on_data(3), 1);
        assert_eq!(f.on_data(1), 4, "hole filled: ack jumps");
        assert!(f.ooo.is_empty());
    }

    #[test]
    fn duplicate_data_does_not_advance() {
        let mut f = TcpFlow::new(None, 0);
        f.on_data(0);
        assert_eq!(f.on_data(0), 1);
        assert_eq!(f.rcv_next, 1);
    }

    #[test]
    fn rtt_estimator_sets_rto() {
        let mut f = TcpFlow::new(None, 0);
        f.rtt_sample(1_000_000); // 1 ms
        assert_eq!(f.srtt, Some(1_000_000));
        // rto = max(srtt + 4*rttvar, min_rto) = max(3ms, 5ms) = 5ms.
        assert_eq!(f.rto, MIN_RTO);
        f.rtt_sample(100_000_000); // wild 100 ms sample
        assert!(f.rto > MIN_RTO);
    }

    #[test]
    fn karn_invalidates_probe_on_retransmit() {
        let mut f = TcpFlow::new(None, 0);
        f.on_start(0);
        assert!(f.rtt_probe.is_some());
        for _ in 0..3 {
            f.on_ack(0, 1);
        }
        assert!(f.rtt_probe.is_none(), "probe dropped after fast retransmit");
    }

    #[test]
    fn unbounded_flow_never_completes() {
        let mut f = TcpFlow::new(None, 0);
        f.on_start(0);
        let a = f.on_ack(10, 1);
        assert!(!a.completed);
        assert!(!f.is_complete());
    }
}
