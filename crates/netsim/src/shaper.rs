//! Token-bucket egress shapers: the hose model.
//!
//! §4.3/§4.4 of the paper conclude that both EC2 and Rackspace rate-limit
//! each VM's *outgoing* traffic (a hose model [Duffield et al.]): concurrent
//! connections out of the same VM always interfere, connections between four
//! distinct VMs never do. We model the limiter as a token bucket in front of
//! the host NIC:
//!
//! * `rate_bps` — steady-state hose rate (≈1 Gbit/s EC2, 300 Mbit/s
//!   Rackspace);
//! * `depth_bytes` — burst allowance at line rate. A deep bucket is why
//!   short packet trains **overestimate** Rackspace throughput (Fig. 6b):
//!   a 200-packet burst fits in the bucket and exits at NIC line rate,
//!   whereas 2000-packet bursts are dominated by the token rate.
//!
//! The shaper *shapes* (queues) rather than polices (drops) until its buffer
//! overflows, then drops — matching observed cloud behaviour where moderate
//! bursts are delayed, not lost.

use std::collections::VecDeque;

use choreo_topology::Nanos;

use crate::packet::Packet;

/// Index of a shaper inside a [`crate::Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShaperId(pub u32);

/// Outcome of offering a packet to a shaper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShaperVerdict {
    /// Enough tokens: forward to the NIC immediately.
    Pass,
    /// Queued; a `ShaperReady` event is (or was already) needed at the
    /// returned absolute time.
    Hold(Option<Nanos>),
    /// Shaper buffer overflow.
    Dropped,
}

/// A token-bucket shaper with a FIFO backlog.
#[derive(Debug)]
pub struct TokenBucket {
    /// Token accrual rate (the hose rate), bits/s.
    pub rate_bps: f64,
    /// Bucket depth, bytes.
    pub depth_bytes: f64,
    /// Backlog capacity, bytes.
    pub cap_bytes: u64,
    /// Refill-rate multiplier applied while the shaper is idle (empty
    /// backlog). Hypervisor credit schedulers let idle VMs accrue credit
    /// faster than the steady rate; this is what makes short packet-train
    /// bursts see near-line-rate on Rackspace (Fig. 6b) — each burst
    /// arrives to a partially re-earned credit balance.
    pub idle_refill_mult: f64,
    tokens: f64,
    last_refill: Nanos,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    /// True while a `ShaperReady` event is pending (avoid duplicates).
    armed: bool,
    /// Packets dropped on buffer overflow.
    pub drops: u64,
}

impl TokenBucket {
    /// New shaper with a full bucket and an idle refill multiplier (≥ 1;
    /// 1 refills at the steady rate).
    pub fn new(rate_bps: f64, depth_bytes: f64, cap_bytes: u64, idle_refill_mult: f64) -> Self {
        assert!(rate_bps > 0.0 && depth_bytes >= 0.0 && idle_refill_mult >= 1.0);
        TokenBucket {
            rate_bps,
            depth_bytes,
            cap_bytes,
            idle_refill_mult,
            tokens: depth_bytes,
            last_refill: 0,
            queue: VecDeque::new(),
            queued_bytes: 0,
            armed: false,
            drops: 0,
        }
    }

    /// Refill tokens for the window since the last refill. Every queue
    /// mutation is immediately preceded by a refill at the same timestamp,
    /// so the queue's emptiness has been constant across the window and
    /// selects the refill rate (idle multiplier vs steady rate).
    fn refill(&mut self, now: Nanos) {
        if now > self.last_refill {
            let dt = (now - self.last_refill) as f64 / 1e9;
            let rate = if self.queue.is_empty() {
                self.rate_bps * self.idle_refill_mult
            } else {
                self.rate_bps
            };
            self.tokens = (self.tokens + dt * rate / 8.0).min(self.depth_bytes);
            self.last_refill = now;
        }
    }

    /// Absolute time at which `need` tokens will be available.
    fn ready_at(&self, now: Nanos, need: f64) -> Nanos {
        if self.tokens >= need {
            return now;
        }
        let deficit = need - self.tokens;
        now + ((deficit * 8.0 / self.rate_bps) * 1e9).ceil() as Nanos
    }

    /// Offer a packet at time `now`.
    pub fn offer(&mut self, now: Nanos, pkt: Packet) -> ShaperVerdict {
        self.refill(now);
        let need = pkt.size as f64;
        if self.queue.is_empty() && self.tokens >= need {
            self.tokens -= need;
            return ShaperVerdict::Pass;
        }
        if self.queued_bytes + pkt.size as u64 > self.cap_bytes {
            self.drops += 1;
            return ShaperVerdict::Dropped;
        }
        self.queued_bytes += pkt.size as u64;
        self.queue.push_back(pkt);
        if self.armed {
            ShaperVerdict::Hold(None)
        } else {
            self.armed = true;
            let head = self.queue.front().expect("just pushed").size as f64;
            ShaperVerdict::Hold(Some(self.ready_at(now, head)))
        }
    }

    /// Handle a `ShaperReady` event: release every packet the current token
    /// balance covers; if a backlog remains, return the next ready time.
    pub fn drain(&mut self, now: Nanos) -> (Vec<Packet>, Option<Nanos>) {
        self.armed = false;
        self.refill(now);
        let mut out = Vec::new();
        while let Some(head) = self.queue.front() {
            let need = head.size as f64;
            if self.tokens >= need {
                self.tokens -= need;
                self.queued_bytes -= head.size as u64;
                out.push(self.queue.pop_front().expect("non-empty"));
            } else {
                break;
            }
        }
        let next = match self.queue.front() {
            Some(head) => {
                let at = self.ready_at(now, head.size as f64);
                self.armed = true;
                Some(at)
            }
            None => None,
        };
        (out, next)
    }

    /// Bytes waiting in the shaper.
    pub fn backlog_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Current token balance (bytes), after refilling to `now`.
    pub fn tokens_at(&mut self, now: Nanos) -> f64 {
        self.refill(now);
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PktKind};
    use choreo_topology::{MBIT, SECS};

    fn pkt(size: u32) -> Packet {
        Packet {
            flow: FlowId(0),
            kind: PktKind::Probe { burst: 0, idx: 0 },
            size,
            hop: 0,
            reverse: false,
        }
    }

    #[test]
    fn full_bucket_passes_burst_up_to_depth() {
        let mut tb = TokenBucket::new(300.0 * MBIT, 3000.0, 1 << 20, 1.0);
        assert_eq!(tb.offer(0, pkt(1500)), ShaperVerdict::Pass);
        assert_eq!(tb.offer(0, pkt(1500)), ShaperVerdict::Pass);
        // Bucket exhausted: third packet is held.
        match tb.offer(0, pkt(1500)) {
            ShaperVerdict::Hold(Some(at)) => {
                // 1500 B at 300 Mbit/s = 40 µs.
                assert_eq!(at, 40_000);
            }
            other => panic!("expected Hold(Some), got {other:?}"),
        }
    }

    #[test]
    fn tokens_refill_at_rate() {
        let mut tb = TokenBucket::new(8.0 * MBIT, 10_000.0, 1 << 20, 1.0);
        tb.offer(0, pkt(10_000)); // drain the bucket
        assert!(tb.tokens_at(0) < 1.0);
        // 8 Mbit/s = 1 MB/s: after 5 ms we have 5000 bytes.
        let t = tb.tokens_at(5_000_000);
        assert!((t - 5000.0).abs() < 1.0, "tokens = {t}");
    }

    #[test]
    fn drain_releases_exactly_what_tokens_cover() {
        let mut tb = TokenBucket::new(8.0 * MBIT, 1500.0, 1 << 20, 1.0);
        tb.offer(0, pkt(1500)); // pass, empties bucket
        let h1 = tb.offer(0, pkt(1500));
        let h2 = tb.offer(0, pkt(1500));
        assert!(matches!(h1, ShaperVerdict::Hold(Some(_))));
        assert_eq!(h2, ShaperVerdict::Hold(None)); // already armed

        // At 1 MB/s, 1500 bytes take 1.5 ms.
        let (released, next) = tb.drain(1_500_000);
        assert_eq!(released.len(), 1);
        assert!(next.is_some());
        let (released, next) = tb.drain(3_000_000);
        assert_eq!(released.len(), 1);
        assert_eq!(next, None);
        assert_eq!(tb.backlog_bytes(), 0);
    }

    #[test]
    fn overflow_drops() {
        let mut tb = TokenBucket::new(8.0 * MBIT, 0.0, 2000, 1.0);
        assert!(matches!(tb.offer(0, pkt(1500)), ShaperVerdict::Hold(Some(_))));
        assert_eq!(tb.offer(0, pkt(1500)), ShaperVerdict::Dropped);
        assert_eq!(tb.drops, 1);
    }

    #[test]
    fn bucket_never_exceeds_depth() {
        let mut tb = TokenBucket::new(1000.0 * MBIT, 5000.0, 1 << 20, 1.0);
        let t = tb.tokens_at(100 * SECS);
        assert!(t <= 5000.0);
    }

    #[test]
    fn idle_refill_accrues_faster_when_empty() {
        // 8 Mbit/s (1 MB/s) with 4x idle refill and a deep bucket.
        let mut tb = TokenBucket::new(8.0 * MBIT, 1e9, 1 << 20, 4.0);
        tb.offer(0, pkt(1_000_000)); // consume 1 MB from a (clamped) bucket
        let before = tb.tokens_at(0);
        // Empty queue: 1 ms accrues 4 KB instead of 1 KB.
        let after = tb.tokens_at(1_000_000);
        assert!((after - before - 4000.0).abs() < 1.0, "got {}", after - before);
    }

    #[test]
    fn busy_refill_stays_at_token_rate() {
        let mut tb = TokenBucket::new(8.0 * MBIT, 10_000.0, 1 << 20, 4.0);
        tb.offer(0, pkt(10_000)); // drains bucket, passes
        tb.offer(0, pkt(10_000)); // held: queue now non-empty
        assert!(tb.backlog_bytes() > 0);
        // Busy: 1 ms accrues only 1 KB.
        let t = tb.tokens_at(1_000_000);
        assert!((t - 1000.0).abs() < 1.0, "got {t}");
    }

    #[test]
    fn steady_state_rate_equals_token_rate() {
        // Offer a long back-to-back burst; measure drain completion time.
        let rate = 300.0 * MBIT;
        let mut tb = TokenBucket::new(rate, 15_000.0, 64 << 20, 1.0);
        let n = 2000u32;
        let mut passed = 0u32;
        for _ in 0..n {
            if tb.offer(0, pkt(1500)) == ShaperVerdict::Pass {
                passed += 1;
            }
        }
        assert!(passed <= 10, "only the bucket depth passes instantly");
        // Drain repeatedly until empty, tracking the finish time.
        let mut now = 0;
        let mut released = passed as usize;
        loop {
            let (out, next) = tb.drain(now);
            released += out.len();
            match next {
                Some(t) => now = t,
                None => break,
            }
        }
        assert_eq!(released, n as usize);
        let total_bits = n as f64 * 1500.0 * 8.0;
        let measured = total_bits / (now as f64 / 1e9);
        // Within 2% of the token rate (bucket head start shrinks with n).
        assert!((measured - rate).abs() / rate < 0.02, "measured {measured}");
    }
}
