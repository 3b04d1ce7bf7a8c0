//! Packet-train throughput estimation (paper §3.1).

use choreo_netsim::{BurstRecord, TrainReport};
use choreo_topology::Nanos;

/// Mathis constant `C = √(3/2)` from Mathis et al., "The Macroscopic Behavior of the TCP
/// Congestion Avoidance Algorithm" (reference 23 of the paper).
pub const MATHIS_C: f64 = 1.224_744_871_391_589; // sqrt(1.5)

/// Outcome of estimating a path's TCP throughput from one packet train.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainEstimate {
    /// Final estimate: `min(burst_rate, mathis_cap)`, bits/s.
    pub throughput_bps: f64,
    /// Raw burst-timing estimate `P·Σnᵢ/Σtᵢ`, bits/s.
    pub burst_rate_bps: f64,
    /// Mathis bound `MSS·C/(RTT·√ℓ)`, bits/s (∞ when no loss).
    pub mathis_cap_bps: f64,
    /// Train-wide loss rate ℓ.
    pub loss_rate: f64,
    /// Bursts that contributed (≥ 2 packets received).
    pub usable_bursts: usize,
}

/// Adjusted receive span of one burst (paper: "we adjust tᵢ to take into
/// account what the time difference should have been", scaling by the
/// average per-packet time for packets missing from the head or tail).
fn adjusted_span(b: &BurstRecord, burst_len: u32) -> Option<Nanos> {
    if b.received < 2 {
        return None; // a single packet carries no rate information
    }
    let span = b.span();
    if span == 0 {
        return None;
    }
    let per_packet = span / (b.received as u64 - 1);
    let missing_head = b.min_idx as u64;
    let missing_tail = (burst_len - 1 - b.max_idx) as u64;
    Some(span + per_packet * (missing_head + missing_tail))
}

/// Estimate bulk TCP throughput from a train report.
pub fn estimate_from_report(report: &TrainReport) -> TrainEstimate {
    let p_bytes = report.config.packet_bytes as f64;
    let burst_len = report.config.burst_len;
    let mut sum_n = 0u64;
    let mut sum_t: u64 = 0;
    let mut usable = 0usize;
    for b in &report.bursts {
        if let Some(t) = adjusted_span(b, burst_len) {
            sum_n += b.received as u64;
            sum_t += t;
            usable += 1;
        }
    }
    let burst_rate =
        if sum_t > 0 { p_bytes * sum_n as f64 * 8.0 / (sum_t as f64 / 1e9) } else { 0.0 };
    let loss = report.loss_rate();
    let mathis = if loss > 0.0 && report.base_rtt > 0 {
        let rtt_s = report.base_rtt as f64 / 1e9;
        p_bytes * 8.0 * MATHIS_C / (rtt_s * loss.sqrt())
    } else {
        f64::INFINITY
    };
    TrainEstimate {
        throughput_bps: burst_rate.min(mathis),
        burst_rate_bps: burst_rate,
        mathis_cap_bps: mathis,
        loss_rate: loss,
        usable_bursts: usable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choreo_netsim::TrainConfig;
    use choreo_topology::MILLIS;

    fn mk_report(bursts: Vec<BurstRecord>, sent: u64, base_rtt: Nanos) -> TrainReport {
        TrainReport {
            config: TrainConfig { packet_bytes: 1500, burst_len: 200, bursts: 10, gap: MILLIS },
            bursts,
            sent,
            base_rtt,
        }
    }

    fn full_burst(burst: u32, first: Nanos, rate_bps: f64) -> BurstRecord {
        // 200 packets at the given rate: 199 gaps of (1500*8/rate) secs.
        let gap = (1500.0 * 8.0 / rate_bps * 1e9) as Nanos;
        BurstRecord {
            burst,
            first_rx: first,
            last_rx: first + 199 * gap,
            received: 200,
            min_idx: 0,
            max_idx: 199,
        }
    }

    #[test]
    fn lossless_train_measures_burst_rate() {
        let bursts: Vec<BurstRecord> =
            (0..10).map(|i| full_burst(i, i as u64 * 10 * MILLIS, 1e9)).collect();
        let rep = mk_report(bursts, 2000, 100_000);
        let est = estimate_from_report(&rep);
        assert_eq!(est.loss_rate, 0.0);
        assert!(est.mathis_cap_bps.is_infinite());
        // 200/199 high bias ≈ 0.5% — the estimator follows the paper's
        // formula P·Σn/Σt.
        assert!((est.throughput_bps - 1.005e9).abs() < 0.01e9, "{}", est.throughput_bps);
        assert_eq!(est.usable_bursts, 10);
    }

    #[test]
    fn head_tail_loss_is_corrected() {
        // Burst missing its first 2 and last 3 packets: span covers 195
        // packets; adjustment stretches it as if all 200 were seen.
        let gap = (1500.0 * 8.0 / 1e9 * 1e9) as Nanos;
        let b = BurstRecord {
            burst: 0,
            first_rx: 0,
            last_rx: 194 * gap,
            received: 195,
            min_idx: 2,
            max_idx: 196,
        };
        let rep = mk_report(vec![b], 200, 100_000);
        let est = estimate_from_report(&rep);
        // Rate ≈ 195·P / (199 gaps) — within a few % of 1 Gbit/s, rather
        // than overestimating by treating the span as complete.
        assert!((est.burst_rate_bps - 0.985e9).abs() < 0.02e9, "{}", est.burst_rate_bps);
    }

    #[test]
    fn heavy_loss_engages_mathis_cap() {
        // 50% loss with spread-out arrivals: burst rate stays high but the
        // Mathis bound with a 10 ms RTT should cap the estimate.
        let gap = (1500.0 * 8.0 / 1e9 * 1e9) as Nanos;
        let bursts: Vec<BurstRecord> = (0..10)
            .map(|i| BurstRecord {
                burst: i,
                first_rx: i as u64 * 10 * MILLIS,
                last_rx: i as u64 * 10 * MILLIS + 99 * gap,
                received: 100,
                min_idx: 0,
                max_idx: 199,
            })
            .collect();
        let rep = mk_report(bursts, 2000, 10 * MILLIS);
        let est = estimate_from_report(&rep);
        assert!((est.loss_rate - 0.5).abs() < 1e-9);
        assert!(est.mathis_cap_bps.is_finite());
        // MSS·C/(RTT·√ℓ) = 1500·8·1.2247/(0.01·0.7071) ≈ 2.08 Mbit/s.
        assert!((est.mathis_cap_bps - 2.078e6).abs() < 0.01e6, "{}", est.mathis_cap_bps);
        assert_eq!(est.throughput_bps, est.mathis_cap_bps);
    }

    #[test]
    fn single_packet_bursts_are_unusable() {
        let b =
            BurstRecord { burst: 0, first_rx: 0, last_rx: 0, received: 1, min_idx: 7, max_idx: 7 };
        let rep = mk_report(vec![b], 200, 100_000);
        let est = estimate_from_report(&rep);
        assert_eq!(est.usable_bursts, 0);
        assert_eq!(est.burst_rate_bps, 0.0);
    }
}
