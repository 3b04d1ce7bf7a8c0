//! Cross-traffic estimation (paper §3.2).
//!
//! Send one bulk TCP connection on a path, sample its throughput every
//! 10 ms, and interpret each sample against the known maximum path rate:
//! if the path rate is `c₁` and our connection sees `c₂ ≤ c₁`, the load on
//! the bottleneck is equivalent to `c = c₁/c₂ − 1` backlogged TCP
//! connections. `c` measures *load*, not discrete connections (§3.2).

/// Point estimate `c = c₁/c₂ − 1` (clamped at 0 when the observation
/// exceeds the nominal path rate).
pub fn cross_traffic_estimate(observed_bps: f64, path_rate_bps: f64) -> f64 {
    assert!(path_rate_bps > 0.0, "path rate must be positive");
    if observed_bps <= 0.0 {
        return f64::INFINITY; // starved connection: unbounded load
    }
    (path_rate_bps / observed_bps - 1.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_quarter_rate_means_three_others() {
        // §3.2: path rate 1 Gbit/s, our connection sees 250 Mbit/s -> 3.
        let c = cross_traffic_estimate(250e6, 1e9);
        assert!((c - 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_path_has_zero_cross_traffic() {
        assert_eq!(cross_traffic_estimate(1e9, 1e9), 0.0);
        // Slight over-measurement clamps to zero rather than going negative.
        assert_eq!(cross_traffic_estimate(1.02e9, 1e9), 0.0);
    }

    #[test]
    fn starved_connection_is_infinite_load() {
        assert!(cross_traffic_estimate(0.0, 1e9).is_infinite());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_path_rate_rejected() {
        cross_traffic_estimate(1.0, 0.0);
    }
}
