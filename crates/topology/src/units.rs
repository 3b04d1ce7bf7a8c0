//! Units used across the Choreo workspace.
//!
//! Link rates are `f64` bits per second; simulated time is `u64` nanoseconds
//! ([`Nanos`]). Helper constants let call sites write `1.0 * GBIT` or
//! `10 * MILLIS` instead of raw exponents.

/// Simulated time in nanoseconds.
pub type Nanos = u64;

/// One kilobit per second, in bits/s.
pub const KBIT: f64 = 1e3;
/// One megabit per second, in bits/s.
pub const MBIT: f64 = 1e6;
/// One gigabit per second, in bits/s.
pub const GBIT: f64 = 1e9;

/// One microsecond, in nanoseconds.
pub const MICROS: Nanos = 1_000;
/// One millisecond, in nanoseconds.
pub const MILLIS: Nanos = 1_000_000;
/// One second, in nanoseconds.
pub const SECS: Nanos = 1_000_000_000;

/// Time (in nanoseconds, rounded up) to serialize `bytes` onto a link of
/// `rate_bps` bits per second.
///
/// Returns 0 for a zero-byte payload; panics if `rate_bps` is not positive,
/// because a link with no capacity cannot transmit.
pub fn tx_time(bytes: u64, rate_bps: f64) -> Nanos {
    assert!(rate_bps > 0.0, "tx_time: non-positive link rate {rate_bps}");
    if bytes == 0 {
        return 0;
    }
    let secs = (bytes as f64 * 8.0) / rate_bps;
    (secs * 1e9).ceil() as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_one_packet_gigabit() {
        // 1500 bytes at 1 Gbit/s = 12 microseconds.
        assert_eq!(tx_time(1500, GBIT), 12 * MICROS);
    }

    #[test]
    fn tx_time_zero_bytes_is_zero() {
        assert_eq!(tx_time(0, GBIT), 0);
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bits/ns-scale rate: 8 bits / 1e9 bps = 8 ns exactly;
        // pick a rate that does not divide evenly.
        let t = tx_time(1, 3e8);
        assert_eq!(t, 27); // 8 bits / 0.3 bits-per-ns = 26.67 -> 27
    }

    #[test]
    #[should_panic(expected = "non-positive link rate")]
    fn tx_time_rejects_zero_rate() {
        tx_time(1, 0.0);
    }
}
