//! Every short stream, not a sample: the scheduler's safety invariants
//! after every event of every sequence up to length `ENUM_K` (default 5)
//! over `tests/harness/enumerate.rs`'s alphabet and 4-host cluster.
//!
//! At the default bound the digest of every trajectory and the run's
//! summed counters are pinned as well, so a change to any scheduler
//! decision on a short stream shows here. A raised bound checks the
//! invariants only.

#[path = "harness/enumerate.rs"]
mod enumerate;

use enumerate::{enumerate, Enumeration};

const DEFAULT_K: usize = 5;

#[test]
fn every_short_stream_keeps_the_invariants() {
    let k = std::env::var("ENUM_K").map_or(DEFAULT_K, |v| v.parse().expect("ENUM_K is a count"));
    let seen = enumerate(k);
    if k == DEFAULT_K {
        let want = Enumeration {
            runs: 9_330,
            events: 36_004,
            digest: 0xf08e_3f75_0864_7037,
            totals: [13_920, 1_006, 94, 4, 82, 82, 84, 3_072],
        };
        assert_eq!(seen, want);
    }
}
