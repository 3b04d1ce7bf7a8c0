//! `SimEnv` holds its script once and gives back what it delivers.
//!
//! A live-bytes counting allocator wraps the system allocator (alloc
//! adds, dealloc subtracts, realloc applies the difference) and keeps a
//! high-water mark. On a duplicate-free script shaped like the perf
//! ledger's — one connection, time-sorted, mostly `SetIntensity` with an
//! `Admit` now and then — building the env may add under 10% of the
//! script's own bytes at any point, and delivering and dropping the
//! first half of the requests must free at least 40% of them.
//!
//! Kept in its own integration-test binary with a single `#[test]` so no
//! concurrent test pollutes the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use choreo_repro::profile::{AppProfile, TrafficMatrix};
use choreo_repro::service::{NetEvent, ServiceEnv, ServiceRequest, SimEnv};

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(more) => grow(more),
            None => _ = LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed),
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn sim_env_holds_its_script_once_and_frees_what_it_delivers() {
    const N: u64 = 4_000;
    let before = live();
    let script: Vec<_> = (0..N)
        .map(|i| {
            let req = if i % 16 == 0 {
                let app = AppProfile::new("t", vec![1.0; 4], TrafficMatrix::zeros(4), 0);
                ServiceRequest::Admit { tenant: i, app }
            } else {
                ServiceRequest::SetIntensity { tenant: i - i % 16, intensity: 1 + (i % 3) as u32 }
            };
            (i * 1_000, 1, req)
        })
        .collect();
    let script_bytes = live() - before;

    let base = live();
    PEAK.store(base, Ordering::Relaxed);
    let mut env = SimEnv::new(script);
    let added = PEAK.load(Ordering::Relaxed) - base;
    assert!(
        added * 10 < script_bytes,
        "building the env added {added} B at its peak, over 10% of the script's {script_bytes} B"
    );

    let built = live();
    let mut requests = 0;
    while requests < N / 2 {
        if let (_, _, NetEvent::Request(_)) = env.next_event().expect("half the script") {
            requests += 1;
        }
    }
    let freed = built.saturating_sub(live());
    assert!(
        freed * 10 >= script_bytes * 4,
        "delivering half the script freed {freed} B, under 40% of its {script_bytes} B"
    );
}
