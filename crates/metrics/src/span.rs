//! Solver-phase spans: a stopwatch API cheap enough for the hot path.
//!
//! A [`Span`] measures one phase of work on the monotonic clock and
//! reports it to the process-wide [`SpanRecorder`] when dropped;
//! [`value`] reports a dimensionless sample (dirty-window size,
//! probe-batch depth) the same way. With no recorder installed
//! — the default, and the state every benchmark baseline runs in — both
//! compile down to one relaxed atomic load and no clock read, so
//! instrumented code costs nothing measurable when nobody is watching.
//!
//! [`RegistrySpans`] is the standard recorder: it lazily registers one
//! histogram per phase on a [`Registry`] (`choreo_span_{phase}_seconds`
//! for stopwatches, `choreo_span_{phase}` for value samples) so a
//! `/metrics` scrape attributes wall-clock to solver phases with no
//! per-phase wiring.
//!
//! # Determinism contract
//!
//! Spans are observational only. They read the wall clock, so their
//! samples differ run to run — which is exactly why nothing in the
//! deterministic trajectory may ever read them back. Installing or
//! removing a recorder must never change a trace digest; the property
//! suite pins that.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::{geometric_bounds, Histogram, Registry};

/// Receives span samples. Implementations must be cheap and lock-light:
/// the hot path calls them synchronously.
pub trait SpanRecorder: Send + Sync {
    /// One completed stopwatch span for `phase`, in seconds.
    fn record(&self, phase: &'static str, seconds: f64);
    /// One dimensionless sample for `phase` (a size, depth or fan-out).
    fn record_value(&self, phase: &'static str, value: f64);
}

/// The cheap fast-path flag: `false` means spans never touch the clock
/// or the recorder slot.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn recorder_slot() -> &'static RwLock<Option<Arc<dyn SpanRecorder>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn SpanRecorder>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Install the process-wide recorder; spans start sampling.
pub fn install(recorder: Arc<dyn SpanRecorder>) {
    *recorder_slot().write().expect("span recorder poisoned") = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Remove the recorder; spans go back to being free.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *recorder_slot().write().expect("span recorder poisoned") = None;
}

/// True while a recorder is installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A live stopwatch for one phase; reports on drop. Obtain via
/// [`start`].
#[must_use = "a span measures until dropped; binding it to _ ends it immediately"]
pub struct Span {
    phase: &'static str,
    start: Option<Instant>,
}

/// Start timing `phase`. A no-op span (no clock read) when no recorder
/// is installed.
pub fn start(phase: &'static str) -> Span {
    Span { phase, start: enabled().then(Instant::now) }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let seconds = t0.elapsed().as_secs_f64();
            if let Some(r) = recorder_slot().read().expect("span recorder poisoned").as_ref() {
                r.record(self.phase, seconds);
            }
        }
    }
}

/// Report one dimensionless sample for `phase`. A no-op when no
/// recorder is installed.
pub fn value(phase: &'static str, v: f64) {
    if enabled() {
        if let Some(r) = recorder_slot().read().expect("span recorder poisoned").as_ref() {
            r.record_value(phase, v);
        }
    }
}

/// The standard recorder: per-phase histograms lazily registered on a
/// [`Registry`] under `choreo_span_{phase}_seconds` (stopwatches) and
/// `choreo_span_{phase}` (value samples).
pub struct RegistrySpans {
    registry: Arc<Registry>,
    timers: Mutex<HashMap<&'static str, Histogram>>,
    values: Mutex<HashMap<&'static str, Histogram>>,
}

impl RegistrySpans {
    /// A recorder writing into `registry`, ready for [`install`].
    pub fn new(registry: Arc<Registry>) -> Arc<RegistrySpans> {
        Arc::new(RegistrySpans {
            registry,
            timers: Mutex::new(HashMap::new()),
            values: Mutex::new(HashMap::new()),
        })
    }
}

impl SpanRecorder for RegistrySpans {
    fn record(&self, phase: &'static str, seconds: f64) {
        let h = {
            let mut timers = self.timers.lock().expect("span timers poisoned");
            timers
                .entry(phase)
                .or_insert_with(|| {
                    self.registry.histogram(
                        &format!("choreo_span_{phase}_seconds"),
                        "Wall-clock seconds spent in this phase",
                        // 100 ns … ~1.7 s.
                        geometric_bounds(1e-7, 4.0, 13),
                    )
                })
                .clone()
        };
        h.observe(seconds);
    }

    fn record_value(&self, phase: &'static str, value: f64) {
        let h = {
            let mut values = self.values.lock().expect("span values poisoned");
            values
                .entry(phase)
                .or_insert_with(|| {
                    self.registry.histogram(
                        &format!("choreo_span_{phase}"),
                        "Per-occurrence size/depth/fan-out samples for this phase",
                        // 1 … 32768.
                        geometric_bounds(1.0, 2.0, 16),
                    )
                })
                .clone()
        };
        h.observe(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder slot is process-global, so every test that installs
    // one must serialize against the others.
    fn lock_recorder() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_never_touch_the_clock() {
        let _g = lock_recorder();
        uninstall();
        let s = start("idle_phase");
        assert!(s.start.is_none(), "no recorder, no clock read");
        drop(s);
        value("idle_phase", 3.0); // must not panic or record
    }

    #[test]
    fn registry_spans_collect_per_phase_histograms() {
        let _g = lock_recorder();
        let registry = Arc::new(Registry::new());
        install(RegistrySpans::new(registry.clone()));
        {
            let _s = start("test_phase");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        value("test_width", 7.0);
        value("test_width", 9.0);
        uninstall();
        // Samples after uninstall are dropped on the floor.
        drop(start("test_phase"));
        value("test_width", 1.0);
        let text = registry.render();
        assert!(text.contains("choreo_span_test_phase_seconds_count 1"), "{text}");
        assert!(text.contains("choreo_span_test_width_count 2"), "{text}");
        assert!(text.contains("choreo_span_test_width_sum 16"), "{text}");
    }
}
