//! The benchmark's own tracer: spans around the calls it makes.
//!
//! A traced pass wraps every call into the program (`poll`, `step`,
//! `encode`, ...) in a span and installs the tracer as the program's
//! `SpanRecorder`, so the solver phases the program reports while a call
//! is open become that call's children. Spans live in a preallocated
//! buffer and are written out after the pass. A layer's self time is its
//! span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use choreo_metrics::span::SpanRecorder;

/// One recorded span. `parent` indexes the buffer; roots carry `-1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Buf {
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

pub struct Tracer {
    origin: Instant,
    buf: Mutex<Buf>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            buf: Mutex::new(Buf {
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(8),
                request: 0,
            }),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn buf(&self) -> std::sync::MutexGuard<'_, Buf> {
        self.buf.lock().expect("a tracer user panicked")
    }

    /// Spans opened from now on belong to request `request`.
    pub fn set_request(&self, request: u32) {
        self.buf().request = request;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let idx = {
            let mut b = self.buf();
            let parent = b.open.last().map_or(-1, |&p| p as i32);
            let request = b.request;
            b.spans.push(Span { name, request, parent, start_ns, end_ns: start_ns });
            let idx = b.spans.len() - 1;
            b.open.push(idx);
            idx
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut b = self.buf();
        b.spans[idx].end_ns = end_ns;
        b.open.pop();
        out
    }

    /// Everything recorded so far, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.buf().spans)
    }
}

impl SpanRecorder for Tracer {
    /// A phase the program just finished: a child of the open call,
    /// ending now and starting `seconds` ago.
    fn record(&self, phase: &'static str, seconds: f64) {
        let end_ns = self.now_ns();
        let mut b = self.buf();
        let parent = b.open.last().map_or(-1, |&p| p as i32);
        let floor = if parent >= 0 { b.spans[parent as usize].start_ns } else { 0 };
        let start_ns = end_ns.saturating_sub((seconds * 1e9) as u64).max(floor);
        let request = b.request;
        b.spans.push(Span { name: phase, request, parent, start_ns, end_ns });
    }

    fn record_value(&self, _phase: &'static str, _value: f64) {}
}

/// Each span's self time, in nanoseconds: its duration minus the part
/// of it its direct children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent >= 0 {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            covered[s.parent as usize] += hi.saturating_sub(lo);
        }
    }
    spans.iter().zip(covered).map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c)).collect()
}

/// Total self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.name).or_insert(0) += ns;
    }
    out
}

/// Total duration of the spans that have no parent.
pub fn root_time(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent < 0).map(|s| s.end_ns - s.start_ns).sum()
}

/// Append `spans` to `w`, one JSON object per line. `id` is the span's
/// index within its pass, which is what `parent` refers to.
pub fn write_jsonl(w: &mut impl Write, pass: &str, spans: &[Span]) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{{\"pass\":\"{pass}\",\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.parent, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: i32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, request: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // poll [0,100) > step [10,90) > solve [20,50), probe [60,80);
        // a second root poll [100,130) with no children.
        let tree = vec![
            span("poll", -1, 0, 100),
            span("step", 0, 10, 90),
            span("solve", 1, 20, 50),
            span("probe", 1, 60, 80),
            span("poll", -1, 100, 130),
        ];
        let st = self_times(&tree);
        assert_eq!(st["poll"], 20 + 30);
        assert_eq!(st["step"], 80 - 30 - 20);
        assert_eq!(st["solve"], 30);
        assert_eq!(st["probe"], 20);
        assert_eq!(st.values().sum::<u64>(), root_time(&tree), "self times add up to the roots");
    }

    #[test]
    fn a_child_reaching_outside_its_parent_is_clipped() {
        let tree = vec![span("call", -1, 100, 200), span("phase", 0, 50, 150)];
        assert_eq!(self_times(&tree)["call"], 50);
    }

    #[test]
    fn recorder_callbacks_become_children_of_the_open_call() {
        let t = Tracer::new(16);
        t.set_request(7);
        t.span("step", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.record("solve_warm", 0.001);
        });
        t.record("orphan", 0.0);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].request), ("step", -1, 7));
        assert_eq!((spans[1].name, spans[1].parent), ("solve_warm", 0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[2].parent, -1);
        let mut out = Vec::new();
        write_jsonl(&mut out, "direct", &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"pass\":\"direct\",\"id\":0,\"name\":\"step\",\"request\":7,"));
    }
}
