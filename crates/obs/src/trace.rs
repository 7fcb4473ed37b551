//! Phase tracing: named spans recorded into a bounded, preallocated ring
//! buffer, exportable as chrome://tracing JSON.
//!
//! A [`Tracer`] is a cheap `Arc` clone shared by every thread working on
//! one job. Recording a span is a clock read plus one short mutex-guarded
//! ring write — no allocation after construction, which keeps the solver's
//! hot-path allocation guard intact. When the ring is full the oldest
//! spans are overwritten and counted in `dropped`.

use std::cell::RefCell;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Default ring capacity per tracer (spans).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One completed span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Phase name (static so recording never allocates).
    pub name: &'static str,
    /// Start offset from the tracer's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small process-unique id of the recording thread.
    pub tid: u64,
}

/// Aggregated per-phase totals, used by `--profile` and the slow-query log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Phase name.
    pub name: &'static str,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
}

struct Ring {
    spans: Vec<SpanRecord>,
    /// Next overwrite position once the ring is full.
    head: usize,
    /// Spans overwritten after the ring filled.
    dropped: u64,
}

struct TracerInner {
    ring: Mutex<Ring>,
    epoch: Instant,
    cap: usize,
}

/// A bounded span recorder. Clones share the same ring.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("cap", &self.inner.cap)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static CURRENT: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

impl Tracer {
    /// Creates a tracer with the default ring capacity.
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a tracer whose ring holds at most `cap` spans. The ring is
    /// allocated up front; recording never allocates.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        Tracer {
            inner: Arc::new(TracerInner {
                ring: Mutex::new(Ring {
                    spans: Vec::with_capacity(cap),
                    head: 0,
                    dropped: 0,
                }),
                epoch: Instant::now(),
                cap,
            }),
        }
    }

    /// Starts a span; it is recorded when the returned guard drops.
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            tracer: self.clone(),
            name,
            start: Instant::now(),
        }
    }

    /// Installs this tracer as the current one for this thread, restoring
    /// the previous tracer when the returned guard drops. Enables the free
    /// function [`span`] in code that has no `Tracer` in scope.
    #[must_use = "the previous tracer is restored when the guard drops"]
    pub fn set_current(&self) -> CurrentGuard {
        let prev = CURRENT.with(|c| c.replace(Some(self.clone())));
        CurrentGuard { prev }
    }

    fn record(&self, name: &'static str, start: Instant, end: Instant) {
        let start_ns = start
            .saturating_duration_since(self.inner.epoch)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let dur_ns = end
            .saturating_duration_since(start)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let tid = TID.with(|t| *t);
        let rec = SpanRecord {
            name,
            start_ns,
            dur_ns,
            tid,
        };
        let mut ring = self
            .inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if ring.spans.len() < self.inner.cap {
            ring.spans.push(rec);
        } else {
            let head = ring.head;
            ring.spans[head] = rec;
            ring.head = (head + 1) % self.inner.cap;
            ring.dropped += 1;
        }
    }

    /// Number of spans currently held (bounded by the ring capacity).
    pub fn len(&self) -> usize {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .spans
            .len()
    }

    /// True when no span has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gives back the ring's unused capacity, keeping the recorded spans.
    /// For a tracer that is kept after its work is done; recording into it
    /// again allocates as the ring grows back towards its capacity.
    pub fn shrink_to_fit(&self) {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .spans
            .shrink_to_fit();
    }

    /// Number of spans overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dropped
    }

    /// Per-phase totals, sorted by name for deterministic output.
    pub fn summary(&self) -> Vec<PhaseTotal> {
        let ring = self
            .inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut totals: Vec<PhaseTotal> = Vec::new();
        for s in &ring.spans {
            match totals.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_ns += s.dur_ns;
                }
                None => totals.push(PhaseTotal {
                    name: s.name,
                    count: 1,
                    total_ns: s.dur_ns,
                }),
            }
        }
        totals.sort_by_key(|t| t.name);
        totals
    }

    /// Exports the recorded spans as a compact (single-line, no spaces)
    /// chrome://tracing JSON array of complete (`"ph":"X"`) events with
    /// microsecond timestamps. Load via chrome://tracing or Perfetto.
    pub fn export_chrome_json(&self) -> String {
        let ring = self
            .inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut spans: Vec<SpanRecord> = ring.spans.clone();
        drop(ring);
        spans.sort_by_key(|s| s.start_ns);
        let mut out = String::with_capacity(spans.len() * 64 + 2);
        out.push('[');
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{}}}",
                s.name,
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns / 1000,
                s.dur_ns % 1000,
                s.tid
            );
        }
        out.push(']');
        out
    }
}

/// RAII guard returned by [`Tracer::span`]; records the span on drop.
pub struct Span {
    tracer: Tracer,
    name: &'static str,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.tracer.record(self.name, self.start, Instant::now());
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span").field("name", &self.name).finish()
    }
}

/// Restores the thread's previous current tracer on drop.
pub struct CurrentGuard {
    prev: Option<Tracer>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

impl fmt::Debug for CurrentGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CurrentGuard").finish()
    }
}

/// A span against the thread's current tracer, or a no-op when none is
/// installed. Hold the returned guard for the duration of the phase.
#[must_use = "the span is recorded when the guard drops"]
pub fn span(name: &'static str) -> MaybeSpan {
    let tracer = CURRENT.with(|c| c.borrow().clone());
    MaybeSpan(tracer.map(|t| t.span(name)))
}

/// Either a live [`Span`] or a no-op, from the free function [`span`].
#[derive(Debug)]
pub struct MaybeSpan(Option<Span>);

impl MaybeSpan {
    /// True when a tracer was installed and the span will be recorded.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_export() {
        let t = Tracer::new();
        {
            let _outer = t.span("peel");
            let _inner = t.span("tighten");
        }
        assert_eq!(t.len(), 2);
        let summary = t.summary();
        assert_eq!(summary.len(), 2);
        assert!(summary.iter().any(|p| p.name == "peel" && p.count == 1));
        let json = t.export_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"name\":\"tighten\""), "{json}");
        assert!(!json.contains(' '), "compact: {json}");
    }

    #[test]
    fn ring_is_bounded() {
        let t = Tracer::with_capacity(4);
        for _ in 0..10 {
            let _s = t.span("x");
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn shrink_keeps_spans_and_the_bound() {
        let t = Tracer::with_capacity(4);
        drop(t.span("kept"));
        t.shrink_to_fit();
        assert_eq!(t.len(), 1);
        assert_eq!(t.summary()[0].name, "kept");
        for _ in 0..10 {
            let _s = t.span("x");
        }
        assert_eq!((t.len(), t.dropped()), (4, 7));
    }

    #[test]
    fn current_tracer_scopes_free_spans() {
        assert!(!span("orphan").is_recording());
        let t = Tracer::new();
        {
            let _g = t.set_current();
            let _s = span("scoped");
            assert!(_s.is_recording());
        }
        assert!(!span("after").is_recording());
        assert_eq!(t.len(), 1);
        assert_eq!(t.summary()[0].name, "scoped");
    }
}
