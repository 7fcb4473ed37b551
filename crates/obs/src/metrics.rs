//! Process-global metrics registry: counters, gauges and log-linear
//! histograms with Prometheus text exposition.
//!
//! Series are registered by name (optionally with one label pair) and the
//! returned handles are cheap clones sharing the underlying atomics, so hot
//! paths record without touching the registry lock. The registry lock (the
//! `series` mutex, rank 9 in `LOCK_ORDER.md`) is only taken by
//! `register_*` calls and by [`Registry::render_prometheus`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of histogram buckets: values 0..=3 get unit buckets, then each
/// power-of-two octave `[2^m, 2^{m+1})` for `m in 2..=63` is split into 4
/// linear sub-buckets, giving `4 + 62 * 4 = 252` fixed boundaries shared by
/// every histogram (which is what makes them mergeable).
pub const NUM_BUCKETS: usize = 252;

/// Sub-buckets per octave (power of two).
const SUBS: u64 = 4;

/// Maps a sample to its bucket index. Monotone non-decreasing in `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUBS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize; // >= 2
    let sub = ((value >> (msb - 2)) & (SUBS - 1)) as usize;
    (msb - 1) * SUBS as usize + sub
}

/// Inclusive lower bound of bucket `i`.
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    if i < SUBS as usize {
        return i as u64;
    }
    let msb = i / SUBS as usize + 1;
    let sub = (i % SUBS as usize) as u64;
    (1u64 << msb) + sub * (1u64 << (msb - 2))
}

/// Width of bucket `i` (number of distinct sample values it covers).
#[inline]
pub fn bucket_width(i: usize) -> u64 {
    if i < SUBS as usize {
        1
    } else {
        1u64 << (i / SUBS as usize - 1)
    }
}

/// Inclusive upper bound of bucket `i`, saturating at `u64::MAX`.
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    bucket_lo(i).saturating_add(bucket_width(i) - 1)
}

/// Monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one (no-op while observability is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n` (no-op while observability is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed block of `N` counters owned by one object (a session, a store,
/// a graph cache) and mirrored into `N` process-wide registry series.
///
/// [`CounterBlock::bump`] is the one way to count: it adds to the owner's
/// atomic, which always counts, and to the matching registry handle, which
/// honours the global kill switch. The handles come in as a `&'static`
/// array, so callers register them once per process (one `OnceLock`) and a
/// bump never takes the registry lock or allocates.
#[derive(Debug)]
pub struct CounterBlock<const N: usize> {
    own: [AtomicU64; N],
    totals: &'static [Counter; N],
}

impl<const N: usize> CounterBlock<N> {
    /// A zeroed block mirrored into `totals` (same order).
    pub fn new(totals: &'static [Counter; N]) -> Self {
        CounterBlock {
            own: std::array::from_fn(|_| AtomicU64::new(0)),
            totals,
        }
    }

    /// Adds `n` to counter `i`, on the owner and in its registry series.
    #[inline]
    pub fn bump(&self, i: usize, n: u64) {
        self.own[i].fetch_add(n, Ordering::Relaxed);
        self.totals[i].add(n);
    }

    /// The owner's count for counter `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.own[i].load(Ordering::Relaxed)
    }
}

/// Signed gauge handle (e.g. queue depth).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds `n` (no-op while observability is disabled).
    #[inline]
    pub fn add(&self, n: i64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n` (no-op while observability is disabled).
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Sets the gauge to `v` (no-op while observability is disabled).
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared histogram storage: fixed log-linear buckets plus count and sum.
#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Log-linear latency histogram handle. All histograms share the same fixed
/// bucket boundaries, so snapshots merge bucketwise across workers.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore::new()))
    }
}

impl Histogram {
    /// Records one sample (no-op while observability is disabled).
    #[inline]
    pub fn observe(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for rendering and quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain (non-atomic) histogram state: the mergeable value object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Builds a snapshot from raw samples (test and merge-law convenience).
    pub fn from_samples(samples: &[u64]) -> Self {
        let mut s = HistogramSnapshot::default();
        for &v in samples {
            s.buckets[bucket_index(v)] += 1;
            s.count += 1;
            s.sum = s.sum.wrapping_add(v);
        }
        s
    }

    /// Bucketwise merge: associative and commutative by construction.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = self.clone();
        for (a, b) in out.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        out.count += other.count;
        out.sum = out.sum.wrapping_add(other.sum);
        out
    }

    /// Estimated quantile `q` in `[0, 1]`: the inclusive upper bound of the
    /// smallest bucket whose cumulative count reaches rank `ceil(q * count)`.
    /// Overestimates the true quantile by at most one bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bucket_hi(i);
            }
        }
        bucket_hi(NUM_BUCKETS - 1)
    }
}

/// What a registered series stores.
#[derive(Clone, Debug)]
enum SeriesEntry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl SeriesEntry {
    fn kind(&self) -> &'static str {
        match self {
            SeriesEntry::Counter(_) => "counter",
            SeriesEntry::Gauge(_) => "gauge",
            SeriesEntry::Histogram(_) => "histogram",
        }
    }
}

/// Series identity: base name plus at most one label pair.
type SeriesKey = (String, Option<(String, String)>);

/// Process-global metrics registry.
///
/// Registration is idempotent get-or-create keyed on `(name, label)`; the
/// returned handle shares storage with every other handle for the same key.
/// Registering an existing key as a different kind returns a fresh detached
/// handle (recording to it is harmless but it is never exported) — callers
/// are expected to keep one kind per name, which tests pin.
pub struct Registry {
    /// Rank 8 in `LOCK_ORDER.md`: leaf lock, never held across other locks.
    series: Mutex<BTreeMap<SeriesKey, SeriesEntry>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self
            .series
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        f.debug_struct("Registry").field("series", &n).finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry. Most callers want [`registry`] instead.
    pub fn new() -> Self {
        Registry {
            series: Mutex::new(BTreeMap::new()),
        }
    }

    fn entry(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        make: fn() -> SeriesEntry,
    ) -> SeriesEntry {
        let key: SeriesKey = (
            name.to_string(),
            label.map(|(k, v)| (k.to_string(), v.to_string())),
        );
        let mut map = self.series.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = map.entry(key).or_insert_with(make);
        if std::mem::discriminant(entry) == std::mem::discriminant(&make()) {
            entry.clone()
        } else {
            make()
        }
    }

    /// Gets or creates the counter `name`.
    pub fn register_counter(&self, name: &str) -> Counter {
        match self.entry(name, None, || SeriesEntry::Counter(Counter::default())) {
            SeriesEntry::Counter(c) => c,
            _ => Counter::default(),
        }
    }

    /// Gets or creates the counter `name{label_key="label_value"}`.
    pub fn register_counter_labeled(
        &self,
        name: &str,
        label_key: &str,
        label_value: &str,
    ) -> Counter {
        match self.entry(name, Some((label_key, label_value)), || {
            SeriesEntry::Counter(Counter::default())
        }) {
            SeriesEntry::Counter(c) => c,
            _ => Counter::default(),
        }
    }

    /// Gets or creates the gauge `name`.
    pub fn register_gauge(&self, name: &str) -> Gauge {
        match self.entry(name, None, || SeriesEntry::Gauge(Gauge::default())) {
            SeriesEntry::Gauge(g) => g,
            _ => Gauge::default(),
        }
    }

    /// Gets or creates the histogram `name`.
    pub fn register_histogram(&self, name: &str) -> Histogram {
        match self.entry(name, None, || SeriesEntry::Histogram(Histogram::default())) {
            SeriesEntry::Histogram(h) => h,
            _ => Histogram::default(),
        }
    }

    /// Gets or creates the histogram `name{label_key="label_value"}`.
    pub fn register_histogram_labeled(
        &self,
        name: &str,
        label_key: &str,
        label_value: &str,
    ) -> Histogram {
        match self.entry(name, Some((label_key, label_value)), || {
            SeriesEntry::Histogram(Histogram::default())
        }) {
            SeriesEntry::Histogram(h) => h,
            _ => Histogram::default(),
        }
    }

    /// Renders every registered series in Prometheus text exposition
    /// format (v0.0.4): `# TYPE` headers, counter/gauge sample lines, and
    /// `_bucket{le=".."}` / `_sum` / `_count` triples for histograms.
    /// Histogram buckets are emitted up to the last non-empty one plus
    /// `+Inf`, keeping the payload proportional to the data.
    pub fn render_prometheus(&self) -> String {
        let map = self.series.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for ((name, label), entry) in map.iter() {
            if last_name != Some(name.as_str()) {
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(entry.kind());
                out.push('\n');
                last_name = Some(name.as_str());
            }
            let label_str = label
                .as_ref()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .unwrap_or_default();
            match entry {
                SeriesEntry::Counter(c) => {
                    push_sample(&mut out, name, &label_str, &c.get().to_string());
                }
                SeriesEntry::Gauge(g) => {
                    push_sample(&mut out, name, &label_str, &g.get().to_string());
                }
                SeriesEntry::Histogram(h) => {
                    let snap = h.snapshot();
                    let last = snap
                        .buckets
                        .iter()
                        .rposition(|&b| b > 0)
                        .map_or(0, |i| i + 1);
                    let mut cum = 0u64;
                    for i in 0..last {
                        cum += snap.buckets[i];
                        let le = format!(
                            "{}le=\"{}\"",
                            if label_str.is_empty() {
                                String::new()
                            } else {
                                format!("{label_str},")
                            },
                            bucket_hi(i)
                        );
                        push_sample(&mut out, &format!("{name}_bucket"), &le, &cum.to_string());
                    }
                    let inf = format!(
                        "{}le=\"+Inf\"",
                        if label_str.is_empty() {
                            String::new()
                        } else {
                            format!("{label_str},")
                        }
                    );
                    push_sample(
                        &mut out,
                        &format!("{name}_bucket"),
                        &inf,
                        &snap.count.to_string(),
                    );
                    push_sample(
                        &mut out,
                        &format!("{name}_sum"),
                        &label_str,
                        &snap.sum.to_string(),
                    );
                    push_sample(
                        &mut out,
                        &format!("{name}_count"),
                        &label_str,
                        &snap.count.to_string(),
                    );
                }
            }
        }
        out
    }
}

fn push_sample(out: &mut String, name: &str, labels: &str, value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// The process-global registry, created on first use.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that flip or depend on the global kill switch.
    static ENABLED_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn bucket_scheme_is_consistent() {
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i, "lo of bucket {i}");
            assert_eq!(bucket_index(bucket_hi(i)), i, "hi of bucket {i}");
            if i > 0 {
                assert_eq!(bucket_hi(i - 1) + 1, bucket_lo(i), "contiguous at {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn registry_is_idempotent_and_renders() {
        let reg = Registry::new();
        let a = reg.register_counter("kdc_test_hits_total");
        let b = reg.register_counter("kdc_test_hits_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.register_gauge("kdc_test_depth");
        g.set(5);
        g.sub(2);
        let h = reg.register_histogram_labeled("kdc_test_wait_ns", "queue", "solve");
        h.observe(7);
        h.observe(900);
        let text = reg.render_prometheus();
        assert!(
            text.contains("# TYPE kdc_test_hits_total counter"),
            "{text}"
        );
        assert!(text.contains("kdc_test_hits_total 3"), "{text}");
        assert!(text.contains("kdc_test_depth 3"), "{text}");
        assert!(text.contains("# TYPE kdc_test_wait_ns histogram"), "{text}");
        assert!(
            text.contains("kdc_test_wait_ns_bucket{queue=\"solve\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("kdc_test_wait_ns_sum{queue=\"solve\"} 907"),
            "{text}"
        );
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = ENABLED_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let c = Counter::default();
        let h = Histogram::default();
        crate::set_enabled(false);
        c.inc();
        h.observe(10);
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn counter_block_bumps_owner_and_series_together() {
        let _g = ENABLED_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let reg = Registry::new();
        let totals: &'static [Counter; 2] = Box::leak(Box::new([
            reg.register_counter("kdc_test_a_total"),
            reg.register_counter("kdc_test_b_total"),
        ]));
        let one = CounterBlock::new(totals);
        let two = CounterBlock::new(totals);
        one.bump(0, 2);
        two.bump(0, 1);
        two.bump(1, 5);
        assert_eq!((one.get(0), one.get(1)), (2, 0), "owners count apart");
        assert_eq!((two.get(0), two.get(1)), (1, 5));
        let text = reg.render_prometheus();
        assert!(text.contains("kdc_test_a_total 3"), "{text}");
        assert!(text.contains("kdc_test_b_total 5"), "{text}");
    }

    #[test]
    fn quantile_tracks_medians() {
        let s = HistogramSnapshot::from_samples(&[1, 2, 3, 4, 100]);
        let p50 = s.quantile(0.5);
        assert!((3..=3).contains(&p50), "p50 = {p50}");
        let p99 = s.quantile(0.99);
        assert!(
            p99 >= 100 && p99 - 100 <= bucket_width(bucket_index(100)),
            "p99 = {p99}"
        );
    }
}
