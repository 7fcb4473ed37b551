//! What a run reports: sample statistics, the checked-operation tally, the
//! metric list printed as the final JSON line, and the span recorder of
//! traced runs.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for an even count; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The `q`-quantile of `xs` by nearest rank (0 if empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail latency to report: p99 when at least ten samples lie beyond
/// it, otherwise the highest percentile that still has ten beyond it.
/// Returns `(value, percentile)`; `(0, 0)` with ten or fewer samples.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n <= 10 {
        return (0.0, 0.0);
    }
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - 10);
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Peak resident set of process `pid` (`"self"` for this one) in MB, from
/// the `VmHWM` line of `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// The outcome of one run: checked operations, failed ones, and metrics.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation; `Err` marks it failed and logs why.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("check failed: {what}: {e}");
        }
    }

    /// Counts `attempted` checked operations of which `failed` failed.
    pub fn tally(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("check failed: {what}: {failed} of {attempted}");
        }
    }

    /// Records one metric (non-finite values are reported as 0).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The final JSON line: `correct` holds when every attempted operation
    /// passed its check.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
struct SpanRecord {
    name: String,
    parent: Option<usize>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
    fields: Vec<(&'static str, u64)>,
}

/// In-memory span recorder for traced runs, written out once at the end.
/// A span's id is its index; spans of one request share a request id.
pub struct Spans {
    epoch: Instant,
    records: Vec<SpanRecord>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            records: Vec::new(),
        }
    }
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span `[start, end]`; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.records.push(SpanRecord {
            name: name.to_string(),
            parent,
            request,
            start_ns,
            end_ns,
            fields: Vec::new(),
        });
        self.records.len() - 1
    }

    /// Opens a span that [`Spans::close`] ends; returns its id, so that
    /// children recorded meanwhile can name it as their parent.
    pub fn open(&mut self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.records[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span named `name`; returns its result.
    pub fn timed<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Attaches a measured value to span `id` (for example a server-side
    /// duration that has no start time on this clock).
    pub fn field(&mut self, id: usize, key: &'static str, value: u64) {
        self.records[id].fields.push((key, value));
    }

    /// Duration of span `id` in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        let r = &self.records[id];
        (r.end_ns - r.start_ns) as f64 / 1e9
    }

    /// Duration of the first child of `parent` named `name`, in seconds.
    pub fn child_seconds(&self, parent: usize, name: &str) -> f64 {
        self.records
            .iter()
            .position(|r| r.parent == Some(parent) && r.name == name)
            .map_or(0.0, |id| self.seconds(id))
    }

    /// Share of span `root`'s duration covered by its direct children.
    pub fn coverage(&self, root: usize) -> f64 {
        let covered: u64 = self
            .records
            .iter()
            .filter(|r| r.parent == Some(root))
            .map(|r| r.end_ns - r.start_ns)
            .sum();
        let r = &self.records[root];
        covered as f64 / (r.end_ns - r.start_ns).max(1) as f64
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}",
                r.request, r.name, r.start_ns, r.end_ns
            );
            for (key, value) in &r.fields {
                let _ = write!(out, ", \"{key}\": {value}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs), (1980.0, 99.0));
        // 100 samples: p99 would leave one beyond, so fall back to p90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(tail(&xs[..10]), (0.0, 0.0));
    }
}
