//! The one baseline format and the one checker behind the `bench` binary.
//!
//! A baseline file (`BENCH_<n>.json`) holds one case per line: a name, the
//! median wall-clock nanoseconds over `runs` repetitions, named integer
//! metrics and derived rates (four decimals, never gated). Every committed
//! baseline since `BENCH_5.json` uses this line shape, so [`check`] reads
//! all of them.
//!
//! Two kinds of gate, both independent of machine speed:
//!
//! * against a committed baseline: a case's `nodes` may grow by at most
//!   [`NODE_TOLERANCE`], and every `size*` metric (a solution size) and
//!   every `*_removals` metric (a reducer's removal count) must match
//!   exactly. Wall-clock against the baseline is reported, never gated,
//!   because hardware varies.
//! * within one run: each [`Gate`] divides one case's measure by another's
//!   and bounds the ratio, so a ratio such as batch nodes over cold nodes
//!   or word-kernel wall over scalar-kernel wall holds on any machine.

use std::time::Instant;

/// Allowed relative node-count growth against the baseline.
pub const NODE_TOLERANCE: f64 = 0.05;

/// One measured case: a name plus ordered numeric metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    /// Unique case name, `<family>/<instance>/<variant>`.
    pub name: String,
    /// Median wall-clock nanoseconds over `runs` repetitions.
    pub median_ns: u128,
    /// Number of timed repetitions.
    pub runs: usize,
    /// Integer metrics, in render order.
    pub metrics: Vec<(String, u64)>,
    /// Derived ratio columns, in render order; never gated.
    pub rates: Vec<(String, f64)>,
}

impl Case {
    /// A case with no metrics yet.
    pub fn new(name: impl Into<String>, median_ns: u128, runs: usize) -> Case {
        Case {
            name: name.into(),
            median_ns,
            runs,
            metrics: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Appends an integer metric.
    ///
    /// # Panics
    /// If the case already records `key`: the checker reads only the
    /// first copy, so a second one would be written but never checked.
    pub fn with(mut self, key: impl Into<String>, value: u64) -> Case {
        let key = key.into();
        assert!(
            self.metric(&key).is_none(),
            "case {}: metric {key} recorded twice",
            self.name
        );
        self.metrics.push((key, value));
        self
    }

    /// The integer metric `key`, if recorded.
    pub fn metric(&self, key: &str) -> Option<u64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// What a [`Gate`] divides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Measure {
    /// The `nodes` metric (explored branch-and-bound nodes).
    Nodes,
    /// The median wall-clock time.
    Wall,
}

/// A same-run ratio gate: `measure(num) / measure(den) <= max`.
#[derive(Clone, Debug)]
pub struct Gate {
    /// The quantity compared.
    pub measure: Measure,
    /// Numerator case name.
    pub num: String,
    /// Denominator case name.
    pub den: String,
    /// Largest passing ratio.
    pub max: f64,
    /// The guarantee the gate stands for, shown when it fails.
    pub why: &'static str,
}

impl Gate {
    /// Human-readable `<measure> <num> / <den>` label.
    pub fn label(&self) -> String {
        let measure = match self.measure {
            Measure::Nodes => "nodes",
            Measure::Wall => "wall",
        };
        format!("{measure} {} / {}", self.num, self.den)
    }

    /// The gated ratio over this run's `cases`. A zero denominator counts
    /// as one, so an empty reference never divides by zero.
    ///
    /// # Errors
    ///
    /// Names the case (or its `nodes` metric) that this run did not record.
    pub fn ratio(&self, cases: &[Case]) -> Result<f64, String> {
        let value = |name: &str| -> Result<f64, String> {
            let case = cases
                .iter()
                .find(|c| c.name == name)
                .ok_or_else(|| format!("gate {}: case {name} not measured", self.label()))?;
            match self.measure {
                Measure::Nodes => case
                    .metric("nodes")
                    .map(|v| v as f64)
                    .ok_or_else(|| format!("gate {}: case {name} has no nodes", self.label())),
                Measure::Wall => Ok(case.median_ns as f64),
            }
        };
        Ok(value(&self.num)? / value(&self.den)?.max(1.0))
    }
}

/// The result of [`check`]: what passed (for the log) and what failed.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per comparison made.
    pub notes: Vec<String>,
    /// One line per failed gate; empty means the check passed.
    pub failures: Vec<String>,
}

/// Runs `f` once untimed, then `reps` times timed, and returns the median
/// duration in nanoseconds. The untimed call pays what only a first run
/// pays (page faults on fresh allocations, cold caches), so a one-rep
/// median is a warm run like the median of several.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    f();
    warm_median_ns(reps, f)
}

/// [`median_ns`] without the untimed call, for a case the caller has
/// already run once (a reference run whose counts the timed runs check),
/// so that run is the warm-up.
pub fn warm_median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Renders a baseline file: `preamble` holds extra top-level
/// `"key": value` entries; each gate is written with this run's ratio.
pub fn render(bench: &str, preamble: &[String], cases: &[Case], gates: &[Gate]) -> String {
    let mut s = format!("{{\n  \"bench\": \"{bench}\",\n  \"schema\": 3,\n");
    for entry in preamble {
        s.push_str(&format!("  {entry},\n"));
    }
    s.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {}, \"runs\": {}",
            c.name, c.median_ns, c.runs
        ));
        for (k, v) in &c.metrics {
            s.push_str(&format!(", \"{k}\": {v}"));
        }
        for (k, v) in &c.rates {
            s.push_str(&format!(", \"{k}\": {v:.4}"));
        }
        s.push_str(if i + 1 == cases.len() { "}\n" } else { "},\n" });
    }
    s.push_str("  ],\n  \"gates\": [\n");
    for (i, g) in gates.iter().enumerate() {
        let ratio = g.ratio(cases).unwrap_or(f64::NAN);
        s.push_str(&format!(
            "    {{\"gate\": \"{}\", \"ratio\": {ratio:.4}, \"max\": {:.2}}}",
            g.label(),
            g.max
        ));
        s.push_str(if i + 1 == gates.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses one rendered case line; `None` for every other line.
fn parse_case(line: &str) -> Option<Case> {
    let body = line.trim().trim_end_matches(',');
    let body = body.strip_prefix('{')?.strip_suffix('}')?;
    let (mut name, mut median_ns, mut runs) = (None, None, 0);
    let (mut metrics, mut rates) = (Vec::new(), Vec::new());
    for field in body.split(", ") {
        let (key, value) = field.split_once(": ")?;
        let key = key.trim_matches('"');
        match key {
            "name" => name = Some(value.trim_matches('"').to_string()),
            "median_ns" => median_ns = value.parse().ok(),
            "runs" => runs = value.parse().ok()?,
            _ => match value.parse::<u64>() {
                Ok(v) => metrics.push((key.to_string(), v)),
                Err(_) => rates.push((key.to_string(), value.parse().ok()?)),
            },
        }
    }
    Some(Case {
        name: name?,
        median_ns: median_ns?,
        runs,
        metrics,
        rates,
    })
}

/// Parses every case of a baseline file.
pub fn parse(text: &str) -> Vec<Case> {
    text.lines().filter_map(parse_case).collect()
}

/// The one checker: the same-run `gates` over `cases`, plus, when a
/// committed `baseline` file's text is given, the node, size and removal
/// gates against it. Baseline cases this run did not measure fail; cases
/// new to this run are noted.
pub fn check(baseline: Option<&str>, gates: &[Gate], cases: &[Case]) -> Verdict {
    let mut v = Verdict::default();
    if let Some(text) = baseline {
        let base = parse(text);
        if base.is_empty() {
            v.failures.push("baseline contains no cases".to_string());
        }
        for b in &base {
            let Some(c) = cases.iter().find(|c| c.name == b.name) else {
                v.failures
                    .push(format!("case {} missing from this run", b.name));
                continue;
            };
            v.notes.push(format!(
                "{}: wall {:.2}x of baseline ({} ns vs {} ns)",
                c.name,
                c.median_ns as f64 / b.median_ns.max(1) as f64,
                c.median_ns,
                b.median_ns
            ));
            if let (Some(was), Some(now)) = (b.metric("nodes"), c.metric("nodes")) {
                let limit = (was as f64 * (1.0 + NODE_TOLERANCE)).floor() as u64;
                if now > limit {
                    v.failures.push(format!(
                        "case {}: nodes regressed {was} -> {now} (> {:.0}% tolerance)",
                        c.name,
                        NODE_TOLERANCE * 100.0
                    ));
                } else {
                    v.notes
                        .push(format!("{}: nodes {now} (baseline {was}) ok", c.name));
                }
            }
            let exact = |k: &str| k.starts_with("size") || k.ends_with("_removals");
            for (key, was) in b.metrics.iter().filter(|(k, _)| exact(k)) {
                if let Some(now) = c.metric(key).filter(|now| now != was) {
                    v.failures
                        .push(format!("case {}: {key} changed {was} -> {now}", c.name));
                }
            }
        }
        for c in cases {
            if !base.iter().any(|b| b.name == c.name) {
                v.notes
                    .push(format!("note: new case {} not in baseline", c.name));
            }
        }
    }
    for g in gates {
        match g.ratio(cases) {
            Ok(r) if r <= g.max => {
                v.notes
                    .push(format!("{}: {r:.4} <= {:.2} ok", g.label(), g.max))
            }
            Ok(r) => v
                .failures
                .push(format!("{}: {r:.4} > {:.2} ({})", g.label(), g.max, g.why)),
            Err(e) => v.failures.push(e),
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cases() -> Vec<Case> {
        let mut a = Case::new("solve/x/kdc", 400, 3)
            .with("nodes", 100)
            .with("size", 14);
        a.rates.push(("ub1_prune_rate".to_string(), 0.25));
        let b = Case::new("solve/x/kdc-scalar", 1_000, 3)
            .with("nodes", 100)
            .with("size", 14);
        vec![
            a,
            b,
            Case::new("ctcp/x/schedule", 7, 3).with("edge_removals", 9),
        ]
    }

    fn gate(measure: Measure, max: f64) -> Gate {
        Gate {
            measure,
            num: "solve/x/kdc".to_string(),
            den: "solve/x/kdc-scalar".to_string(),
            max,
            why: "test",
        }
    }

    #[test]
    fn render_then_parse_round_trips_every_case() {
        let cases = cases();
        let text = render(
            "BENCH_T",
            &["\"extra\": {\"case\": \"c\", \"v\": 1}".to_string()],
            &cases,
            &[gate(Measure::Wall, 1.0)],
        );
        assert_eq!(parse(&text), cases);
        assert!(
            text.contains("\"gate\": \"wall solve/x/kdc / solve/x/kdc-scalar\", \"ratio\": 0.4000")
        );
    }

    #[test]
    fn identical_run_passes_its_own_baseline() {
        let cases = cases();
        let text = render("BENCH_T", &[], &cases, &[]);
        let v = check(Some(&text), &[gate(Measure::Nodes, 1.0)], &cases);
        assert!(v.failures.is_empty(), "{:?}", v.failures);
    }

    #[test]
    fn node_growth_beyond_tolerance_and_size_changes_fail() {
        let base = render("BENCH_T", &[], &cases(), &[]);
        let mut now = cases();
        now[0].metrics[0].1 = 105; // within 5%
        assert!(check(Some(&base), &[], &now).failures.is_empty());
        now[0].metrics[0].1 = 106;
        now[1].metrics[1].1 = 13;
        let v = check(Some(&base), &[], &now);
        assert_eq!(v.failures.len(), 2, "{:?}", v.failures);
        assert!(v.failures[0].contains("nodes regressed 100 -> 106"));
        assert!(v.failures[1].contains("size changed 14 -> 13"));
    }

    #[test]
    fn removal_count_changes_fail() {
        let base = render("BENCH_T", &[], &cases(), &[]);
        let mut now = cases();
        now[2].metrics[0].1 = 8;
        let v = check(Some(&base), &[], &now);
        assert_eq!(
            v.failures,
            ["case ctcp/x/schedule: edge_removals changed 9 -> 8"]
        );
    }

    #[test]
    fn missing_cases_fail_and_new_cases_are_noted() {
        let base = render("BENCH_T", &[], &cases(), &[]);
        let mut now = cases();
        let dropped = now.remove(2);
        now.push(Case::new("solve/y/kdc", 1, 1));
        let v = check(Some(&base), &[], &now);
        assert_eq!(
            v.failures,
            [format!("case {} missing from this run", dropped.name)]
        );
        assert!(v.notes.iter().any(|n| n.contains("new case solve/y/kdc")));
        assert!(!check(Some("{}"), &[], &now).failures.is_empty());
    }

    #[test]
    fn ratio_gates_bound_same_run_ratios() {
        let cases = cases();
        assert!(check(None, &[gate(Measure::Wall, 0.5)], &cases)
            .failures
            .is_empty());
        let v = check(None, &[gate(Measure::Wall, 0.3)], &cases);
        assert!(
            v.failures[0].contains("0.4000 > 0.30 (test)"),
            "{:?}",
            v.failures
        );
        let mut missing = gate(Measure::Nodes, 1.0);
        missing.den = "ctcp/x/schedule".to_string();
        let v = check(None, &[missing], &cases);
        assert!(v.failures[0].contains("has no nodes"), "{:?}", v.failures);
    }

    #[test]
    #[should_panic(expected = "metric nodes recorded twice")]
    fn a_repeated_metric_key_panics() {
        let _ = Case::new("solve/x/kdc", 1, 1)
            .with("nodes", 1)
            .with("nodes", 1);
    }

    #[test]
    fn a_slow_first_call_does_not_set_a_one_rep_median() {
        let mut first = true;
        let median = median_ns(1, || {
            if std::mem::take(&mut first) {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        });
        assert!(median < 25_000_000, "median {median} ns is the cold call");
    }

    #[test]
    fn committed_baselines_parse() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (file, cases) in [
            ("BENCH_5.json", 10),
            ("BENCH_6.json", 10),
            ("BENCH_7.json", 2),
            ("BENCH_8.json", 2),
            ("BENCH_9.json", 14),
        ] {
            let text = std::fs::read_to_string(root.join(file)).unwrap();
            let parsed = parse(&text);
            assert_eq!(parsed.len(), cases, "{file}");
            assert!(
                parsed.iter().all(|c| c.runs > 0 && c.median_ns > 0),
                "{file}"
            );
        }
    }
}
