//! The kDC suite's benchmark: one seeded workload per invocation, every
//! answer checked, and one JSON line of metrics as the last line of stdout.
//!
//! ```text
//! kdc-perfbench --workload <sparse-cold|dense-search|daemon-mixed>
//!               --seed <n> --seconds <s> --trace <0|1> --kdc <path-to-kdc>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics ([`END_TO_END`]) and prints,
//! on the line before the result, the run's calibration scale and every
//! end-to-end metric unscaled (see `calib`); `--trace 1` is a separate run
//! that records spans around each layer call and reports the per-layer
//! metrics ([`PER_LAYER`]). A per-layer metric that a workload does not
//! exercise reads 0. Inputs and scratch files live in
//! `.bench_work/` under the current directory; spans of traced runs are
//! written to `.bench_work/trace/`. See `README.md` beside this crate for
//! the workloads, the metric definitions and which layer moves which
//! end-to-end metric.

mod calib;
mod daemon;
mod gen;
mod report;
mod solve;

use kdc_graph::Graph;
use report::Report;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics: name and unit. Every workload measures all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cold_p50_ms", "ms"),
    ("load_p50_ms", "ms"),
    ("memo_p50_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit, grouped by the module they describe.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_s", "s"),
    ("io.parse_mb_per_s", "MB/s"),
    ("degeneracy.peel_s", "s"),
    ("heuristic.s", "s"),
    ("heuristic.lb_gap", "count"),
    ("ctcp.build_s", "s"),
    ("ctcp.tighten_s", "s"),
    ("ctcp.removed_v", "count"),
    ("ctcp.removed_e", "count"),
    ("ctcp.survivor_n", "count"),
    ("ctcp.survivor_m", "count"),
    ("engine.search_s", "s"),
    ("engine.nodes", "count"),
    ("engine.nodes_per_s", "1/s"),
    ("engine.universe_rebuilds", "count"),
    ("engine.unattributed_s", "s"),
    ("bound.ub1_s", "s"),
    ("bound.ub1_invocations", "count"),
    ("bound.ub1_prune_rate", "ratio"),
    ("bound.ub2_s", "s"),
    ("bound.ub2_invocations", "count"),
    ("bound.ub2_prune_rate", "ratio"),
    ("bound.ub3_s", "s"),
    ("bound.ub3_invocations", "count"),
    ("bound.ub3_prune_rate", "ratio"),
    ("bound.kdclub_s", "s"),
    ("bound.kdclub_invocations", "count"),
    ("bound.kdclub_prune_rate", "ratio"),
    ("bound.ub4_s", "s"),
    ("bound.ub4_invocations", "count"),
    ("bound.ub4_prune_rate", "ratio"),
    ("session.ctcp_builds", "count"),
    ("session.ctcp_resumes", "count"),
    ("session.peel_builds", "count"),
    ("session.memo_hit_ratio", "ratio"),
    ("batch.ctcp_shares", "count"),
    ("batch.witness_seeds", "count"),
    ("batch.nodes", "count"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.job_p50_ms", "ms"),
    ("service.wire_p50_ms", "ms"),
    ("service.busy_rejections", "count"),
    ("service.conn_errors", "count"),
    ("store.journal_appends", "count"),
    ("store.snapshot_writes", "count"),
    ("client.sweep_p50_ms", "ms"),
    ("client.latency_tail_ms", "ms"),
    ("client.latency_tail_pct", "%"),
    ("client.requests", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Measured metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What a run measured: the metrics it reports and, for an untraced run,
/// the same end-to-end metrics unscaled and the run's median calibration
/// scale.
#[derive(Default)]
pub struct Measured {
    pub values: Values,
    pub raw: Values,
    pub scale: Option<f64>,
}

/// The command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    kdc: PathBuf,
    work: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut raw = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace, mut kdc) = (None, 7, 10, false, None);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => trace = number()? == 1,
                "--kdc" => kdc = Some(PathBuf::from(&value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        // Relative paths: the daemon runs in the same directory, and its
        // protocol takes whitespace-free paths whatever the checkout's.
        Ok(Args {
            work: Path::new(".bench_work")
                .join(format!("{workload}-{seed}-{}", std::process::id())),
            workload,
            seed,
            seconds,
            trace,
            kdc: kdc.unwrap_or_else(|| PathBuf::from("target/release/kdc")),
        })
    }

    /// Where a traced run writes its spans (kept after the run).
    pub fn trace_path(&self) -> PathBuf {
        self.work
            .with_file_name("trace")
            .join(format!("{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// Checks a reported witness against the graph: in range, strictly
/// ascending (so duplicate-free) and a `k`-defective clique.
pub fn verify_witness(g: &Graph, set: &[u32], k: usize) -> Result<(), String> {
    if set.iter().any(|&v| v as usize >= g.n()) {
        return Err("vertex out of range".into());
    }
    if set.windows(2).any(|w| w[0] >= w[1]) {
        return Err("vertices not strictly ascending".into());
    }
    if !g.is_k_defective_clique(set, k) {
        return Err(format!("not a {k}-defective clique"));
    }
    Ok(())
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run() -> Result<String, String> {
    let args = Args::parse()?;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let _cleanup = WorkDir(args.work.clone());
    if args.trace {
        let dir = args.trace_path();
        let dir = dir.parent().expect("trace path has a directory");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut report = Report::default();
    let measured = match args.workload.as_str() {
        "sparse-cold" => solve::run(solve::Kind::SparseCold, &args, &mut report)?,
        "dense-search" => solve::run(solve::Kind::DenseSearch, &args, &mut report)?,
        "daemon-mixed" => daemon::run(&args, &mut report)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (sparse-cold | dense-search | daemon-mixed)"
            ))
        }
    };
    let values = &measured.values;
    if args.trace {
        for &(name, unit) in PER_LAYER {
            report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        for &(name, unit) in END_TO_END {
            let value = values
                .get(name)
                .ok_or_else(|| format!("{name} was not measured"))?;
            report.metric(name, *value, unit);
        }
        let raw: Vec<String> = END_TO_END
            .iter()
            .filter_map(|(name, _)| Some(format!("{name}={}", measured.raw.get(name)?)))
            .collect();
        let scale = measured.scale.map_or("none".to_string(), |s| s.to_string());
        println!("calibration scale={scale} unscaled: {}", raw.join(" "));
    }
    Ok(report.json())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("solver-process") {
        return match solve::solver_process(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("kdc-perfbench solver-process: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kdc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"name\": \"").count();
        let workloads = ["sparse-cold", "dense-search", "daemon-mixed"];
        assert_eq!(listed, workloads.len() + END_TO_END.len() + PER_LAYER.len());
        for name in workloads {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} is not listed with unit {unit}"
            );
        }
    }
}
