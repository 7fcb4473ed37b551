//! Smoke tests for the `kdc` binary itself: run the real executable on a
//! tiny graph and assert on exit codes and key output lines, so `cargo test`
//! catches bin-target breakage (not just library regressions).
//!
//! `CARGO_BIN_EXE_kdc` is provided by cargo for integration tests of the
//! package that defines the binary, and forces the binary to be built.

use std::path::PathBuf;
use std::process::{Command, Output};

fn kdc_bin() -> &'static str {
    env!("CARGO_BIN_EXE_kdc")
}

fn run(args: &[&str]) -> Output {
    Command::new(kdc_bin())
        .args(args)
        .output()
        .expect("failed to spawn kdc binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Writes the paper's Figure 2 graph to a temp file and returns its path.
/// Written exactly once: tests run on parallel threads, and rewriting the
/// file (`File::create` truncates) would race against another test's `kdc`
/// subprocess mid-read.
fn sample_graph() -> PathBuf {
    static PATH: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("kdc_cli_smoke_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("figure2.clq");
        kdc_graph::io::write_dimacs(&kdc_graph::named::figure2(), &path).unwrap();
        path
    })
    .clone()
}

#[test]
fn no_args_fails_with_usage() {
    let out = run(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("kdc"), "usage text missing: {err}");
}

#[test]
fn help_succeeds() {
    assert!(run(&["help"]).status.success());
    assert!(run(&["--help"]).status.success());
}

#[test]
fn unknown_command_fails() {
    assert!(!run(&["frobnicate"]).status.success());
}

#[test]
fn solve_figure2() {
    let path = sample_graph();
    let out = run(&["solve", path.to_str().unwrap(), "--k", "2"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("status: optimal"), "output: {text}");
    // Figure 2's maximum 2-defective clique is {v1..v6}.
    assert!(text.contains("size: 6"), "output: {text}");
}

#[test]
fn solve_stats_prints_reduction_counters() {
    let path = sample_graph();
    let out = run(&["solve", path.to_str().unwrap(), "--k", "2", "--stats"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("ctcp: vertex-removals"), "output: {text}");
    assert!(text.contains("bounds: prunes"), "output: {text}");
    // The solve's own per-bound costs feed a time section onto the
    // bounds line.
    assert!(text.contains("time-ms ub3="), "output: {text}");
    assert!(text.contains("kdclub"), "output: {text}");
    assert!(text.contains("arena: reuses"), "output: {text}");
    assert!(text.contains("universe-rebuilds"), "output: {text}");

    // Without the flag the counter lines stay off.
    let out = run(&["solve", path.to_str().unwrap(), "--k", "2"]);
    let text = stdout(&out);
    assert!(!text.contains("ctcp:"), "output: {text}");
    assert!(!text.contains("bounds:"), "output: {text}");

    // The KD-Club bound preset drives the same pipeline end to end.
    let out = run(&[
        "solve",
        path.to_str().unwrap(),
        "--k",
        "2",
        "--preset",
        "kdclub",
        "--stats",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("size: 6"), "output: {text}");
    assert!(text.contains("bounds: prunes"), "output: {text}");

    // The parallel path surfaces the arena counters too.
    let out = run(&[
        "solve",
        path.to_str().unwrap(),
        "--k",
        "2",
        "--stats",
        "--threads",
        "2",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("arena: reuses"), "output: {text}");
}

/// Writes a dense 150-vertex G(n,p) graph whose k = 12 solve takes far
/// longer than a microsecond, so a tiny --limit deterministically expires.
fn hard_graph() -> PathBuf {
    static PATH: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("kdc_cli_smoke_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hard.clq");
        let mut rng = kdc_graph::gen::seeded_rng(99);
        let g = kdc_graph::gen::gnp(150, 0.6, &mut rng);
        kdc_graph::io::write_dimacs(&g, &path).unwrap();
        path
    })
    .clone()
}

#[test]
fn solve_profile_prints_phase_and_bound_tables() {
    let path = sample_graph();
    let out = run(&["solve", path.to_str().unwrap(), "--k", "2", "--profile"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("profile: phase breakdown"), "output: {text}");
    // The parse span wraps graph I/O; peel comes from inside the solver.
    assert!(text.contains("parse"), "output: {text}");
    assert!(text.contains("peel"), "output: {text}");
    assert!(text.contains("profile: bound costs"), "output: {text}");
    assert!(text.contains("invocations"), "output: {text}");

    // Without the flag the profile tables stay off.
    let out = run(&["solve", path.to_str().unwrap(), "--k", "2"]);
    let text = stdout(&out);
    assert!(!text.contains("profile:"), "output: {text}");
}

#[test]
fn solve_time_limit_exits_best_effort() {
    let path = hard_graph();
    let out = run(&[
        "solve",
        path.to_str().unwrap(),
        "--k",
        "12",
        "--limit",
        "0.000001",
    ]);
    // A best-effort answer is not an error (code 1) and not optimal
    // (code 0): it must be the dedicated exit code 2.
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(
        text.contains("status: timeout (best-effort)"),
        "output: {text}"
    );
    assert!(
        text.contains("size: "),
        "best solution still reported: {text}"
    );
}

#[test]
fn solve_threads_flag_works_end_to_end() {
    let path = sample_graph();
    let out = run(&[
        "solve",
        path.to_str().unwrap(),
        "--k",
        "2",
        "--threads",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("status: optimal"), "output: {text}");
    assert!(text.contains("size: 6"), "output: {text}");
}

#[test]
fn solve_watch_streams_incumbent_lines() {
    let path = sample_graph();
    let out = run(&["solve", path.to_str().unwrap(), "--k", "2", "--watch"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    // The observer renders incumbent events before the final report.
    let watch_pos = text
        .find("watch: incumbent size=")
        .unwrap_or_else(|| panic!("no watch line in: {text}"));
    let status_pos = text.find("status: optimal").expect("status line");
    assert!(
        watch_pos < status_pos,
        "watch output must precede the final report: {text}"
    );
    assert!(text.contains("size: 6"), "output: {text}");
}

#[test]
fn count_command_reports_counts() {
    let path = sample_graph();
    let out = run(&[
        "count",
        path.to_str().unwrap(),
        "--k",
        "1",
        "--min-size",
        "5",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("max-size: 5"), "output: {text}");
    assert!(text.contains("size 5: "), "output: {text}");
}

#[test]
fn solve_node_limit_flag_is_validated() {
    let path = sample_graph();
    // Valid node limit: runs (and on figure2 still proves optimality well
    // within the budget).
    let out = run(&[
        "solve",
        path.to_str().unwrap(),
        "--k",
        "2",
        "--nodes",
        "1000000",
    ]);
    assert!(out.status.success());
    // Hostile node limit: rejected by the shared validator, exit code 1.
    let out = run(&["solve", path.to_str().unwrap(), "--k", "2", "--nodes", "0"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("node limit"), "stderr: {err}");
}

#[test]
fn serve_and_client_roundtrip() {
    use std::io::BufRead;
    let path = sample_graph();
    // Ephemeral port: the daemon prints "listening on <addr> ..." first.
    let mut server = Command::new(kdc_bin())
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("failed to spawn kdc serve");
    let mut first_line = String::new();
    std::io::BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    let addr = first_line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line}"))
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    let client = |words: &[&str]| -> Output {
        let mut args = vec!["client", addr.as_str()];
        args.extend_from_slice(words);
        run(&args)
    };

    let out = client(&["LOAD", path.to_str().unwrap(), "AS", "fig2"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("loaded=fig2"), "{}", stdout(&out));

    let out = client(&["SOLVE", "fig2", "k=2"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("status=optimal"), "{text}");
    assert!(text.contains("size=6"), "{text}");

    // A verbose solve through `kdc client` prints the EVENT stream and the
    // final OK verdict (a different preset dodges the daemon's result memo
    // so a real search runs and emits events).
    let out = client(&["SOLVE", "fig2", "k=2", "preset=kdbb", "verbose=1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("EVENT type=incumbent"), "{text}");
    assert!(
        text.lines().last().unwrap().starts_with("OK "),
        "verdict must be the last line: {text}"
    );

    // ERR responses surface as a failing client exit code.
    let out = client(&["SOLVE", "ghost", "k=2"]);
    assert!(!out.status.success());
    assert!(stdout(&out).starts_with("ERR "), "{}", stdout(&out));

    // `kdc metrics` scrapes and validates the Prometheus exposition the
    // solves above populated.
    let out = run(&["metrics", addr.as_str()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("kdc_service_jobs_total"), "{text}");
    assert!(text.contains("kdc_session_solves_total"), "{text}");
    assert!(text.contains("kdc_core_bound_invocations_total"), "{text}");

    // Retry flags are stripped before the protocol line and work against a
    // live daemon (no busy reply here, so one attempt suffices).
    let out = run(&[
        "client",
        "--retries",
        "2",
        "--backoff-ms",
        "10",
        addr.as_str(),
        "JOBS",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));

    let out = client(&["SHUTDOWN"]);
    assert!(out.status.success());
    assert!(
        stdout(&out).contains("mode=abort"),
        "SHUTDOWN reply must echo its mode: {}",
        stdout(&out)
    );
    let status = server.wait().expect("server did not exit");
    assert!(status.success(), "serve exited with {status:?}");
}

#[test]
fn client_retries_exhaust_against_dead_port() {
    // Bind-then-drop yields an address that (almost certainly) refuses
    // connections; the client must sleep between attempts and still fail.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let start = std::time::Instant::now();
    let out = run(&[
        "client",
        "--retries",
        "2",
        "--backoff-ms",
        "5",
        addr.as_str(),
        "JOBS",
    ]);
    assert!(!out.status.success());
    assert!(
        start.elapsed() >= std::time::Duration::from_millis(5),
        "retries must back off between attempts"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot reach"), "stderr: {err}");
}

#[test]
fn client_rejects_malformed_retry_flags() {
    // A flag in address position means the operands went missing.
    let out = run(&["client", "--retries", "3"]);
    assert!(!out.status.success());
    let out = run(&["client", "--retries", "many", "127.0.0.1:1", "JOBS"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--retries"), "stderr: {err}");
}

#[test]
fn solve_missing_k_fails() {
    let path = sample_graph();
    assert!(!run(&["solve", path.to_str().unwrap()]).status.success());
}

#[test]
fn solve_missing_file_fails() {
    assert!(!run(&["solve", "/nonexistent/nope.clq", "--k", "1"])
        .status
        .success());
}

#[test]
fn stats_reports_counts() {
    let path = sample_graph();
    let out = run(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("n: 12"), "output: {text}");
    assert!(text.contains("m: 26"), "output: {text}");
}

#[test]
fn stats_refuses_a_graph_too_large_for_memory() {
    // Both files size the CSR offsets at 3e9 + 1 entries, 24 GB: the reader
    // must refuse them with exit 1 instead of aborting on the failed
    // allocation. `ulimit -v` caps only this child's address space, so the
    // allocation fails on any machine.
    let dir = std::env::temp_dir().join(format!("kdc_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text, n) in [
        ("huge.clq", "p edge 3000000000 1\n", "3000000000"),
        ("huge.txt", "0 3000000000\n", "3000000001"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -v 2000000; exec '{}' stats '{}'",
                kdc_bin(),
                path.display()
            ))
            .output()
            .expect("failed to spawn sh");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: stderr {err}");
        assert!(
            err.contains(&format!("out of memory for a graph of {n} vertices")),
            "{name}: stderr {err}"
        );
    }
}

#[test]
fn gamma_prints_table() {
    let out = run(&["gamma", "4"]);
    assert!(out.status.success());
    let text = stdout(&out);
    // Header plus k = 0..=4 rows.
    assert_eq!(text.lines().count(), 6, "output: {text}");
    // γ_1 ≈ 1.839 (the tribonacci constant) appears in the k = 1 row.
    assert!(text.contains("1.839"), "output: {text}");
}

#[test]
fn convert_roundtrips_formats() {
    let path = sample_graph();
    let metis = path.with_extension("graph");
    let out = run(&["convert", path.to_str().unwrap(), metis.to_str().unwrap()]);
    assert!(out.status.success());
    let back = kdc_graph::io::read_graph(&metis).unwrap();
    assert_eq!(back, kdc_graph::named::figure2());
}

#[test]
fn solve_writes_and_verifies_certificate() {
    let path = sample_graph();
    let cert = path.with_extension("cert");
    let out = run(&[
        "solve",
        path.to_str().unwrap(),
        "--k",
        "2",
        "--cert",
        cert.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&["verify", path.to_str().unwrap(), cert.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("VALID"));
}
