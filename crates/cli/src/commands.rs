//! The `kdc` subcommands.
//!
//! Every solver-facing command (`solve`, `enumerate`, `count`) constructs a
//! [`kdc_api::Session`] and drives the same typed query surface the daemon
//! and the benches use; the CLI adds only argument parsing and printing.

use crate::args::{parse, Parsed};
use crate::load_graph;
use kdc::{gamma_k, sigma_k, Status};
use kdc_api::{Budget, Event, Observer, Options, Query, Session};
use kdc_graph::stats::graph_stats;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Parsed `kdc solve` arguments, separated from the argv handling so tests
/// can run several solves against one held [`Session`].
pub(crate) struct SolveArgs {
    k: usize,
    preset: String,
    limit: Option<std::time::Duration>,
    nodes: Option<u64>,
    /// `None` = sequential; `Some(0)` = all cores.
    threads: Option<usize>,
    watch: bool,
    stats: bool,
    cert: Option<String>,
    /// `--profile`: a tracer created before the graph was parsed (it
    /// already holds the `parse` span) and threaded through the solve.
    trace: Option<kdc_obs::Tracer>,
}

impl SolveArgs {
    fn from_parsed(p: &Parsed, trace: Option<kdc_obs::Tracer>) -> Result<SolveArgs, String> {
        Ok(SolveArgs {
            k: p.required("k")?,
            preset: p.string_or("preset", "kdc").to_string(),
            // The shared validators from kdc::config — the same ones the
            // daemon protocol uses — so hostile limits fail identically on
            // every surface.
            limit: p
                .raw("limit")
                .map(kdc::config::parse_time_limit_arg)
                .transpose()?,
            nodes: p
                .raw("nodes")
                .map(kdc::config::parse_node_limit_arg)
                .transpose()?,
            // --threads N selects the parallel ego decomposition with
            // exactly N threads (0 = all cores); --parallel remains the
            // "all cores" shorthand.
            threads: match p.optional("threads")? {
                Some(n) => Some(n),
                None if p.has("parallel") => Some(0),
                None => None,
            },
            watch: p.has("watch"),
            stats: p.has("stats"),
            cert: p.optional("cert")?,
            trace,
        })
    }
}

/// `kdc solve <file> --k K [--preset P] [--limit S] [--nodes N] [--parallel]
/// [--threads N] [--stats] [--watch] [--cert F]`
///
/// `--stats` additionally prints the reduction/arena counters (CTCP
/// removals, arena reuses, universe rebuilds), the bound-prune counters
/// (total prunes and how many were decided by UB1 / the KD-Club bound) and
/// the session cache counters, so perf-path regressions are visible
/// straight from the CLI.
/// `--watch` streams incumbent/retighten/restart events as the search runs.
///
/// Returns the process exit code: `0` for a proven-optimal solution,
/// [`crate::EXIT_BEST_EFFORT`] when a limit expired first.
pub fn solve(args: &[String]) -> Result<ExitCode, String> {
    let p = parse(args)?;
    let path = p.positional(0, "graph-file")?;
    let preset_name = p.string_or("preset", "kdc");
    // --profile: the tracer exists before parsing so the `parse` span
    // covers graph I/O, then rides into the solver's peel/tighten/branch
    // phases via the session's observed entry point.
    let trace = p.has("profile").then(kdc_obs::Tracer::new);
    let g = {
        let _parse = trace.as_ref().map(|t| t.span("parse"));
        load_graph(path)?
    };

    if preset_name == "rds" {
        let k: usize = p.required("k")?;
        let sol = kdc_baselines::max_defective_clique_rds(&g, k);
        println!("size: {}", sol.len());
        println!("vertices: {:?}", sol);
        return Ok(ExitCode::SUCCESS);
    }

    let solve_args = SolveArgs::from_parsed(&p, trace)?;
    let session = Session::new(g);
    solve_on_session(&session, &solve_args)
}

/// `kdc batch <file> --k <LO..HI> [--r R] [--preset P] [--limit S]
/// [--nodes N] [--parallel] [--threads N] [--watch]`
///
/// Answers the whole `k = LO..=HI` sweep as one planned batch
/// ([`Session::run_batch`]): ascending-k execution where each proven
/// optimum seeds and caps the next solves, one shared reducer pass per
/// sub-solve, duplicate sub-queries answered once. Prints one line per k
/// plus the batch's shared-work counters. `--r R` enumerates a top-R pool
/// per k instead of solving for one maximum. `--limit` bounds the whole
/// batch; `--nodes` bounds each sub-solve. `--watch` streams sub-query
/// completions (and incumbent improvements) as they land.
///
/// Returns exit code `0` when every sub-query is proven optimal,
/// [`crate::EXIT_BEST_EFFORT`] when any limit expired first.
pub fn batch(args: &[String]) -> Result<ExitCode, String> {
    let p = parse(args)?;
    let path = p.positional(0, "graph-file")?;
    let raw_k = p.raw("k").ok_or("batch requires --k <LO..HI>")?;
    let (k_lo, k_hi) = parse_k_range(raw_k)?;
    let r: Option<usize> = p.optional("r")?;
    if r == Some(0) {
        return Err("--r must be positive".to_string());
    }
    let options = Options::preset(p.string_or("preset", "kdc"))?;
    let budget = Budget {
        time_limit: p
            .raw("limit")
            .map(kdc::config::parse_time_limit_arg)
            .transpose()?,
        node_limit: p
            .raw("nodes")
            .map(kdc::config::parse_node_limit_arg)
            .transpose()?,
        threads: match p.optional("threads")? {
            Some(n) => n,
            None if p.has("parallel") => 0,
            None => 1,
        },
        cancel: None,
    };
    let observer: Option<Arc<dyn Observer>> = p.has("watch").then(|| {
        Arc::new(|e: &Event| match *e {
            Event::Incumbent { size } => println!("watch: incumbent size={size}"),
            Event::SubDone {
                index,
                k,
                size,
                status,
            } => println!(
                "watch: sub-done idx={index} k={k} size={size} status={}",
                status.as_token()
            ),
            _ => {}
        }) as Arc<dyn Observer>
    });

    let g = load_graph(path)?;
    let session = Session::new(g);
    let subs: Vec<kdc_api::SubQuery> = (k_lo..=k_hi)
        .map(|k| kdc_api::SubQuery { k, r, preset: None })
        .collect();
    let batch = session.run_batch_with(&subs, &budget, &options, observer)?;

    for (sub, outcome) in subs.iter().zip(&batch.outcomes) {
        match sub.r {
            None => println!(
                "k={}: size={} status={} vertices={:?}",
                sub.k,
                outcome.size(),
                outcome.status.as_token(),
                outcome.best().unwrap_or_default()
            ),
            Some(_) => println!(
                "k={}: pool={} sizes={:?} status={}",
                sub.k,
                outcome.witnesses.len(),
                outcome.witnesses.iter().map(Vec::len).collect::<Vec<_>>(),
                outcome.status.as_token()
            ),
        }
    }
    let status = batch.status();
    println!(
        "batch: status={} subs={} ctcp-shares={} witness-seeds={} memo-dedups={}",
        status_report(status),
        batch.outcomes.len(),
        batch.batch_ctcp_shares,
        batch.batch_witness_seeds,
        batch.batch_memo_dedups
    );
    println!("nodes: {} (all searches)", batch.total_nodes());
    println!("time: {:.3}s", batch.elapsed.as_secs_f64());
    Ok(if status == Status::Optimal {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(crate::EXIT_BEST_EFFORT)
    })
}

/// Parses `--k`'s value for `kdc batch`: `<LO>..<HI>` (inclusive) or a
/// single `<K>` — the CLI twin of the daemon's `MSOLVE k=` grammar.
fn parse_k_range(raw: &str) -> Result<(usize, usize), String> {
    let parse_one = |s: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("invalid k bound {s:?} in --k {raw}"))
    };
    let (lo, hi) = match raw.split_once("..") {
        Some((lo, hi)) => (parse_one(lo)?, parse_one(hi)?),
        None => {
            let k = parse_one(raw)?;
            (k, k)
        }
    };
    if hi < lo {
        return Err(format!("empty k range {raw} (upper bound below lower)"));
    }
    Ok((lo, hi))
}

/// The `status:` report line body: the one-word status, flagged
/// best-effort when the answer is not proven optimal.
fn status_report(status: Status) -> String {
    match status {
        Status::Optimal => "optimal".to_string(),
        other => format!("{} (best-effort)", other.as_token()),
    }
}

/// Runs one solve against a (possibly held, possibly warm) session and
/// prints the report. Split out of [`solve`] so the warm path is testable:
/// a second call on the same session must reuse the resident reducer.
pub(crate) fn solve_on_session(session: &Session, a: &SolveArgs) -> Result<ExitCode, String> {
    let budget = Budget {
        time_limit: a.limit,
        node_limit: a.nodes,
        threads: a.threads.unwrap_or(1),
        cancel: None,
    };
    let options = Options::preset(&a.preset)?;
    let observer: Option<Arc<dyn Observer>> = a.watch.then(|| {
        Arc::new(|e: &Event| match *e {
            Event::Incumbent { size } => println!("watch: incumbent size={size}"),
            Event::Retighten { vertices, edges } => {
                println!("watch: retighten removed-vertices={vertices} removed-edges={edges}")
            }
            Event::Restart { universe } => println!("watch: restart universe={universe}"),
            Event::SubDone {
                index,
                k,
                size,
                status,
            } => {
                println!(
                    "watch: sub-done idx={index} k={k} size={size} status={}",
                    status.as_token()
                )
            }
            Event::Done { .. } => {}
        }) as Arc<dyn Observer>
    });
    let outcome = session.run_observed(
        &Query::Solve { k: a.k },
        &budget,
        &options,
        observer,
        a.trace.clone(),
    )?;

    let witness = outcome.best().unwrap_or_default().to_vec();
    if let Some(out) = &a.cert {
        let cert = kdc::verify::Certificate::new(
            session.graph(),
            a.k,
            &witness,
            outcome.status == Status::Optimal,
        );
        std::fs::write(out, cert.to_text()).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("certificate: {out}");
    }
    println!("status: {}", status_report(outcome.status));
    println!("size: {}", outcome.size());
    println!("vertices: {:?}", witness);
    println!(
        "missing-edges: {} / {}",
        session.graph().missing_edges_within(&witness),
        a.k
    );
    println!(
        "time: {:.3}s (preprocess {:.3}s, search {:.3}s)",
        outcome.stats.total_time().as_secs_f64(),
        outcome.stats.preprocess_time.as_secs_f64(),
        outcome.stats.search_time.as_secs_f64()
    );
    println!("nodes: {}", outcome.stats.nodes);
    if a.stats {
        let s = &outcome.stats;
        println!(
            "reduced: n0 {} m0 {} (initial lb {})",
            s.preprocessed_n, s.preprocessed_m, s.initial_solution_size
        );
        println!(
            "ctcp: vertex-removals {} edge-removals {}",
            s.ctcp_vertex_removals, s.ctcp_edge_removals
        );
        // Per-bound time of this solve (a memo answer reports the search
        // that proved it).
        let bound_times: Vec<String> = kdc::bound::NAMES
            .iter()
            .zip(&s.bound_costs)
            .map(|(name, cost)| format!("{name}={:.2}", cost.ns as f64 / 1e6))
            .collect();
        println!(
            "bounds: prunes {} (ub1 {} kdclub {}) time-ms {}",
            s.bound_prunes,
            s.ub1_prunes,
            s.kdclub_prunes,
            bound_times.join(" ")
        );
        println!(
            "arena: reuses {} universe-rebuilds {} ego-subproblems {}",
            s.arena_reuses, s.universe_rebuilds, s.ego_subproblems
        );
        let c = session.counters();
        println!(
            "session: memo-hit {} ctcp-resumed {} seeded {} (builds {} resumes {} evictions {})",
            outcome.cache.result_memo_hit,
            outcome.cache.ctcp_resumed,
            outcome.cache.seeded,
            c.ctcp_builds,
            c.ctcp_resumes,
            c.ctcp_evictions
        );
    }
    if let Some(trace) = &a.trace {
        // Phase breakdown from the span ring, then the per-bound costs of
        // *this* solve (invocations / prunes / time) from its SearchStats.
        println!("profile: phase breakdown ({} spans)", trace.len());
        for phase in trace.summary() {
            println!(
                "  {:<10} count {:<6} total {:.3}ms",
                phase.name,
                phase.count,
                phase.total_ns as f64 / 1e6
            );
        }
        if trace.dropped() > 0 {
            println!("  (ring full: {} spans dropped)", trace.dropped());
        }
        println!("profile: bound costs");
        for (i, cost) in outcome.stats.bound_costs.iter().enumerate() {
            println!(
                "  {:<10} invocations {:<8} prunes {:<8} total {:.3}ms",
                kdc::bound::NAMES[i],
                cost.invocations,
                cost.prunes,
                cost.ns as f64 / 1e6
            );
        }
    }
    Ok(if outcome.is_optimal() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(crate::EXIT_BEST_EFFORT)
    })
}

/// `kdc metrics <addr>` — scrape a running daemon's Prometheus exposition
/// (the `METRICS` verb) and print it. The exposition is validated line by
/// line — unknown shapes, non-numeric samples, a series count that does
/// not match the final `OK series=N` verdict, or an empty registry all
/// exit nonzero — so the command doubles as a health check in CI.
pub fn metrics(args: &[String]) -> Result<(), String> {
    let p = parse(args)?;
    let addr = p.positional(0, "addr")?;
    let response =
        kdc_service::request(addr, "METRICS").map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let verdict = response.lines().last().unwrap_or("");
    if !verdict.starts_with("OK ") {
        return Err(format!("scrape failed: {verdict}"));
    }
    let declared: usize = verdict
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("series="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed verdict: {verdict}"))?;
    let mut samples = 0usize;
    for line in response.lines() {
        let Some(exposition) = line.strip_prefix("METRIC ") else {
            continue;
        };
        if let Some(comment) = exposition.strip_prefix("# TYPE ") {
            let kind = comment.split_whitespace().nth(1).unwrap_or("");
            if !["counter", "gauge", "histogram"].contains(&kind) {
                return Err(format!("unknown series type in {exposition:?}"));
            }
        } else {
            let (name, value) = exposition
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed sample {exposition:?}"))?;
            if !name.starts_with("kdc_") {
                return Err(format!("series outside the kdc_ namespace: {name:?}"));
            }
            value
                .parse::<f64>()
                .map_err(|_| format!("non-numeric sample value in {exposition:?}"))?;
            samples += 1;
        }
        println!("{exposition}");
    }
    if samples != declared {
        return Err(format!(
            "scrape declared {declared} series but exposed {samples}"
        ));
    }
    if samples == 0 {
        return Err("empty registry: no series exposed".to_string());
    }
    Ok(())
}

/// `kdc serve [--addr A] [--workers N] [--slow-ms T] [--idle-secs S]
/// [--watchdog-secs S] [--max-conns N] [--max-queue N] [--cache-cap N]` —
/// run the solver daemon until a client sends `SHUTDOWN`. `--slow-ms` sets
/// the slow-query log threshold (default 1000; `0` logs every solve with
/// its phase breakdown); the remaining flags are the hardening knobs
/// (admission control, idle reaping, the watchdog, the graph-cache LRU
/// bound) — each defaults to off/unlimited. A `KDC_FAULTS` environment
/// variable arms the fault-injection plan at startup (any build).
pub fn serve(args: &[String]) -> Result<(), String> {
    let p = parse(args)?;
    let addr = p.string_or("addr", "127.0.0.1:4817");
    let workers: usize = match p.optional("workers")? {
        Some(0) | None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        Some(n) => n,
    };
    let mut server =
        kdc_service::Server::bind(addr, workers).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    if let Some(ms) = p.optional::<u64>("slow-ms")? {
        server = server.with_slow_threshold(std::time::Duration::from_millis(ms));
    }
    let max_conns: usize = p.optional("max-conns")?.unwrap_or(0);
    let max_queue: usize = p.optional("max-queue")?.unwrap_or(0);
    if max_conns > 0 || max_queue > 0 {
        server = server.with_limits(max_conns, max_queue);
    }
    if let Some(secs) = p.optional::<u64>("idle-secs")? {
        server = server.with_idle_timeout(std::time::Duration::from_secs(secs));
    }
    if let Some(secs) = p.optional::<u64>("watchdog-secs")? {
        server = server.with_watchdog(std::time::Duration::from_secs(secs));
    }
    if let Some(cap) = p.optional::<usize>("cache-cap")? {
        server = server.with_cache_capacity(cap);
    }
    if let Some(dir) = p.optional::<String>("state-dir")? {
        server = server
            .with_state_dir(&dir)
            .map_err(|e| format!("--state-dir {dir}: {e}"))?;
    }
    let armed = kdc_faults::install_from_env().map_err(|e| format!("KDC_FAULTS: {e}"))?;
    if armed > 0 {
        eprintln!("kdc serve: {armed} fault rule(s) armed from KDC_FAULTS");
    }
    println!("listening on {} ({workers} workers)", server.local_addr());
    server.run().map_err(|e| format!("server error: {e}"))
}

/// `kdc client [--retries N] [--backoff-ms M] <addr> <command...>` — send
/// one protocol line to a running daemon and print its response. Exits `0`
/// on `OK`, `1` on `ERR`. With `--retries`, connect failures and `ERR busy`
/// replies are retried with decorrelated-jitter backoff (base
/// `--backoff-ms`, default 50); torn replies and mid-exchange errors are
/// additionally retried for the idempotent read verbs
/// (`SOLVE`/`STATS`/`METRICS`); other errors are never retried.
pub fn client(args: &[String]) -> Result<ExitCode, String> {
    // Protocol tokens are `key=value`, not `--flags`, so the retry flags
    // are stripped by hand off the front and the rest stays raw.
    const USAGE: &str = "usage: kdc client [--retries N] [--backoff-ms M] <addr> <command...>";
    let mut retries: u32 = 0;
    let mut backoff_ms: u64 = 50;
    let mut rest = args;
    loop {
        match rest {
            [flag, value, tail @ ..] if flag == "--retries" => {
                retries = value
                    .parse()
                    .map_err(|_| format!("invalid --retries {value:?}"))?;
                rest = tail;
            }
            [flag, value, tail @ ..] if flag == "--backoff-ms" => {
                backoff_ms = value
                    .parse()
                    .map_err(|_| format!("invalid --backoff-ms {value:?}"))?;
                rest = tail;
            }
            _ => break,
        }
    }
    let (addr, command) = rest.split_first().ok_or(USAGE)?;
    if command.is_empty() || addr.starts_with("--") {
        return Err(USAGE.to_string());
    }
    let line = command.join(" ");
    let response = kdc_service::request_with_retry(
        addr,
        &line,
        retries,
        std::time::Duration::from_millis(backoff_ms),
    )
    .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    println!("{response}");
    // A verbose solve streams EVENT lines first; the verdict is the final
    // line.
    let verdict_is_err = response
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("ERR"));
    Ok(if verdict_is_err {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `kdc enumerate <file> --k K [--top R] [--diversify]`
pub fn enumerate(args: &[String]) -> Result<(), String> {
    let p = parse(args)?;
    let path = p.positional(0, "graph-file")?;
    let k: usize = p.required("k")?;
    let top: Option<usize> = p.optional("top")?;
    let session = Session::new(load_graph(path)?);

    let query = match top {
        Some(r) => Query::TopR {
            k,
            r,
            diversify: p.has("diversify"),
        },
        None if p.has("diversify") => {
            return Err("--diversify requires --top <R>".to_string());
        }
        None => Query::Enumerate { k },
    };
    let outcome = session.run(&query, &Budget::default(), &Options::default())?;
    let label = if p.has("diversify") {
        "diversified"
    } else {
        "maximal"
    };
    println!("{label} {k}-defective cliques: {}", outcome.witnesses.len());
    for (i, c) in outcome.witnesses.iter().enumerate() {
        println!("#{i}: size {} {:?}", c.len(), c);
    }
    Ok(())
}

/// `kdc count <file> --k K [--min-size S]` — exact per-size counts of
/// k-defective cliques (`#P`-hard in general; keep `--min-size` close to
/// the maximum on non-toy graphs).
pub fn count(args: &[String]) -> Result<(), String> {
    let p = parse(args)?;
    let path = p.positional(0, "graph-file")?;
    let k: usize = p.required("k")?;
    let min_size: usize = p.optional("min-size")?.unwrap_or(0);
    let session = Session::new(load_graph(path)?);
    let outcome = session.run(
        &Query::Count { k, min_size },
        &Budget::default(),
        &Options::default(),
    )?;
    let counts = outcome.counts.expect("count queries return counts");
    println!("max-size: {}", counts.max_size());
    println!(
        "total (size >= {min_size}): {}",
        counts.total_at_least(min_size)
    );
    for (size, &c) in counts.counts.iter().enumerate() {
        if c > 0 {
            println!("size {size}: {c}");
        }
    }
    Ok(())
}

/// `kdc verify <graph-file> <certificate-file>`
pub fn verify(args: &[String]) -> Result<(), String> {
    let p = parse(args)?;
    let graph_path = p.positional(0, "graph-file")?;
    let cert_path = p.positional(1, "certificate-file")?;
    let g = load_graph(graph_path)?;
    let text =
        std::fs::read_to_string(cert_path).map_err(|e| format!("cannot read {cert_path}: {e}"))?;
    let cert = kdc::verify::Certificate::from_text(&text)?;
    let missing = cert.check(&g)?;
    println!(
        "VALID: {} vertices form a {}-defective clique ({} of {} allowed missing edges)",
        cert.vertices.len(),
        cert.k,
        missing,
        cert.k
    );
    Ok(())
}

/// `kdc stats <file>`
pub fn stats(args: &[String]) -> Result<(), String> {
    let p = parse(args)?;
    let path = p.positional(0, "graph-file")?;
    let g = load_graph(path)?;
    let s = graph_stats(&g);
    println!("n: {}", s.n);
    println!("m: {}", s.m);
    println!(
        "degree: min {} avg {:.2} max {}",
        s.min_degree, s.avg_degree, s.max_degree
    );
    println!("degeneracy: {}", s.degeneracy);
    println!("triangles: {}", s.triangles);
    println!("global-clustering: {:.4}", s.global_clustering);
    println!(
        "components: {} (largest {})",
        s.components, s.largest_component
    );
    Ok(())
}

/// `kdc convert <input> <output>` — format chosen by the output extension.
pub fn convert(args: &[String]) -> Result<(), String> {
    let p = parse(args)?;
    let input = p.positional(0, "input-file")?;
    let output = p.positional(1, "output-file")?;
    let g = load_graph(input)?;
    let out = Path::new(output);
    let result = match out.extension().and_then(|e| e.to_str()) {
        Some("clq") | Some("col") | Some("dimacs") => kdc_graph::io::write_dimacs(&g, out),
        Some("graph") | Some("metis") => kdc_graph::io::write_metis(&g, out),
        _ => kdc_graph::io::write_edge_list(&g, out),
    };
    result.map_err(|e| format!("cannot write {output}: {e}"))?;
    println!("wrote {} vertices / {} edges to {output}", g.n(), g.m());
    Ok(())
}

/// `kdc gamma [max_k]` — the complexity bases of Theorem 3.5.
pub fn gamma(args: &[String]) -> Result<(), String> {
    let p = parse(args)?;
    let max_k: usize = match p.positional.first() {
        Some(raw) => raw.parse().map_err(|_| format!("invalid max_k {raw:?}"))?,
        None => 10,
    };
    println!("k   γ_k (kDC)   σ_k = γ_2k (MADEC+)");
    for k in 0..=max_k {
        println!("{k:<3} {:<11.6} {:.6}", gamma_k(k), sigma_k(k));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch path. Tests run in parallel, so each test names its own
    /// files: a shared file could be read while another test rewrites it.
    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("kdc_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Writes the Figure 2 graph to a file named after the calling test.
    fn write_sample(test: &str) -> String {
        let g = kdc_graph::named::figure2();
        let path = tmp(&format!("{test}-fig2.clq"));
        kdc_graph::io::write_dimacs(&g, Path::new(&path)).unwrap();
        path
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn solve_command_runs() {
        let path = write_sample("solve_command_runs");
        solve(&argv(&[&path, "--k", "2"])).unwrap();
        solve(&argv(&[&path, "--k", "1", "--preset", "kdbb"])).unwrap();
        solve(&argv(&[&path, "--k", "1", "--preset", "kdclub"])).unwrap();
        solve(&argv(&[&path, "--k", "1", "--preset", "rds"])).unwrap();
        solve(&argv(&[&path, "--k", "1", "--parallel"])).unwrap();
        // --stats is a boolean flag and combines with the other options.
        solve(&argv(&[&path, "--k", "2", "--stats"])).unwrap();
        solve(&argv(&[&path, "--k", "1", "--stats", "--threads", "2"])).unwrap();
    }

    #[test]
    fn solve_threads_flag_parses_and_runs() {
        let path = write_sample("solve_threads_flag_parses_and_runs");
        // Explicit thread counts plumb through to the decomposed solver;
        // 0 means "all cores".
        solve(&argv(&[&path, "--k", "1", "--threads", "2"])).unwrap();
        solve(&argv(&[&path, "--k", "1", "--threads", "0"])).unwrap();
        // --threads combines with the other solve flags.
        solve(&argv(&[
            &path,
            "--k",
            "1",
            "--threads",
            "2",
            "--limit",
            "10",
        ]))
        .unwrap();
        assert!(
            solve(&argv(&[&path, "--k", "1", "--threads", "two"])).is_err(),
            "non-numeric thread count must be rejected"
        );
        assert!(
            solve(&argv(&[&path, "--k", "1", "--threads"])).is_err(),
            "--threads requires a value"
        );
    }

    #[test]
    fn serve_and_client_argument_validation() {
        assert!(client(&[]).is_err(), "client needs an address");
        assert!(
            client(&argv(&["127.0.0.1:1"])).is_err(),
            "client needs a command"
        );
        // Unreachable address surfaces as an error, not a panic.
        assert!(client(&argv(&["127.0.0.1:1", "JOBS"])).is_err());
        assert!(
            serve(&argv(&["--workers", "two"])).is_err(),
            "non-numeric worker count must be rejected"
        );
    }

    #[test]
    fn solve_profile_flag_runs() {
        let path = write_sample("solve_profile_flag_runs");
        solve(&argv(&[&path, "--k", "2", "--profile"])).unwrap();
        // --profile combines with the other reporting flags.
        solve(&argv(&[&path, "--k", "2", "--profile", "--stats"])).unwrap();
    }

    #[test]
    fn metrics_command_scrapes_a_live_server() {
        let path = write_sample("metrics_command_scrapes_a_live_server");
        let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.addr().to_string();
        client(&argv(&[&addr, "LOAD", &path, "AS", "fig2"])).unwrap();
        client(&argv(&[&addr, "SOLVE", "fig2", "k=2"])).unwrap();
        metrics(&argv(&[&addr])).unwrap();
        assert!(metrics(&argv(&[])).is_err(), "metrics needs an address");
        assert!(
            metrics(&argv(&["127.0.0.1:1"])).is_err(),
            "unreachable daemon is an error, not a panic"
        );
        client(&argv(&[&addr, "SHUTDOWN"])).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn client_drives_a_live_server() {
        let path = write_sample("client_drives_a_live_server");
        let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.addr().to_string();
        client(&argv(&[&addr, "LOAD", &path, "AS", "fig2"])).unwrap();
        client(&argv(&[&addr, "SOLVE", "fig2", "k=2"])).unwrap();
        // ERR responses are printed but reported via the exit code, not Err.
        client(&argv(&[&addr, "SOLVE", "ghost", "k=2"])).unwrap();
        client(&argv(&[&addr, "SHUTDOWN"])).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn solve_command_rejects_bad_input() {
        let path = write_sample("solve_command_rejects_bad_input");
        assert!(solve(&argv(&[&path])).is_err(), "missing --k");
        assert!(solve(&argv(&[&path, "--k", "2", "--preset", "nope"])).is_err());
        assert!(solve(&argv(&["/nonexistent.clq", "--k", "1"])).is_err());
    }

    #[test]
    fn solve_with_certificate_then_verify() {
        let path = write_sample("solve_with_certificate_then_verify");
        let cert = tmp("fig2.cert");
        solve(&argv(&[&path, "--k", "2", "--cert", &cert])).unwrap();
        verify(&argv(&[&path, &cert])).unwrap();
        // Verifying against the wrong graph fails.
        let other = tmp("k5.clq");
        kdc_graph::io::write_dimacs(&kdc_graph::gen::complete(5), Path::new(&other)).unwrap();
        assert!(verify(&argv(&[&other, &cert])).is_err());
        // Tampered certificate fails.
        let mut text = std::fs::read_to_string(&cert).unwrap();
        text = text.replace("k 2", "k 0");
        let tampered = tmp("tampered.cert");
        std::fs::write(&tampered, text).unwrap();
        assert!(verify(&argv(&[&path, &tampered])).is_err());
    }

    #[test]
    fn enumerate_command_runs() {
        let path = write_sample("enumerate_command_runs");
        enumerate(&argv(&[&path, "--k", "1", "--top", "3"])).unwrap();
        enumerate(&argv(&[&path, "--k", "0"])).unwrap();
        enumerate(&argv(&[&path, "--k", "1", "--top", "2", "--diversify"])).unwrap();
        assert!(
            enumerate(&argv(&[&path, "--k", "1", "--diversify"])).is_err(),
            "--diversify requires --top"
        );
    }

    #[test]
    fn count_command_runs() {
        let path = write_sample("count_command_runs");
        count(&argv(&[&path, "--k", "1", "--min-size", "5"])).unwrap();
        count(&argv(&[&path, "--k", "0"])).unwrap();
        assert!(count(&argv(&[&path])).is_err(), "missing --k");
        assert!(count(&argv(&["/nonexistent.clq", "--k", "1"])).is_err());
    }

    #[test]
    fn solve_watch_and_limit_flags_parse() {
        let path = write_sample("solve_watch_and_limit_flags_parse");
        solve(&argv(&[&path, "--k", "2", "--watch"])).unwrap();
        solve(&argv(&[&path, "--k", "2", "--nodes", "100000"])).unwrap();
        // Hostile limits are rejected by the shared validators.
        for bad in [
            vec![&path[..], "--k", "2", "--limit", "NaN"],
            vec![&path[..], "--k", "2", "--limit", "-1"],
            vec![&path[..], "--k", "2", "--nodes", "0"],
            vec![&path[..], "--k", "2", "--nodes", "1.5"],
        ] {
            assert!(solve(&argv(&bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn second_solve_on_a_held_session_reuses_the_reducer() {
        // The warm-solve-through-CLI contract: the command layer is a thin
        // shell over kdc_api::Session, so holding a session across two
        // `kdc solve` invocations reuses the resident reducer (asserted via
        // counters, not timings). The second run uses a different preset so
        // the result memo cannot answer.
        let session = kdc_api::Session::new(kdc_graph::named::figure2());
        let base = |preset: &str| SolveArgs {
            k: 2,
            preset: preset.to_string(),
            limit: None,
            nodes: None,
            threads: None,
            watch: false,
            stats: true,
            cert: None,
            trace: None,
        };
        let first = solve_on_session(&session, &base("kdc")).unwrap();
        assert_eq!(first, std::process::ExitCode::SUCCESS);
        let counters = session.counters();
        assert_eq!((counters.ctcp_builds, counters.ctcp_resumes), (1, 0));
        let second = solve_on_session(&session, &base("kdbb")).unwrap();
        assert_eq!(second, std::process::ExitCode::SUCCESS);
        let counters = session.counters();
        assert_eq!(
            (counters.ctcp_builds, counters.ctcp_resumes),
            (1, 1),
            "warm CLI solve must resume the resident reducer"
        );
        assert_eq!(counters.solves, 2, "both runs really searched");
    }

    #[test]
    fn stats_command_runs() {
        let path = write_sample("stats_command_runs");
        stats(&argv(&[&path])).unwrap();
    }

    #[test]
    fn convert_roundtrips_formats() {
        let path = write_sample("convert_roundtrips_formats");
        let metis = tmp("fig2.graph");
        let edges = tmp("fig2.txt");
        convert(&argv(&[&path, &metis])).unwrap();
        convert(&argv(&[&metis, &edges])).unwrap();
        let a = kdc_graph::io::read_graph(Path::new(&path)).unwrap();
        let b = kdc_graph::io::read_graph(Path::new(&edges)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gamma_command_runs() {
        gamma(&argv(&["5"])).unwrap();
        gamma(&argv(&[])).unwrap();
        assert!(gamma(&argv(&["abc"])).is_err());
    }
}
