//! Cold vs. warm solve latency through the `kdc_service` graph cache and
//! the `kdc_api` Session layer it is built on.
//!
//! * `cold_process_per_query` models today's one-shot CLI: every query pays
//!   file parsing, session construction and a full solve (a fresh
//!   [`GraphCache`] per iteration, like a fresh process).
//! * `warm_cached_graph` models a resident daemon answering with a shared
//!   session: the solve still runs, but parsing is gone and the cached
//!   degeneracy peeling is reused.
//! * `warm_result_memo` is the full warm service path: after the first
//!   query the per-session result memo answers without searching at all.
//!
//! Beyond timing, the bench *asserts* (via the session counters, not the
//! clock) that the warm paths performed exactly one parse and one real
//! search across all iterations — the warm/cold contrast is structural,
//! not statistical.

use criterion::{criterion_group, criterion_main, Criterion};
use kdc::CancelFlag;
use kdc_api::{Budget, Options, Query};
use kdc_graph::gen;
use kdc_service::jobs::{run_job, JobOutcome, JobSpec};
use kdc_service::GraphCache;
use std::path::PathBuf;
use std::time::Duration;

const K: usize = 2;

/// Writes the benchmark graph once and returns its path.
fn graph_file() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdc_bench_service_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("planted.clq");
    if !path.exists() {
        let mut rng = gen::seeded_rng(4242);
        let (g, _) = gen::planted_defective_clique(400, 14, K, 0.02, &mut rng);
        kdc_graph::io::write_dimacs(&g, &path).unwrap();
    }
    path
}

fn solve_spec(cache: &GraphCache, name: &str) -> JobSpec {
    JobSpec {
        budget: Budget::default().with_time_limit(Duration::from_secs(60)),
        ..JobSpec::new(
            cache.get(name).expect("graph cached"),
            Query::Solve { k: K },
        )
    }
}

fn expect_solve_size(outcome: JobOutcome) -> usize {
    match outcome {
        JobOutcome::Done(outcome) => outcome.size(),
        other => panic!("expected a solve outcome, got {other:?}"),
    }
}

fn bench_warm_cold(c: &mut Criterion) {
    let path = graph_file();
    let path_str = path.to_str().unwrap().to_string();

    let mut group = c.benchmark_group("service_warm_cold");

    // Cold: a fresh cache per query — parse + artifacts + full search, the
    // cost every standalone `kdc solve` process pays.
    let mut cold_size = 0;
    group.bench_function("cold_process_per_query", |b| {
        b.iter(|| {
            let cache = GraphCache::new();
            cache.load(&path_str, "g").expect("load graph");
            cold_size = expect_solve_size(run_job(&solve_spec(&cache, "g"), CancelFlag::new()));
            cold_size
        })
    });

    // Warm: one resident cache. The graph is parsed exactly once; each
    // query solves on the shared session (memo dodged via a custom options
    // object, which is never memoized, so the search really runs).
    let warm_cache = GraphCache::new();
    warm_cache.load(&path_str, "g").expect("load graph");
    group.bench_function("warm_cached_graph", |b| {
        b.iter(|| {
            let entry = warm_cache.get("g").expect("cached");
            entry
                .session()
                .run(
                    &Query::Solve { k: K },
                    &Budget::default(),
                    &Options::custom(kdc::SolverConfig::kdc()),
                )
                .expect("solve")
                .size()
        })
    });

    // Warm + memo: the full service path; after the first query the
    // proven-optimal result is returned without searching.
    let mut warm_size = 0;
    group.bench_function("warm_result_memo", |b| {
        b.iter(|| {
            warm_size =
                expect_solve_size(run_job(&solve_spec(&warm_cache, "g"), CancelFlag::new()));
            warm_size
        })
    });
    group.finish();

    // Structural assertions: warm really skipped re-parsing and
    // re-searching. `parses` counts file parses; the session counters count
    // real (non-memo) searches and memo hits.
    assert_eq!(
        cold_size, warm_size,
        "warm and cold must agree on the answer"
    );
    assert_eq!(
        warm_cache.parses(),
        1,
        "warm path must not re-parse the graph file"
    );
    let entry = warm_cache.get("g").expect("cached");
    let counters = entry.session().counters();
    assert_eq!(
        counters.peel_builds, 1,
        "warm path must reuse the cached degeneracy peeling"
    );
    assert!(
        counters.result_hits >= 1,
        "repeated warm memo queries must hit the result memo"
    );
    assert_eq!(
        counters.ctcp_builds, 1,
        "one resident reducer serves every warm search"
    );
    assert!(
        counters.ctcp_resumes >= 1,
        "warm searches must resume the resident reducer"
    );
    assert_eq!(counters.ctcp_evictions, 0, "one key never evicts");
    println!(
        "service_warm_cold: parses={} peel_builds={} searches={} memo_hits={} \
         ctcp_builds={} ctcp_resumes={} ctcp_evictions={}",
        warm_cache.parses(),
        counters.peel_builds,
        counters.solves,
        counters.result_hits,
        counters.ctcp_builds,
        counters.ctcp_resumes,
        counters.ctcp_evictions
    );
}

criterion_group!(benches, bench_warm_cold);
criterion_main!(benches);
