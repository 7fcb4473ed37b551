//! CTCP reduction benchmarks: from-scratch core/truss fixpoint recomputation
//! vs the incremental reducer, driven across a rising lower-bound schedule
//! on planted instances (the access pattern of a solver whose incumbent
//! keeps improving, and of a resident service absorbing warm SOLVEs).
//!
//! Beyond timing, the bench *asserts* the structural warm-path claims once
//! per graph before the timed loops: the incremental reducer lands on the
//! byte-identical fixpoint at every step of the schedule, warm solver runs
//! return byte-identical solutions while performing exactly one universe
//! build, and a resumed reducer re-removes nothing.

use criterion::{criterion_group, criterion_main, Criterion};
use kdc::{Solver, SolverConfig};
use kdc_graph::ctcp::{scratch_fixpoint, Ctcp};
use kdc_graph::{gen, Graph};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The rising lower-bound schedule both sides are driven through.
const SCHEDULE: [usize; 6] = [8, 10, 12, 14, 16, 18];
const K: usize = 2;

fn planted(seed: u64, n: usize) -> Graph {
    let (g, _) = gen::planted_defective_clique(n, 18, K, 0.01, &mut gen::seeded_rng(seed));
    g
}

/// One-time structural parity check (outside the timed loops).
fn assert_warm_path_claims(g: &Graph) {
    // 1. Incremental == scratch at every schedule point, edges included.
    let mut warm = Ctcp::new(g, K);
    for &lb in &SCHEDULE {
        warm.tighten(lb);
        let (expected, expected_keep) = scratch_fixpoint(g, K, lb);
        assert_eq!(warm.alive_vertices(), expected_keep, "lb {lb}");
        let (universe, _) = warm.extract_universe();
        assert_eq!(universe, expected, "lb {lb}");
    }

    // 2. Warm solver runs: byte-identical output, exactly one universe
    //    build, and nothing left for the resumed reducer to remove.
    let cold = Solver::new(g, K, SolverConfig::kdc()).solve();
    assert!(cold.is_optimal());
    let resident = Arc::new(Mutex::new(Ctcp::new(g, K)));
    let warm_cfg = SolverConfig::kdc()
        .with_shared_ctcp(resident)
        .with_seed_solution(cold.vertices.clone());
    let warm1 = Solver::new(g, K, warm_cfg.clone()).solve();
    let warm2 = Solver::new(g, K, warm_cfg).solve();
    assert_eq!(warm1.vertices, cold.vertices, "byte-identical solution");
    assert_eq!(warm2.vertices, cold.vertices, "byte-identical solution");
    assert_eq!(
        warm2.stats.universe_rebuilds, 1,
        "warm path performs no extra universe rebuilds"
    );
    assert_eq!(
        warm2.stats.ctcp_vertex_removals, 0,
        "resumed reducer is already at the fixpoint"
    );
    assert_eq!(warm2.stats.ctcp_edge_removals, 0);
}

fn bench_ctcp(c: &mut Criterion) {
    for (name, seed, n) in [("planted-2k", 11u64, 2_000usize), ("planted-5k", 12, 5_000)] {
        let g = planted(seed, n);
        assert_warm_path_claims(&g);

        let mut group = c.benchmark_group(format!("ctcp/{name}"));
        group.sample_size(10);

        // The old world: every lb improvement recomputes the core/truss
        // fixpoint from a fresh clone of the graph.
        group.bench_function("scratch-schedule", |b| {
            b.iter(|| {
                let mut last = 0usize;
                for &lb in &SCHEDULE {
                    let (reduced, keep) = scratch_fixpoint(&g, K, lb);
                    last = black_box(keep.len() + reduced.m());
                }
                last
            })
        });

        // Cold incremental: pay the one-time support computation, then
        // propagate each schedule step incrementally.
        group.bench_function("incremental-cold", |b| {
            b.iter(|| {
                let mut ctcp = Ctcp::new(&g, K);
                for &lb in &SCHEDULE {
                    black_box(ctcp.tighten(lb).vertices.len());
                }
                ctcp.alive_n()
            })
        });

        // Warm incremental (the resident-service path): the reducer already
        // exists; only the tighten propagation is timed.
        group.bench_function("incremental-warm", |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let mut ctcp = Ctcp::new(&g, K);
                    let t0 = Instant::now();
                    for &lb in &SCHEDULE {
                        black_box(ctcp.tighten(lb).vertices.len());
                    }
                    total += t0.elapsed();
                }
                total
            })
        });

        group.finish();
    }
}

criterion_group!(benches, bench_ctcp);
criterion_main!(benches);
