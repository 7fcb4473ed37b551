//! Engine ablations.
//!
//! * matrix vs lists: the dense bit-matrix acceleration on vs off
//!   (identical search trees, different adjacency-test machinery);
//! * word vs scalar kernel: the masked-word hot path against the per-vertex
//!   probe path on search-heavy planted instances (identical search trees —
//!   the wall-clock ratio *is* the kernel speedup);
//! * kdclub: the KD-Club-style re-colouring bound (smaller search tree,
//!   costlier per node).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kdc::{Solver, SolverConfig};
use kdc_graph::gen;
use std::hint::black_box;

fn bench_word_kernel(c: &mut Criterion) {
    // The search-heavy planted instances of the `bench` baseline
    // (`BENCH_5.json` onward), where branch-and-bound — not preprocessing —
    // dominates the wall clock; one shared construction keeps this bench
    // and the committed baseline measuring identical instances.
    for (name, g, k) in kdc_bench::collections::planted_snapshot_cases() {
        let mut group = c.benchmark_group(format!("engine/{name}"));
        group.sample_size(10);
        // Word vs scalar walk identical trees (same node counts, same
        // witnesses) — pinned by `crates/core/tests/kernel_parity.rs`, so
        // the wall-clock ratio below is pure kernel speedup.
        type Variant = (&'static str, fn() -> SolverConfig);
        let variants: Vec<Variant> = vec![
            ("word", SolverConfig::kdc),
            ("scalar", || SolverConfig::kdc().with_scalar_kernel()),
            ("kdclub", SolverConfig::kdclub),
        ];
        for (vname, cfg) in variants {
            group.bench_with_input(BenchmarkId::new(vname, k), &k, |b, &k| {
                b.iter(|| {
                    let sol = Solver::new(black_box(&g), k, cfg()).solve();
                    black_box(sol.size())
                })
            });
        }
        group.finish();
    }
}

fn bench_matrix_ablation(c: &mut Criterion) {
    let cases = vec![
        ("gnp-60-04", gen::gnp(60, 0.4, &mut gen::seeded_rng(31))),
        (
            "community",
            gen::community(
                &gen::CommunityParams {
                    communities: 3,
                    community_size: 30,
                    p_in: 0.6,
                    p_out: 0.02,
                },
                &mut gen::seeded_rng(32),
            ),
        ),
    ];
    for (name, g) in cases {
        let mut group = c.benchmark_group(format!("engine/{name}"));
        group.sample_size(10);
        let k = 3usize;
        group.bench_with_input(BenchmarkId::new("bitmatrix", k), &k, |b, &k| {
            b.iter(|| {
                let sol = Solver::new(black_box(&g), k, SolverConfig::kdc()).solve();
                black_box(sol.size())
            })
        });
        group.bench_with_input(BenchmarkId::new("lists", k), &k, |b, &k| {
            let mut cfg = SolverConfig::kdc();
            cfg.matrix_limit = 0;
            b.iter(|| {
                let sol = Solver::new(black_box(&g), k, cfg.clone()).solve();
                black_box(sol.size())
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_matrix_ablation, bench_word_kernel);
criterion_main!(benches);
