//! Engine ablations.
//!
//! * word vs scalar kernel: the masked-word hot path over the dense
//!   bit-matrix against the per-vertex probe path over the sorted lists on
//!   search-heavy planted instances (identical search trees — the
//!   wall-clock ratio *is* the speedup of the dense representation);
//! * kdclub: the KD-Club-style re-colouring bound (smaller search tree,
//!   costlier per node).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kdc::{Solver, SolverConfig};
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

criterion_group!(benches, bench_word_kernel);
criterion_main!(benches);
