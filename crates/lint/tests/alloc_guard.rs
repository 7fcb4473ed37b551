//! The runtime half of `hot_path_alloc`: a counting global allocator
//! asserts the PR 3 zero-allocation claims directly instead of inferring
//! them from reuse counters.
//!
//! Two claims are pinned:
//! 1. after a warm-up pass, re-solving the same ego instances through
//!    `SubproblemArena` performs **zero** heap allocations (the arena and
//!    the hollow engine own all their buffers at steady state, including
//!    the scratch of the shared bucket peel that ranks each universe —
//!    `Engine::reset` is the priming path solver restarts use too);
//! 2. a warm `Ctcp::tighten` at an already-reached bound allocates
//!    nothing (the bucket queues are drained in place).
//!
//! Everything runs inside ONE `#[test]` so no concurrent test thread can
//! pollute the counter, and the counter only counts between explicit
//! enable/disable fences. This file deliberately lives outside the lint
//! walker's `src/` scope: a `GlobalAlloc` impl is the one place the
//! workspace needs `unsafe`, and it is test-only code.

use kdc::decompose::SubproblemArena;
use kdc::solver::SolveBudget;
use kdc::SolverConfig;
use kdc_graph::ctcp::Ctcp;
use kdc_graph::{gen, Graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Frees are not counted: steady state may drop nothing anyway,
        // and the claim under test is about *acquiring* memory.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns how many allocations
/// (malloc/calloc/realloc) it performed.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), r)
}

/// One pass of the ego-subproblem loop over every vertex: universe =
/// v ∪ N(v) in reduced ids, exactly like the decomposition worker's
/// distance-≤2 build but deterministic and self-contained.
fn ego_pass(arena: &mut SubproblemArena, g: &Graph, lb: usize) -> u64 {
    let budget = SolveBudget::default();
    let mut solved = 0;
    for v in g.vertices() {
        arena.begin_instance();
        arena.admit(v);
        for &w in g.neighbors(v) {
            arena.admit(w);
        }
        for &w in g.neighbors(v) {
            for &x in g.neighbors(w) {
                arena.admit(x);
            }
        }
        if arena.universe_len() > lb {
            arena.solve_instance(g, v, lb, &budget);
            solved += 1;
        }
    }
    solved
}

#[test]
fn warm_paths_do_not_allocate() {
    let mut rng = gen::seeded_rng(20230617);
    let g = gen::gnp(120, 0.12, &mut rng);
    let k = 2;

    // ---- claim 1: steady-state arena re-solves -------------------------
    let mut arena = SubproblemArena::new(g.n(), k, SolverConfig::kdc());
    let lb = 4;
    let warm_solved = ego_pass(&mut arena, &g, lb);
    assert!(warm_solved > 10, "graph too sparse to exercise the arena");
    let reuses_before = arena.reuses();
    let (allocs, resolved) = count_allocs(|| ego_pass(&mut arena, &g, lb));
    assert_eq!(resolved, warm_solved, "same instances both passes");
    assert_eq!(
        arena.reuses() - reuses_before,
        warm_solved,
        "every warm instance must be an arena reuse"
    );
    assert_eq!(
        allocs, 0,
        "steady-state ego re-solves must perform zero heap allocations"
    );

    // ---- claim 2: warm Ctcp::tighten on an already-tight graph ---------
    let mut ctcp = Ctcp::with_rules(&g, k, true, true);
    let removed = ctcp.tighten(lb);
    assert!(
        removed.vertices.len() as u64 + removed.edges > 0,
        "warm-up tighten should remove something at lb={lb}"
    );
    let (allocs, removed) = count_allocs(|| ctcp.tighten(lb));
    assert_eq!(removed.vertices.len(), 0, "already at fixpoint");
    assert_eq!(removed.edges, 0, "already at fixpoint");
    assert_eq!(
        allocs, 0,
        "warm tighten at a reached bound must perform zero heap allocations"
    );
}
