//! Edge-case and stress tests for the engine, exercising regimes the main
//! test suite does not reach: extreme k, adversarial structures, deep
//! recursion and repeated solve reuse.

use crate::config::SolverConfig;
use crate::solver::Solver;
use kdc_graph::{gen, Graph};

/// Replays an interleaved add/remove/undo script on two engines over the
/// same universe — the word kernel on the dense matrix and the scalar
/// kernel on the sorted lists — and asserts after every operation that the
/// incrementally maintained quantities agree with each other *and* with a
/// from-scratch recount. This pins the contract that candidate removal
/// decrements degrees incrementally on the list path (mirroring the matrix
/// path) instead of re-deriving them.
#[test]
fn word_and_scalar_kernels_maintain_identical_state() {
    use crate::engine::{primed, Engine};
    let mut rng = gen::seeded_rng(424);
    for trial in 0..6 {
        let g = gen::gnp(40, 0.35, &mut rng);
        let word_cfg = SolverConfig::kdc_t();
        let scalar_cfg = word_cfg.clone().with_scalar_kernel();
        let k = 3usize;
        let mut ew = primed(&g, k, word_cfg, 0);
        let mut es = primed(&g, k, scalar_cfg, 0);
        assert!(
            ew.word_kernel_active(),
            "word kernel must run on the matrix"
        );
        assert!(
            !es.word_kernel_active(),
            "scalar kernel must run on the lists"
        );

        let assert_state = |ew: &Engine, es: &Engine, step: usize| {
            assert_eq!(ew.deg, es.deg, "trial {trial} step {step}: deg");
            assert_eq!(
                ew.non_nbr_s, es.non_nbr_s,
                "trial {trial} step {step}: non_nbr_s"
            );
            assert_eq!(ew.missing_in_s, es.missing_in_s);
            assert_eq!(ew.edges_alive, es.edges_alive);
            assert_eq!(ew.vs, es.vs, "identical op sequences keep vs aligned");
            // From-scratch recount of alive degrees on the word engine.
            let alive: Vec<u32> = ew.vs[..ew.cand_end].to_vec();
            for &v in &alive {
                let expect = g.neighbors(v).iter().filter(|w| alive.contains(w)).count();
                assert_eq!(
                    ew.deg[v as usize] as usize, expect,
                    "trial {trial} step {step}: incremental deg[{v}] diverged from recount"
                );
            }
        };

        let mut checkpoints = Vec::new();
        for step in 0..60 {
            let cands = ew.cand_end - ew.s_end;
            if cands == 0 {
                break;
            }
            match step % 5 {
                // Right-branch removal: the satellite's target operation.
                0 | 1 | 3 => {
                    let pick = ew.vs[ew.s_end + (step * 7) % cands];
                    ew.remove_cand(pick);
                    es.remove_cand(pick);
                }
                // Left branch: include a feasible candidate if any.
                2 => {
                    let (a, b) = (
                        ew.first_feasible_candidate_for_test(),
                        es.first_feasible_candidate_for_test(),
                    );
                    assert_eq!(a, b);
                    if let Some(v) = a {
                        ew.add_to_s(v);
                        es.add_to_s(v);
                    } else {
                        checkpoints.push(ew.trail.len());
                    }
                }
                // Periodic backtrack over a random span.
                _ => {
                    if let Some(cp) = checkpoints.pop() {
                        ew.undo_to(cp);
                        es.undo_to(cp);
                    } else {
                        checkpoints.push(ew.trail.len());
                    }
                }
            }
            assert_state(&ew, &es, step);
        }
        // Full unwind restores the root state exactly.
        ew.undo_to(0);
        es.undo_to(0);
        assert_state(&ew, &es, usize::MAX);
        assert_eq!(ew.edges_alive, g.m());
    }
}

#[test]
fn k_larger_than_all_possible_missing_edges() {
    // With k ≥ C(n,2), everything is one big k-defective clique.
    let g = gen::gnp(12, 0.3, &mut gen::seeded_rng(1));
    let k = 12 * 11 / 2;
    let sol = Solver::new(&g, k, SolverConfig::kdc()).solve();
    assert_eq!(sol.size(), 12);
    assert!(sol.is_optimal());
}

#[test]
fn star_graphs() {
    // Star K_{1,n}: any two leaves are non-adjacent, so a k-defective clique
    // holds the centre plus s leaves iff s(s−1)/2 ≤ k.
    let n_leaves = 10;
    let edges: Vec<(u32, u32)> = (1..=n_leaves).map(|l| (0, l)).collect();
    let g = Graph::from_edges(n_leaves as usize + 1, &edges);
    for (k, expected) in [(0usize, 2usize), (1, 3), (3, 4), (6, 5), (10, 6)] {
        let sol = Solver::new(&g, k, SolverConfig::kdc()).solve();
        assert_eq!(sol.size(), expected, "k = {k}");
    }
}

#[test]
fn two_disjoint_cliques() {
    // Two K6's: the solution never crosses (crossing any vertex pair costs
    // ≥ 6 missing edges at k ≤ 5).
    let mut edges = Vec::new();
    for base in [0u32, 6] {
        for a in 0..6 {
            for b in (a + 1)..6 {
                edges.push((base + a, base + b));
            }
        }
    }
    let g = Graph::from_edges(12, &edges);
    for k in 0..=5 {
        let sol = Solver::new(&g, k, SolverConfig::kdc()).solve();
        assert_eq!(sol.size(), 6, "k = {k}");
    }
    // k = 6: one foreign vertex misses exactly 6 edges against a K6 +
    // 0 internal → 7 vertices with 6 missing edges.
    let sol = Solver::new(&g, 6, SolverConfig::kdc()).solve();
    assert_eq!(sol.size(), 7);
}

#[test]
fn crown_graph_adversarial_for_coloring() {
    // Crown graph (complete bipartite minus a perfect matching): colouring
    // bounds are weak here; correctness must not depend on them.
    let n_side = 6u32;
    let mut edges = Vec::new();
    for a in 0..n_side {
        for b in 0..n_side {
            if a != b {
                edges.push((a, n_side + b));
            }
        }
    }
    let g = Graph::from_edges(2 * n_side as usize, &edges);
    let expected = [2usize, 3, 4, 4, 5, 5]; // confirmed by the brute force below
    for (k, &expected_size) in expected.iter().enumerate() {
        let sol = Solver::new(&g, k, SolverConfig::kdc()).solve();
        // Cross-check with an inline brute force.
        let n = g.n();
        let mut best = 0usize;
        for mask in 1u32..(1 << n) {
            let set: Vec<u32> = (0..n as u32).filter(|&v| mask >> v & 1 == 1).collect();
            if g.is_k_defective_clique(&set, k) {
                best = best.max(set.len());
            }
        }
        assert_eq!(sol.size(), best, "k = {k}");
        assert_eq!(sol.size(), expected_size, "expected table k = {k}");
    }
}

#[test]
fn long_path_collapses_in_preprocessing() {
    // On a 2000-vertex path the heuristic finds the optimum (3 consecutive
    // vertices, one missing edge) and the (lb − k)-core reduction empties
    // the graph entirely — the search must handle an empty universe.
    let n = 2_000u32;
    let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let g = Graph::from_edges(n as usize, &edges);
    let sol = Solver::new(&g, 1, SolverConfig::kdc()).solve();
    assert_eq!(sol.size(), 3);
    assert!(sol.is_optimal());
    assert_eq!(sol.stats.preprocessed_n, 0, "2-core of a path is empty");
}

#[test]
fn deep_recursion_trail_consistency() {
    // A moderately dense graph solved without any lb-based reductions
    // (kDC-t) exercises long include/exclude chains with full undo.
    let g = gen::gnp(26, 0.6, &mut gen::seeded_rng(4));
    let a = Solver::new(&g, 2, SolverConfig::kdc_t()).solve();
    let b = Solver::new(&g, 2, SolverConfig::kdc()).solve();
    assert_eq!(a.size(), b.size());
    assert!(a.stats.max_depth >= 10, "depth {}", a.stats.max_depth);
}

#[test]
fn repeated_solves_are_deterministic() {
    let g = gen::gnp(40, 0.3, &mut gen::seeded_rng(2));
    let a = Solver::new(&g, 3, SolverConfig::kdc()).solve();
    let b = Solver::new(&g, 3, SolverConfig::kdc()).solve();
    assert_eq!(a.vertices, b.vertices);
    assert_eq!(a.stats.nodes, b.stats.nodes);
}

#[test]
fn turan_style_worst_case_for_rr2() {
    // Complete multipartite with parts of size 3: every vertex has exactly
    // 2 non-neighbours, the boundary of Lemma 3.3 — RR2 must not fire at
    // the root. Optima: pick s_i per part with Σ C(s_i, 2) ≤ k.
    let g = gen::complete_multipartite(&[3, 3, 3, 3]);
    for (k, expected) in [(0usize, 4usize), (1, 5), (2, 6), (3, 7)] {
        let sol = Solver::new(&g, k, SolverConfig::kdc()).solve();
        assert_eq!(sol.size(), expected, "k = {k}");
    }
}

#[test]
fn all_k_values_on_one_graph_are_monotone_and_optimal() {
    let g = gen::community(
        &gen::CommunityParams {
            communities: 3,
            community_size: 15,
            p_in: 0.7,
            p_out: 0.05,
        },
        &mut gen::seeded_rng(3),
    );
    let mut prev = 0usize;
    for k in 0..=12 {
        let sol = Solver::new(&g, k, SolverConfig::kdc()).solve();
        assert!(sol.is_optimal());
        assert!(sol.size() >= prev);
        assert!(g.is_k_defective_clique(&sol.vertices, k));
        prev = sol.size();
    }
}

#[test]
fn graph_with_self_contained_components() {
    // Disconnected graph: solver must look at the right component per k.
    let mut edges = Vec::new();
    // Component A: K5.
    for a in 0..5u32 {
        for b in (a + 1)..5 {
            edges.push((a, b));
        }
    }
    // Component B: C7 (cycle) — good for k ≥ 2 only in small pieces.
    for i in 0..7u32 {
        edges.push((5 + i, 5 + (i + 1) % 7));
    }
    let g = Graph::from_edges(12, &edges);
    assert_eq!(Solver::new(&g, 0, SolverConfig::kdc()).solve().size(), 5);
    assert_eq!(Solver::new(&g, 3, SolverConfig::kdc()).solve().size(), 5);
    // k = 10: K5 + any 1 more vertex misses 5 edges; 2 more miss ≥ 10 …
    let sol = Solver::new(&g, 10, SolverConfig::kdc()).solve();
    assert!(g.is_k_defective_clique(&sol.vertices, 10));
    assert!(sol.size() >= 6);
}
