//! Property-based tests (proptest) tying the whole stack together: random
//! graphs in, verified invariants out.

use kdc_suite::baselines::{max_defective_clique_naive, max_defective_size_naive};
use kdc_suite::graph::{coloring, degeneracy, truss, Graph};
use kdc_suite::kdc::{heuristic, probe, verify, Solver, SolverConfig};
use proptest::prelude::*;

/// Strategy: a random graph as (n, edge list over 0..n).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(60))
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solver_output_is_optimal_and_valid(g in arb_graph(12), k in 0usize..5) {
        let sol = Solver::new(&g, k, SolverConfig::kdc()).solve();
        prop_assert!(g.is_k_defective_clique(&sol.vertices, k));
        prop_assert!(sol.is_optimal());
        let expected = max_defective_size_naive(&g, k);
        prop_assert_eq!(sol.size(), expected);
    }

    #[test]
    fn every_preset_is_exact(g in arb_graph(10), k in 0usize..4) {
        let expected = max_defective_size_naive(&g, k);
        for cfg in [
            SolverConfig::kdc(),
            SolverConfig::kdc_t(),
            SolverConfig::without_ub1(),
            SolverConfig::without_rr3_rr4(),
            SolverConfig::without_ub1_rr3_rr4(),
            SolverConfig::degen(),
            SolverConfig::kdbb_like(),
            SolverConfig::madec_like(),
        ] {
            let sol = Solver::new(&g, k, cfg).solve();
            prop_assert_eq!(sol.size(), expected);
        }
    }

    #[test]
    fn scalar_kernel_does_not_change_answers(g in arb_graph(12), k in 0usize..4) {
        let with_matrix = Solver::new(&g, k, SolverConfig::kdc()).solve();
        // The scalar kernel runs on the sorted-list representation.
        let cfg = SolverConfig::kdc().with_scalar_kernel();
        let without = Solver::new(&g, k, cfg).solve();
        prop_assert_eq!(with_matrix.size(), without.size());
    }

    #[test]
    fn heuristics_are_valid_and_ordered(g in arb_graph(20), k in 0usize..6) {
        let d = heuristic::degen(&g, k);
        let o = heuristic::degen_opt(&g, k);
        prop_assert!(g.is_k_defective_clique(&d, k));
        prop_assert!(g.is_k_defective_clique(&o, k));
        prop_assert!(o.len() >= d.len());
    }

    #[test]
    fn root_bounds_dominate_optimum(g in arb_graph(12), k in 0usize..4) {
        let opt = max_defective_size_naive(&g, k);
        let b = probe::root_bounds(&g, &[], k);
        prop_assert!(b.ub1 >= opt);
        prop_assert!(b.eq2 >= opt);
        prop_assert!(b.ub3 >= opt);
        prop_assert!(b.ub1 <= b.eq2, "UB1 must be at least as tight as Eq.(2)");
    }

    #[test]
    fn naive_solution_extends_to_maximal(g in arb_graph(12), k in 0usize..4) {
        let c = max_defective_clique_naive(&g, k);
        let m = verify::extend_to_maximal(&g, &c, k);
        prop_assert!(verify::is_maximal_k_defective(&g, &m, k));
        // A maximum solution is already maximal.
        prop_assert_eq!(m.len(), c.len());
    }

    #[test]
    fn degeneracy_ordering_and_cores_consistent(g in arb_graph(20)) {
        let p = degeneracy::peel(&g);
        prop_assert!(degeneracy::is_degeneracy_ordering(&g, &p.order));
        let mut pb = degeneracy::BucketPeel::default();
        let (off, dat) = g.csr();
        let pb_degeneracy = degeneracy::peel_bucket(off, dat, &mut pb);
        prop_assert!(degeneracy::is_degeneracy_ordering(&g, pb.order()));
        prop_assert_eq!(p.degeneracy, pb_degeneracy);
        prop_assert_eq!(&p.core, &pb.core_numbers());
        // k-core members have core number ≥ k, and the k-core has min degree ≥ k.
        for k in 0..=p.degeneracy {
            let (sub, _) = degeneracy::k_core(&g, k);
            for v in sub.vertices() {
                prop_assert!(sub.degree(v) >= k);
            }
        }
    }

    #[test]
    fn truss_edges_have_support(g in arb_graph(16), k in 3usize..6) {
        let t = truss::k_truss(&g, k);
        for (u, v) in t.edges() {
            let common = t
                .neighbors(u)
                .iter()
                .filter(|w| t.neighbors(v).contains(w))
                .count();
            prop_assert!(common >= k - 2, "edge ({u},{v}) support {common} < {}", k - 2);
        }
    }

    #[test]
    fn coloring_is_proper_and_bounded(g in arb_graph(24)) {
        let c = coloring::greedy_degeneracy(&g);
        prop_assert!(c.is_proper(&g));
        let p = degeneracy::peel(&g);
        prop_assert!(c.num_colors <= p.degeneracy + 1);
    }

    #[test]
    fn complement_duality(g in arb_graph(10), k in 0usize..4) {
        // A vertex set is a k-defective clique of G iff it induces ≤ k edges
        // in the complement graph.
        let comp = g.complement();
        let sol = Solver::new(&g, k, SolverConfig::kdc()).solve();
        prop_assert!(comp.edges_within(&sol.vertices) <= k);
    }

    #[test]
    fn solution_invariant_under_relabelling(g in arb_graph(12), k in 0usize..4) {
        // Solving a relabelled copy yields the same optimum size.
        let n = g.n();
        let perm: Vec<u32> = (0..n as u32).rev().collect();
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (perm[u as usize], perm[v as usize]))
            .collect();
        let h = Graph::from_edges(n, &edges);
        let a = Solver::new(&g, k, SolverConfig::kdc()).solve();
        let b = Solver::new(&h, k, SolverConfig::kdc()).solve();
        prop_assert_eq!(a.size(), b.size());
    }
}
