//! KDBB-like baseline (Gao et al., AAAI 2022 \[16\]).
//!
//! KDBB was the practically fastest maximum k-defective clique solver before
//! kDC. Its original binary is not publicly available (the kDC paper itself
//! compares against numbers reported in \[16\]); this reimplementation keeps
//! the *algorithmic* content attributed to KDBB by the paper —
//!
//! * preprocessing: an initial heuristic solution, the (lb−k)-core rule RR5
//!   and the (lb−k+1)-truss rule RR6;
//! * bounding: the UB3 prefix bound (proposed in \[16\]) and the classic UB2,
//!   which RR5 applies to the vertices of S;
//! * no RR2/RR3/RR4, no UB1, plain degree-based branching —
//!
//! on top of the same engine and data structures as kDC, so measured gaps
//! reflect the algorithmic differences, not implementation quality. Its time
//! complexity is the trivial `O*(2^n)` (no branching-rule argument applies).

use kdc::{Solution, Solver, SolverConfig};
use kdc_graph::Graph;
use std::time::Duration;

/// Maximum k-defective clique via the KDBB-like configuration.
pub fn solve(g: &Graph, k: usize) -> Solution {
    solve_with_limit(g, k, None)
}

/// Same as [`solve`] with an optional wall-clock limit.
pub fn solve_with_limit(g: &Graph, k: usize, limit: Option<Duration>) -> Solution {
    let mut cfg = SolverConfig::kdbb_like();
    cfg.time_limit = limit;
    Solver::new(g, k, cfg).solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdc_graph::{gen, named};

    #[test]
    fn agrees_with_naive() {
        let mut rng = gen::seeded_rng(100);
        for _ in 0..10 {
            let g = gen::gnp(16, 0.45, &mut rng);
            for k in [0usize, 1, 3] {
                let expected = crate::naive::max_defective_size_naive(&g, k);
                let sol = solve(&g, k);
                assert_eq!(sol.size(), expected, "k = {k}");
                assert!(g.is_k_defective_clique(&sol.vertices, k));
            }
        }
    }

    #[test]
    fn figure2_sizes() {
        let g = named::figure2();
        assert_eq!(solve(&g, 1).size(), 5);
        assert_eq!(solve(&g, 2).size(), 6);
    }
}
