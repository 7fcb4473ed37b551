//! Top-r extensions (§6): finding several large k-defective cliques.
//!
//! * [`top_r_maximal`] — the `r` largest **maximal** k-defective cliques,
//!   via the enumeration variant of the engine (RR2 tightened to universal
//!   vertices only, a solution pool in place of a single incumbent, and the
//!   pool's smallest size driving the lb-based rules). As noted in the
//!   paper, the tightened RR2 weakens the complexity to `O*(γ_{2k}^n)`.
//! * [`top_r_diversified`] — `r` k-defective cliques that collectively cover
//!   as many distinct vertices as possible, via the iterative peel-and-solve
//!   scheme with its `(1 − 1/e)`-approximation guarantee.

use crate::config::SolverConfig;
use crate::engine::Engine;
use crate::solver::{SolveBudget, Solver};
use crate::stats::Status;
use kdc_graph::graph::{Graph, VertexId};
use std::time::Instant;

/// An enumeration answer plus its completeness: [`Status::Optimal`] means
/// the pool is proven exact; any other status means a limit or a
/// cancellation interrupted the search and the pool may be truncated.
#[derive(Clone, Debug)]
pub struct TopRResult {
    /// The collected cliques, size-descending (ties by vertex set).
    pub cliques: Vec<Vec<VertexId>>,
    /// [`Status::Optimal`] iff the enumeration ran to completion.
    pub status: Status,
    /// Search nodes the query visited, over all of its engine runs; never
    /// more than the node limit in its `config`.
    pub nodes: u64,
}

/// The `r` largest maximal k-defective cliques of `g` (fewer if the graph
/// has fewer maximal cliques), sorted by size descending. Ties at the pool
/// boundary are resolved arbitrarily, like any top-r-by-size query.
///
/// ```
/// use kdc::{topr::top_r_maximal, SolverConfig};
/// use kdc_graph::named;
///
/// // Figure 2: the top-2 maximal 1-defective cliques have 5 vertices each.
/// let g = named::figure2();
/// let top = top_r_maximal(&g, 1, 2, SolverConfig::kdc());
/// assert_eq!(top.len(), 2);
/// assert_eq!(top[0].len(), 5);
/// ```
pub fn top_r_maximal(g: &Graph, k: usize, r: usize, config: SolverConfig) -> Vec<Vec<VertexId>> {
    top_r_maximal_with_status(g, k, r, config).cliques
}

/// [`top_r_maximal`] plus the completion status, for callers that pass a
/// time/node limit or a cancellation flag in `config` and must not read a
/// truncated pool as the proven top-r answer.
pub fn top_r_maximal_with_status(
    g: &Graph,
    k: usize,
    r: usize,
    config: SolverConfig,
) -> TopRResult {
    assert!(r > 0, "r must be positive");
    // Enumeration must not discard solutions via a precomputed lower bound,
    // so no heuristic floor and no lb-driven preprocessing are used.
    let budget = SolveBudget::new(&config);
    let mut engine = Engine::hollow(k, config);
    let (offsets, data) = g.csr();
    engine.reset(offsets, data, 0);
    engine.enable_pool(r);
    let status = if engine.run(&budget) {
        Status::Optimal
    } else {
        engine.abort_status()
    };
    let mut out: Vec<Vec<VertexId>> = engine
        .take_pool()
        .into_iter()
        .map(|mut c| {
            c.sort_unstable();
            c
        })
        .collect();
    out.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    debug_assert!(
        status != Status::Optimal
            || out
                .iter()
                .all(|c| crate::verify::is_maximal_k_defective(g, c, k))
    );
    TopRResult {
        cliques: out,
        status,
        nodes: budget.spent(),
    }
}

/// Enumerates **all** maximal k-defective cliques of `g`, sorted by size
/// descending (ties by vertex set). Equivalent to [`top_r_maximal`] with an
/// unbounded pool; exponential output is possible, so use on small or
/// well-structured graphs.
pub fn enumerate_maximal(g: &Graph, k: usize, config: SolverConfig) -> Vec<Vec<VertexId>> {
    top_r_maximal(g, k, usize::MAX, config)
}

/// `r` k-defective cliques chosen to cover many distinct vertices: find the
/// maximum clique, delete its vertices, repeat. The greedy scheme yields a
/// `(1 − 1/e)`-approximation to the maximum coverage (§6).
pub fn top_r_diversified(
    g: &Graph,
    k: usize,
    r: usize,
    config: SolverConfig,
) -> Vec<Vec<VertexId>> {
    top_r_diversified_with_status(g, k, r, config).cliques
}

/// [`top_r_diversified`] plus the completion status: anything other than
/// [`Status::Optimal`] means some peel-and-solve round was interrupted by a
/// limit or cancellation, so the covered sets are valid but the coverage
/// guarantee does not hold.
///
/// `config`'s time and node limits hold for the query as a whole: one
/// [`SolveBudget`] starts with it, each round is armed with the deadline
/// and the nodes left, and its nodes are charged back. Once the budget is
/// spent no further round starts, and its status is the query's.
pub fn top_r_diversified_with_status(
    g: &Graph,
    k: usize,
    r: usize,
    config: SolverConfig,
) -> TopRResult {
    assert!(r > 0, "r must be positive");
    let budget = SolveBudget::new(&config);
    let mut status = Status::Optimal;
    let mut out = Vec::new();
    let mut remaining: Vec<VertexId> = g.vertices().collect();
    let mut current = g.clone();
    for _ in 0..r {
        if current.n() == 0 {
            break;
        }
        if let Some(spent) = budget.exhausted() {
            status = spent;
            break;
        }
        let (deadline, nodes) = budget.arm();
        let mut round = config.clone();
        round.time_limit = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        round.node_limit = nodes;
        let sol = Solver::new(&current, k, round).solve();
        budget.charge(sol.stats.nodes);
        if !sol.is_optimal() {
            status = sol.status;
        }
        if sol.vertices.is_empty() {
            break;
        }
        // Map back to original ids and peel the covered vertices.
        let covered: Vec<VertexId> = sol
            .vertices
            .iter()
            .map(|&v| remaining[v as usize])
            .collect();
        let keep: Vec<VertexId> = current
            .vertices()
            .filter(|v| !sol.vertices.contains(v))
            .collect();
        let (next, sub_map) = current.induced_subgraph(&keep);
        remaining = sub_map.iter().map(|&v| remaining[v as usize]).collect();
        current = next;
        let mut covered_sorted = covered;
        covered_sorted.sort_unstable();
        out.push(covered_sorted);
        if status != Status::Optimal {
            break;
        }
    }
    TopRResult {
        cliques: out,
        status,
        nodes: budget.spent(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximal_k_defective;
    use kdc_graph::{gen, named};

    #[test]
    fn top_one_matches_max_solver() {
        let mut rng = gen::seeded_rng(41);
        for _ in 0..5 {
            let g = gen::gnp(18, 0.4, &mut rng);
            for k in [0usize, 1, 2] {
                let top = top_r_maximal(&g, k, 1, SolverConfig::kdc());
                let opt = Solver::new(&g, k, SolverConfig::kdc()).solve();
                assert_eq!(top[0].len(), opt.size(), "k = {k}");
            }
        }
    }

    #[test]
    fn pool_entries_are_maximal_distinct_and_sorted() {
        let mut rng = gen::seeded_rng(42);
        let g = gen::gnp(16, 0.5, &mut rng);
        let k = 1;
        let top = top_r_maximal(&g, k, 4, SolverConfig::kdc());
        assert!(!top.is_empty());
        for c in &top {
            assert!(is_maximal_k_defective(&g, c, k));
        }
        for w in top.windows(2) {
            assert!(w[0].len() >= w[1].len(), "sorted by size descending");
            assert_ne!(w[0], w[1], "entries must be distinct");
        }
    }

    #[test]
    fn pool_against_bruteforce_enumeration() {
        // Enumerate all maximal 1-defective cliques of figure2 by brute
        // force; the top-3 pool must match the three largest sizes.
        let g = named::figure2();
        let k = 1;
        let n = g.n();
        let mut maximal_sizes: Vec<usize> = Vec::new();
        for mask in 1u32..(1 << n) {
            let set: Vec<u32> = (0..n as u32).filter(|&v| mask >> v & 1 == 1).collect();
            if g.is_k_defective_clique(&set, k) && is_maximal_k_defective(&g, &set, k) {
                maximal_sizes.push(set.len());
            }
        }
        maximal_sizes.sort_unstable_by(|a, b| b.cmp(a));
        let top = top_r_maximal(&g, k, 3, SolverConfig::kdc());
        let got: Vec<usize> = top.iter().map(Vec::len).collect();
        assert_eq!(got, maximal_sizes[..3].to_vec());
    }

    #[test]
    fn enumerate_maximal_matches_bruteforce() {
        let mut rng = gen::seeded_rng(404);
        for trial in 0..6 {
            let g = gen::gnp(11, 0.45, &mut rng);
            for k in [0usize, 1, 2] {
                // Brute-force all maximal k-defective cliques.
                let n = g.n();
                let mut expected: Vec<Vec<u32>> = Vec::new();
                for mask in 1u32..(1 << n) {
                    let set: Vec<u32> = (0..n as u32).filter(|&v| mask >> v & 1 == 1).collect();
                    if g.is_k_defective_clique(&set, k) && is_maximal_k_defective(&g, &set, k) {
                        expected.push(set);
                    }
                }
                expected.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
                let got = enumerate_maximal(&g, k, SolverConfig::kdc());
                assert_eq!(got, expected, "trial {trial} k {k}");
            }
        }
    }

    #[test]
    fn diversified_cliques_are_disjoint() {
        let mut rng = gen::seeded_rng(43);
        let params = gen::CommunityParams {
            communities: 3,
            community_size: 12,
            p_in: 0.9,
            p_out: 0.05,
        };
        let g = gen::community(&params, &mut rng);
        let sols = top_r_diversified(&g, 2, 3, SolverConfig::kdc());
        assert_eq!(sols.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for c in &sols {
            assert!(g.is_k_defective_clique(c, 2));
            for &v in c {
                assert!(seen.insert(v), "vertex {v} covered twice");
            }
        }
        // Each solution should roughly recover one community's core.
        assert!(sols.iter().all(|c| c.len() >= 6));
    }

    #[test]
    fn diversified_rounds_share_one_node_budget() {
        let g = gen::gnp(60, 0.5, &mut gen::seeded_rng(19));
        let cfg = SolverConfig::kdc().with_node_limit(50);
        let result = top_r_diversified_with_status(&g, 3, 4, cfg);
        assert!(result.nodes <= 50, "{} nodes", result.nodes);
        assert_eq!(result.status, Status::NodeLimitReached);
        for c in &result.cliques {
            assert!(g.is_k_defective_clique(c, 3));
        }

        // A limit the first round fits under: the later rounds get only
        // what it left, so the query stops inside round two.
        let unlimited = top_r_diversified_with_status(&g, 3, 4, SolverConfig::kdc());
        assert_eq!(unlimited.status, Status::Optimal);
        let first = Solver::new(&g, 3, SolverConfig::kdc()).solve().stats.nodes;
        let limit = first + 100;
        assert!(unlimited.nodes > limit, "{} nodes", unlimited.nodes);
        let cfg = SolverConfig::kdc().with_node_limit(limit);
        let result = top_r_diversified_with_status(&g, 3, 4, cfg);
        assert!(result.nodes <= limit, "{} of {limit} nodes", result.nodes);
        assert_eq!(result.status, Status::NodeLimitReached);
        assert_eq!(result.cliques[0], unlimited.cliques[0]);
    }

    #[test]
    fn diversified_stops_on_small_graphs() {
        let g = gen::complete(4);
        let sols = top_r_diversified(&g, 1, 10, SolverConfig::kdc());
        assert_eq!(sols.len(), 1, "K4 is fully covered by the first clique");
        assert_eq!(sols[0].len(), 4);
    }
}
