//! Public probing API for the engine's upper bounds.
//!
//! The experiment harness (and the §3.2.1 tightness study) needs to evaluate
//! UB1, UB2, UB3 and the Eq. (2) baseline bound on a concrete instance
//! `(g, S)` without running a search. This module constructs a throwaway
//! engine, installs `S`, and reports every bound.

use crate::config::SolverConfig;
use crate::engine::Engine;
use kdc_graph::graph::{Graph, VertexId};

/// All upper bounds of an instance `(g, S)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootBounds {
    /// UB1 — the paper's improved colouring bound (§3.2.1).
    pub ub1: usize,
    /// Eq. (2) — the original MADEC colouring bound \[11\].
    pub eq2: usize,
    /// UB2 — `min_{u∈S} d_g(u) + 1 + k`; `None` when `S` is empty.
    pub ub2: Option<usize>,
    /// UB3 — the non-neighbour prefix bound \[16\].
    pub ub3: usize,
}

impl RootBounds {
    /// The tightest available bound.
    pub fn best(&self) -> usize {
        self.ub1
            .min(self.eq2)
            .min(self.ub3)
            .min(self.ub2.unwrap_or(usize::MAX))
    }
}

/// Computes every upper bound for the instance `(g, S)`.
///
/// ```
/// use kdc_graph::named;
///
/// // The paper's Figure 5 instance: Eq. (2) = 11, but UB1 = 3 (Ex. 3.6/3.7).
/// let (g, s) = named::figure5();
/// let b = kdc::probe::root_bounds(&g, &s, 3);
/// assert_eq!((b.ub1, b.eq2), (3, 11));
/// ```
///
/// # Panics
/// Panics if `s` is not a k-defective clique of `g` (the instance would be
/// infeasible) or contains out-of-range/duplicate vertices.
pub fn root_bounds(g: &Graph, s: &[VertexId], k: usize) -> RootBounds {
    assert!(
        g.is_k_defective_clique(s, k),
        "S must induce a k-defective clique"
    );
    let (ub1, eq2, ub2, ub3) = engine_with_s(g, s, k).all_bounds();
    RootBounds {
        ub1,
        eq2,
        ub2: (ub2 != usize::MAX).then_some(ub2),
        ub3,
    }
}

/// A kDC engine primed with `g` as its universe and `s` forced into S.
fn engine_with_s(g: &Graph, s: &[VertexId], k: usize) -> Engine {
    let mut engine = Engine::hollow(k, SolverConfig::kdc());
    let (offsets, data) = g.csr();
    engine.reset(offsets, data, 0);
    for &v in s {
        engine.force_into_s(v);
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdc_graph::named;

    #[test]
    fn figure5_bounds_match_examples() {
        // Examples 3.6/3.7: Eq. (2) = 11, UB1 = 3; UB2 = 4, UB3 = 3.
        let (g, s) = named::figure5();
        let b = root_bounds(&g, &s, 3);
        assert_eq!(b.ub1, 3);
        assert_eq!(b.eq2, 11);
        assert_eq!(b.ub2, Some(4));
        assert_eq!(b.ub3, 3);
        assert_eq!(b.best(), 3);
    }

    #[test]
    fn empty_s_has_no_ub2() {
        let g = named::figure2();
        let b = root_bounds(&g, &[], 1);
        assert_eq!(b.ub2, None);
        // All bounds must dominate the known optimum (5 for k = 1).
        assert!(b.ub1 >= 5 && b.eq2 >= 5 && b.ub3 >= 5);
        assert!(b.ub1 <= b.eq2, "UB1 is tighter than Eq. (2)");
    }

    #[test]
    #[should_panic(expected = "k-defective")]
    fn infeasible_s_panics() {
        let g = named::figure2();
        // {v1, v5, v7(non-nbr of many)} … pick an S with too many missing edges for k = 0.
        let _ = root_bounds(&g, &[0, 4], 0); // (v1,v5) is a non-edge
    }
}
