//! Initial-solution heuristics (§3.3, Algorithms 3 and 4).
//!
//! `Degen` finds the longest suffix of a degeneracy ordering that forms a
//! k-defective clique, in O(m) time after the ordering. `Degen-opt`
//! additionally runs `Degen` inside the ego-subgraph `G[N⁺(v)]` of every
//! vertex `v` (its higher-ranked neighbours under the degeneracy ordering)
//! and keeps the largest of the `n + 1` candidate solutions. The paper
//! bounds that by O(δ(G)·m).
//!
//! Only an ego of at least `L0` vertices, `L0` being `Degen`'s size, can
//! beat `Degen`, and `|N⁺(v)|` never exceeds the core number of `v`. So
//! [`degen_opt_with`] visits the `L0`-core alone, which on sparse graphs is
//! a few hundred vertices, and runs each ego's `Degen` on bit rows. Its cost
//! is O(m + δ(G)·m_c), where `m_c` is the number of edges inside the
//! `L0`-core, and its answer is the one the textbook loop over all `n`
//! egos returns.

use kdc_graph::bitset::{popcount_and, words_for, BitMatrix};
use kdc_graph::degeneracy;
use kdc_graph::graph::{Graph, VertexId};
use kdc_graph::scratch::Marker;

/// Algorithm 3 (`Degen`): the longest suffix of a degeneracy ordering of `g`
/// that is a k-defective clique.
///
/// Because missing-edge counts grow monotonically as the suffix extends
/// leftwards, a single backward pass suffices.
///
/// ```
/// use kdc_graph::gen;
/// let g = gen::complete(6);
/// assert_eq!(kdc::heuristic::degen(&g, 0).len(), 6);
/// ```
pub fn degen(g: &Graph, k: usize) -> Vec<VertexId> {
    degen_with(g, k, &degeneracy::peel(g))
}

/// [`degen`] on a caller-supplied peeling of `g` (resident services cache
/// the peeling per graph and reuse it across solves).
pub fn degen_with(g: &Graph, k: usize, peeling: &degeneracy::Peeling) -> Vec<VertexId> {
    debug_assert_eq!(peeling.order.len(), g.n(), "peeling is for another graph");
    degen_on_order(g, k, &peeling.order)
}

/// `Degen` on a caller-supplied ordering of `g`.
pub fn degen_on_order(g: &Graph, k: usize, order: &[VertexId]) -> Vec<VertexId> {
    let n = order.len();
    if n == 0 {
        return Vec::new();
    }
    let mut in_suffix = Marker::new(g.n());
    let mut missing = 0usize;
    let mut taken = 0usize;
    // Walk the ordering from the end; vertex order[n-1-taken] joins next.
    while taken < n {
        let v = order[n - 1 - taken];
        let nbrs_in = g
            .neighbors(v)
            .iter()
            .filter(|&&w| in_suffix.is_marked(w as usize))
            .count();
        let new_missing = missing + (taken - nbrs_in);
        if new_missing > k {
            break;
        }
        missing = new_missing;
        in_suffix.mark(v as usize);
        taken += 1;
    }
    order[n - taken..].to_vec()
}

/// Algorithm 4 (`Degen-opt`): the best of `Degen(G, k)` and, for every
/// vertex `u`, `{u} ∪ Degen(G[N⁺(u)], k)` where `N⁺(u)` is the set of
/// higher-ranked neighbours of `u` in the degeneracy ordering.
///
/// Since `u` is adjacent to all of `N⁺(u)`, adding `u` never adds missing
/// edges, so the combined set stays a k-defective clique.
pub fn degen_opt(g: &Graph, k: usize) -> Vec<VertexId> {
    degen_opt_with(g, k, &degeneracy::peel(g))
}

/// [`degen_opt`] on a caller-supplied peeling of `g`.
///
/// The egos are visited in ascending id, and an ego replaces the incumbent
/// only when it is strictly larger, so the first best candidate wins. Two
/// facts let the loop skip most of the graph without changing that answer:
///
/// * a candidate `{u} ∪ Degen(G[N⁺(u)])` can beat the incumbent, which is
///   never smaller than `Degen`'s `L0`, only if `|N⁺(u)| ≥ L0`;
/// * `|N⁺(u)|` is the degree of `u` when it is peeled, which is at most its
///   core number, and every member of `N⁺(u)` is peeled later, so its core
///   number is at least that of `u`.
///
/// So every ego that can win lies inside the `L0`-core, the suffix of the
/// peel order whose core numbers are at least `L0`. Only that suffix gets
/// `N⁺` rows. Each ego (at most δ(G) vertices) is built as bit rows, peeled
/// by `(degree, local id)` exactly as [`degeneracy::peel`] would peel it as
/// a graph, and its `Degen` suffix is taken by popcount. Cost:
/// O(m + δ(G)·m_c), with `m_c` the number of edges inside the `L0`-core.
pub fn degen_opt_with(g: &Graph, k: usize, peeling: &degeneracy::Peeling) -> Vec<VertexId> {
    debug_assert_eq!(peeling.order.len(), g.n(), "peeling is for another graph");
    let mut best = degen_on_order(g, k, &peeling.order);

    // Core numbers never decrease along the peel order, so the L0-core is
    // a suffix of it. A core vertex is addressed by its slot in that
    // suffix: `rank - first`.
    let first = peeling
        .order
        .partition_point(|&v| peeling.core[v as usize] < best.len());
    let core = &peeling.order[first..];
    // Flat N⁺ rows over slots, each in the order of `g.neighbors(u)`.
    let mut offsets = Vec::with_capacity(core.len() + 1);
    let mut nplus: Vec<u32> = Vec::new();
    offsets.push(0);
    for &u in core {
        let ru = peeling.rank[u as usize];
        nplus.extend(g.neighbors(u).iter().filter_map(|&w| {
            let rw = peeling.rank[w as usize];
            (rw > ru).then(|| (rw - first) as u32)
        }));
        offsets.push(nplus.len());
    }

    let mut visit: Vec<u32> = (0..core.len() as u32).collect();
    visit.sort_unstable_by_key(|&s| core[s as usize]);
    let mut ego = EgoDegen::new(core.len());
    for s in visit {
        let members = &nplus[offsets[s as usize]..offsets[s as usize + 1]];
        if members.len() < best.len() {
            // Even {u} ∪ ego cannot beat the incumbent.
            continue;
        }
        let local_best = ego.run(members, &offsets, &nplus, k);
        if local_best.len() + 1 > best.len() {
            let mut cand: Vec<VertexId> = local_best
                .iter()
                .map(|&l| core[members[l as usize] as usize])
                .collect();
            cand.push(core[s as usize]);
            debug_assert!(g.is_k_defective_clique(&cand, k));
            best = cand;
        }
    }
    best
}

/// Buffers for `Degen` inside one ego at a time, reused across egos.
struct EgoDegen {
    /// Slot → local id in the current ego; `u32::MAX` outside it.
    local: Vec<u32>,
    /// The ego's adjacency over local ids.
    adj: BitMatrix,
    /// `degree << 32 | local id` of each unpeeled vertex; `u64::MAX` once
    /// peeled, so the minimum is the `(degree, id)` minimum.
    key: Vec<u64>,
    /// Local ids in peel order.
    order: Vec<u32>,
    /// The Degen suffix built so far, as a bit row.
    suffix: Vec<u64>,
}

impl EgoDegen {
    fn new(slots: usize) -> Self {
        EgoDegen {
            local: vec![u32::MAX; slots],
            adj: BitMatrix::new(0, 0),
            key: Vec::new(),
            order: Vec::new(),
            suffix: Vec::new(),
        }
    }

    /// `Degen(G[members], k)` in local ids (indexes into `members`), in
    /// peel order. Edges of the ego are found through the members' own
    /// `N⁺` rows: an edge `(a, b)` with `a` peeled first sits in `a`'s row
    /// only, so each is set once per direction.
    fn run(&mut self, members: &[u32], offsets: &[usize], nplus: &[u32], k: usize) -> &[u32] {
        let e = members.len();
        for (i, &a) in members.iter().enumerate() {
            self.local[a as usize] = i as u32;
        }
        self.adj.reset(e, e);
        for (i, &a) in members.iter().enumerate() {
            for &b in &nplus[offsets[a as usize]..offsets[a as usize + 1]] {
                let j = self.local[b as usize];
                if j != u32::MAX {
                    self.adj.set(i, j as usize);
                    self.adj.set(j as usize, i);
                }
            }
        }
        for &a in members {
            self.local[a as usize] = u32::MAX;
        }

        // Peel by (degree, local id), as `degeneracy::peel` orders ties.
        self.key.clear();
        self.key
            .extend((0..e).map(|i| (self.adj.row_len(i) as u64) << 32 | i as u64));
        self.order.clear();
        for _ in 0..e {
            let v = self.key.iter().copied().min().unwrap_or(u64::MAX) as u32;
            self.key[v as usize] = u64::MAX;
            self.order.push(v);
            for w in self.adj.row_iter(v as usize) {
                if self.key[w] != u64::MAX {
                    self.key[w] -= 1 << 32;
                }
            }
        }

        // The longest k-defective suffix of that order.
        self.suffix.clear();
        self.suffix.resize(words_for(e), 0);
        let (mut missing, mut taken) = (0usize, 0usize);
        while taken < e {
            let v = self.order[e - 1 - taken] as usize;
            let nbrs_in = popcount_and(self.adj.row(v), &self.suffix);
            let new_missing = missing + (taken - nbrs_in);
            if new_missing > k {
                break;
            }
            missing = new_missing;
            self.suffix[v / 64] |= 1 << (v % 64);
            taken += 1;
        }
        &self.order[e - taken..]
    }
}

/// Local-search refinement of a k-defective clique: greedily extend to a
/// maximal solution, then repeat (1-out, multi-in) swaps — drop one member,
/// re-extend greedily — accepting any strict improvement, until a fixpoint
/// or `max_rounds`. An inexpensive practical extension beyond the paper's
/// §3.3 heuristics; the result is always a valid k-defective clique at least
/// as large as the input.
pub fn local_search(g: &Graph, start: &[VertexId], k: usize, max_rounds: usize) -> Vec<VertexId> {
    assert!(g.is_k_defective_clique(start, k));
    let mut current = crate::verify::extend_to_maximal(g, start, k);
    for _ in 0..max_rounds {
        let mut improved = false;
        for drop_idx in 0..current.len() {
            let mut trial: Vec<VertexId> = current.clone();
            trial.swap_remove(drop_idx);
            let extended = crate::verify::extend_to_maximal(g, &trial, k);
            if extended.len() > current.len() {
                current = extended;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    current.sort_unstable();
    debug_assert!(g.is_k_defective_clique(&current, k));
    current
}

/// `Degen-opt` followed by [`local_search`] (the `DegenOptLocalSearch`
/// heuristic preset).
pub fn degen_opt_ls(g: &Graph, k: usize) -> Vec<VertexId> {
    degen_opt_ls_with(g, k, &degeneracy::peel(g))
}

/// [`degen_opt_ls`] on a caller-supplied peeling of `g`.
pub fn degen_opt_ls_with(g: &Graph, k: usize, peeling: &degeneracy::Peeling) -> Vec<VertexId> {
    let base = degen_opt_with(g, k, peeling);
    if base.is_empty() {
        return base;
    }
    local_search(g, &base, k, 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdc_graph::gen;
    use kdc_graph::named;

    /// The textbook `Degen-opt` loop: `Vec<Vec>` N⁺ rows for all `n`
    /// vertices, and per ego a `Graph` built from adjacency lists, a fresh
    /// tie-ordered peel and `Degen` on it. [`degen_opt_with`] must return
    /// exactly this `Vec`, order included.
    fn degen_opt_reference(g: &Graph, k: usize, peeling: &degeneracy::Peeling) -> Vec<VertexId> {
        let mut best = degen_on_order(g, k, &peeling.order);
        let n = g.n();
        let nplus: Vec<Vec<VertexId>> = (0..n as VertexId)
            .map(|u| {
                g.neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&w| peeling.rank[w as usize] > peeling.rank[u as usize])
                    .collect()
            })
            .collect();
        let mut member = Marker::new(n);
        let mut local_id = vec![0u32; n];
        for u in 0..n as VertexId {
            let ego = &nplus[u as usize];
            if ego.len() < best.len() {
                continue;
            }
            member.reset();
            for (i, &a) in ego.iter().enumerate() {
                member.mark(a as usize);
                local_id[a as usize] = i as u32;
            }
            let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); ego.len()];
            for &a in ego {
                let la = local_id[a as usize];
                for &b in &nplus[a as usize] {
                    if member.is_marked(b as usize) {
                        let lb = local_id[b as usize];
                        adj[la as usize].push(lb);
                        adj[lb as usize].push(la);
                    }
                }
            }
            let local_best = degen(&Graph::from_adjacency(adj), k);
            if local_best.len() + 1 > best.len() {
                let mut cand: Vec<VertexId> = local_best.iter().map(|&l| ego[l as usize]).collect();
                cand.push(u);
                best = cand;
            }
        }
        best
    }

    const ORACLE_KS: [usize; 7] = [0, 1, 2, 3, 5, 10, 20];

    fn assert_matches_reference(g: &Graph, what: &str) {
        let peeling = degeneracy::peel(g);
        for k in ORACLE_KS {
            assert_eq!(
                degen_opt_with(g, k, &peeling),
                degen_opt_reference(g, k, &peeling),
                "{what} k={k}"
            );
        }
    }

    #[test]
    fn degen_opt_matches_reference_on_gnp() {
        let mut rng = gen::seeded_rng(4242);
        for n in [30usize, 45, 60, 90, 120] {
            for p in [0.1, 0.3, 0.5, 0.8] {
                let g = gen::gnp(n, p, &mut rng);
                assert_matches_reference(&g, &format!("gnp n={n} p={p}"));
            }
        }
    }

    #[test]
    fn degen_opt_matches_reference_on_chung_lu() {
        let mut rng = gen::seeded_rng(4343);
        for (n, d, beta) in [
            (2_000usize, 8.0, 2.3),
            (3_500, 12.0, 2.1),
            (5_000, 10.0, 2.5),
        ] {
            let g = gen::chung_lu(n, d, beta, &mut rng);
            assert_matches_reference(&g, &format!("chung_lu n={n}"));
        }
    }

    #[test]
    fn degen_opt_matches_reference_on_planted_and_named_graphs() {
        // The generator calls of `kdc_bench::collections::planted_snapshot_cases`.
        let planted = [
            gen::planted_defective_clique(200, 14, 3, 0.30, &mut gen::seeded_rng(13)).0,
            gen::planted_defective_clique(220, 14, 3, 0.28, &mut gen::seeded_rng(17)).0,
        ];
        for (i, g) in planted.iter().enumerate() {
            assert_matches_reference(g, &format!("planted #{i}"));
        }
        let named = [
            ("figure2", named::figure2()),
            ("figure4", named::figure4()),
            ("figure5", named::figure5().0),
            ("figure6_like", named::figure6_like()),
            ("empty(0)", Graph::empty(0)),
            ("empty(7)", Graph::empty(7)),
            ("complete(9)", gen::complete(9)),
        ];
        for (name, g) in &named {
            assert_matches_reference(g, name);
        }
    }

    #[test]
    fn degen_on_clique_takes_everything() {
        let g = gen::complete(7);
        assert_eq!(degen(&g, 0).len(), 7);
        assert_eq!(degen_opt(&g, 0).len(), 7);
    }

    #[test]
    fn degen_respects_k() {
        // Empty graph: suffix of size s misses s(s-1)/2 edges.
        let g = Graph::empty(10);
        assert_eq!(degen(&g, 0).len(), 1);
        assert_eq!(degen(&g, 1).len(), 2);
        assert_eq!(degen(&g, 3).len(), 3);
        assert_eq!(degen(&g, 6).len(), 4);
    }

    #[test]
    fn results_are_k_defective() {
        let mut rng = gen::seeded_rng(21);
        for _ in 0..20 {
            let g = gen::gnp(40, 0.3, &mut rng);
            for k in [0usize, 1, 2, 5, 10] {
                let c1 = degen(&g, k);
                assert!(g.is_k_defective_clique(&c1, k), "Degen invalid k={k}");
                let c2 = degen_opt(&g, k);
                assert!(g.is_k_defective_clique(&c2, k), "Degen-opt invalid k={k}");
                assert!(c2.len() >= c1.len(), "Degen-opt dominates Degen");
                assert!(!c1.is_empty());
            }
        }
    }

    #[test]
    fn example_3_8_degen_vs_degen_opt() {
        // On the Figure-6-like graph with k = 1, Degen finds 3 vertices while
        // Degen-opt finds the optimal 4 via N⁺(v1) (Example 3.8's behaviour).
        let g = named::figure6_like();
        assert_eq!(degen(&g, 1).len(), 3);
        let opt = degen_opt(&g, 1);
        assert_eq!(opt.len(), 4);
        assert!(g.is_k_defective_clique(&opt, 1));
    }

    #[test]
    fn figure2_heuristics() {
        let g = named::figure2();
        // The K5 suffix of the degeneracy ordering is found for k = 0.
        let c = degen(&g, 0);
        assert_eq!(c.len(), 5);
        // k = 2: the optimum is 6 ({v1..v6}); Degen's suffix after the K5
        // portion cannot see it, but Degen-opt must still return ≥ 5 and a
        // valid 2-defective clique.
        let c2 = degen_opt(&g, 2);
        assert!(c2.len() >= 5);
        assert!(g.is_k_defective_clique(&c2, 2));
    }

    #[test]
    fn planted_clique_recovered_heuristically() {
        let mut rng = gen::seeded_rng(8);
        let (g, planted) = gen::planted_defective_clique(300, 20, 3, 0.02, &mut rng);
        let c = degen_opt(&g, 3);
        // The planted near-clique dominates the sparse background, so the
        // heuristic should recover (at least almost) all of it.
        assert!(
            c.len() + 2 >= planted.len(),
            "heuristic found {} of {}",
            c.len(),
            planted.len()
        );
    }

    #[test]
    fn empty_and_tiny_graphs() {
        assert!(degen(&Graph::empty(0), 3).is_empty());
        assert!(degen_opt(&Graph::empty(0), 3).is_empty());
        assert_eq!(degen(&Graph::empty(1), 0), vec![0]);
        assert_eq!(degen_opt(&Graph::empty(1), 5).len(), 1);
        assert!(degen_opt_ls(&Graph::empty(0), 2).is_empty());
    }

    #[test]
    fn local_search_only_improves() {
        let mut rng = gen::seeded_rng(97);
        for _ in 0..15 {
            let g = gen::gnp(30, 0.35, &mut rng);
            for k in [0usize, 2, 5] {
                let base = degen(&g, k);
                let refined = local_search(&g, &base, k, 8);
                assert!(refined.len() >= base.len());
                assert!(g.is_k_defective_clique(&refined, k));
                // Refined solutions are maximal.
                assert!(crate::verify::is_maximal_k_defective(&g, &refined, k));
                let full = degen_opt_ls(&g, k);
                assert!(g.is_k_defective_clique(&full, k));
                assert!(full.len() >= degen_opt(&g, k).len());
            }
        }
    }

    #[test]
    fn local_search_escapes_blocking_vertex() {
        // K4 on {0..3} plus a pendant 4 attached to 0. The seed {0, 4} is a
        // maximal clique (k = 0), but dropping 4 lets the re-extension climb
        // to the K4.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]);
        let refined = local_search(&g, &[0, 4], 0, 4);
        assert_eq!(refined, vec![0, 1, 2, 3]);
    }

    #[test]
    fn local_search_cannot_jump_between_distant_optima() {
        // Honest limitation: on the Figure-6-like graph, Degen's triangle
        // {v5,v6,v7} is a strict local optimum for (1-out, multi-in) moves —
        // dropping any member just re-adds it. The refinement keeps validity
        // and maximality but stays at size 3 (the optimum is 4).
        let g = named::figure6_like();
        let base = degen(&g, 1);
        assert_eq!(base.len(), 3);
        let refined = local_search(&g, &base, 1, 8);
        assert_eq!(refined.len(), 3);
        assert!(crate::verify::is_maximal_k_defective(&g, &refined, 1));
    }
}
