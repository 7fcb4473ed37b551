//! k-truss decomposition (Definition 2.5).
//!
//! The k-truss is the maximal *edge-induced* subgraph in which every edge
//! participates in at least `k − 2` triangles; it underlies the paper's
//! reduction rule RR6 (the (lb−k+1)-truss of the input graph). [`k_truss`]
//! computes it straight from that definition, as the reference the
//! incremental reducer in [`crate::ctcp`] is tested against. The reducer
//! itself builds an [`EdgeIndex`] and counts its triangle supports by
//! degree-ordered orientation in `O(m·√m)`.

use crate::graph::{Graph, VertexId};
use crate::scratch::ScratchMap;

/// An indexed edge list of a graph, or of a subgraph it induces: every
/// undirected edge `(u, v)` with `u < v` gets a dense id, and the sorted
/// adjacency rows carry edge ids.
#[derive(Clone, Debug, Default)]
pub struct EdgeIndex {
    /// `edges[e] = (u, v)` with `u < v`, in [`Graph::edges`] order.
    pub edges: Vec<(VertexId, VertexId)>,
    /// The row of `v` is `inc[offsets[v]..offsets[v + 1]]`.
    pub(crate) offsets: Vec<usize>,
    /// Concatenated `(neighbour, edge id)` rows, each sorted by neighbour.
    pub(crate) inc: Vec<(VertexId, u32)>,
}

impl EdgeIndex {
    /// Builds the index of the subgraph of `g` induced by the vertices `v`
    /// with `keep[v]`, in two passes over their sorted CSR rows. Ids are
    /// dense over the kept edges, in [`Graph::edges`] order restricted to
    /// them; vertex ids are unchanged and the row of a dropped vertex is
    /// empty. Costs `O(n)` plus the kept vertices' input degrees.
    pub fn induced(g: &Graph, keep: &[bool]) -> Self {
        debug_assert_eq!(keep.len(), g.n(), "keep is for another graph");
        let n = g.n();
        let kept_row = |v: usize| {
            g.neighbors(v as VertexId)
                .iter()
                .copied()
                .filter(|&w| keep[w as usize])
        };
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for (v, &kept) in keep.iter().enumerate() {
            let len = if kept { kept_row(v).count() } else { 0 };
            offsets.push(offsets[v] + len);
        }
        let mut edges = Vec::with_capacity(offsets[n] / 2);
        let mut inc = vec![(0, 0); offsets[n]];
        // Rows are visited in ascending `u`, so the neighbours `w < v` of
        // each `v` arrive in ascending order, all before row `v` itself is
        // visited: `fill[v]` appends to row `v` in sorted order.
        let mut fill: Vec<usize> = offsets[..n].to_vec();
        for u in (0..n).filter(|&u| keep[u]) {
            for v in kept_row(u).filter(|&v| v as usize > u) {
                let id = edges.len() as u32;
                edges.push((u as VertexId, v));
                inc[fill[u]] = (v, id);
                fill[u] += 1;
                inc[fill[v as usize]] = (u as VertexId, id);
                fill[v as usize] += 1;
            }
        }
        EdgeIndex {
            edges,
            offsets,
            inc,
        }
    }

    /// The `(neighbour, edge id)` row of `v`, sorted by neighbour.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[(VertexId, u32)] {
        &self.inc[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// Triangle supports of the edges of `idx`.
///
/// Each edge is oriented from the endpoint of lower `(degree, id)` to the
/// higher one, so every vertex keeps at most `√(2m)` out-neighbours, and
/// each triangle is found once, from its lowest vertex `u`: mark the
/// out-row of `u` with edge ids, then probe the out-rows of those
/// out-neighbours. Costs `O(n + m·√m)` over the edges in the rows.
pub(crate) fn count_supports(idx: &EdgeIndex) -> Vec<u32> {
    let n = idx.offsets.len() - 1;
    let deg = |v: usize| idx.offsets[v + 1] - idx.offsets[v];
    let mut out_offsets = Vec::with_capacity(n + 1);
    let mut out = Vec::new();
    out_offsets.push(0);
    for u in 0..n {
        out.extend(
            idx.row(u as VertexId)
                .iter()
                .filter(|&&(w, _)| (deg(u), u) < (deg(w as usize), w as usize)),
        );
        out_offsets.push(out.len());
    }

    let mut support = vec![0u32; idx.edges.len()];
    let mut mark = ScratchMap::new(n);
    for u in 0..n {
        let row = &out[out_offsets[u]..out_offsets[u + 1]];
        if row.len() < 2 {
            continue; // the lowest vertex of a triangle has two out-edges
        }
        mark.reset();
        for &(w, e_uw) in row {
            mark.set(w as usize, e_uw as usize + 1);
        }
        for &(v, e_uv) in row {
            for &(w, e_vw) in &out[out_offsets[v as usize]..out_offsets[v as usize + 1]] {
                let stored = mark.get_or(w as usize, 0);
                if stored != 0 {
                    support[e_uv as usize] += 1;
                    support[e_vw as usize] += 1;
                    support[stored - 1] += 1;
                }
            }
        }
    }
    support
}

/// Computes the `k`-truss of `g`: the maximal subgraph in which every edge is
/// contained in at least `k − 2` triangles. Vertices are preserved; only
/// edges are dropped. For `k ≤ 2` this is `g` itself.
///
/// Taken from the definition: drop every edge whose endpoints share fewer
/// than `k − 2` neighbours, then recount on what is left, until no edge
/// drops. Each round merges both sorted rows of every edge, so this pays
/// `O(Σ_v d(v)²)` per round; it is the reference for tests, not a fast path.
pub fn k_truss(g: &Graph, k: usize) -> Graph {
    let threshold = k.saturating_sub(2);
    let mut current = g.clone();
    if threshold == 0 {
        return current;
    }
    loop {
        let next = current.edge_subgraph(|u, v| {
            common_neighbours(current.neighbors(u), current.neighbors(v)) >= threshold
        });
        if next.m() == current.m() {
            return next;
        }
        current = next;
    }
}

/// Number of values two sorted rows share.
fn common_neighbours(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn edge_index_rows_mirror_the_csr() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = gen::gnp(50, 0.2, &mut rng);
        let idx = EdgeIndex::induced(&g, &vec![true; g.n()]);
        assert_eq!(idx.edges, g.edges().collect::<Vec<_>>());
        for v in g.vertices() {
            let row: Vec<VertexId> = idx.row(v).iter().map(|&(w, _)| w).collect();
            assert_eq!(row, g.neighbors(v), "row {v}");
            for &(w, e) in idx.row(v) {
                assert_eq!(idx.edges[e as usize], (v.min(w), v.max(w)));
            }
        }
    }

    #[test]
    fn induced_index_is_the_index_of_the_induced_subgraph() {
        let mut rng = SmallRng::seed_from_u64(29);
        let g = gen::chung_lu(200, 8.0, 2.2, &mut rng);
        let keep: Vec<bool> = (0..g.n())
            .map(|v| v % 3 != 0 || g.degree(v as VertexId) > 12)
            .collect();
        let idx = EdgeIndex::induced(&g, &keep);
        let kept = |v: VertexId| keep[v as usize];
        let edges: Vec<_> = g.edges().filter(|&(u, v)| kept(u) && kept(v)).collect();
        assert!(!edges.is_empty() && edges.len() < g.m());
        assert_eq!(idx.edges, edges, "ids follow Graph::edges order");
        for v in g.vertices() {
            let row: Vec<VertexId> = idx.row(v).iter().map(|&(w, _)| w).collect();
            let expected: Vec<VertexId> = if kept(v) {
                g.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| kept(w))
                    .collect()
            } else {
                Vec::new()
            };
            assert_eq!(row, expected, "row {v}");
            for &(w, e) in idx.row(v) {
                assert_eq!(idx.edges[e as usize], (v.min(w), v.max(w)));
            }
        }
    }

    /// Triangle supports of the subgraph `keep` induces, counted from each
    /// edge's common neighbours by brute force, in [`EdgeIndex`] id order.
    fn brute_supports(g: &Graph, keep: &[bool]) -> Vec<u32> {
        let kept = |v: VertexId| keep[v as usize];
        g.edges()
            .filter(|&(u, v)| kept(u) && kept(v))
            .map(|(u, v)| {
                g.neighbors(u)
                    .iter()
                    .filter(|&&w| kept(w) && g.has_edge(v, w))
                    .count() as u32
            })
            .collect()
    }

    /// A hub over a path rim: the hub's degree dwarfs every other, the case
    /// degree ordering exists for.
    fn hub_over_rim() -> Graph {
        let mut star: Vec<(VertexId, VertexId)> = (1..=40).map(|v| (0, v)).collect();
        star.extend((1..40).map(|v| (v, v + 1)));
        Graph::from_edges(41, &star)
    }

    #[test]
    fn supports_match_brute_force_common_neighbours() {
        let mut rng = SmallRng::seed_from_u64(23);
        let (planted, _) = gen::planted_defective_clique(150, 14, 2, 0.05, &mut rng);
        let graphs = [
            gen::gnp(60, 0.2, &mut rng),
            planted,
            hub_over_rim(),
            gen::chung_lu(300, 8.0, 2.3, &mut rng),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let all = vec![true; g.n()];
            let support = count_supports(&EdgeIndex::induced(g, &all));
            assert_eq!(support, brute_supports(g, &all), "graph {i}");
        }
    }

    #[test]
    fn supports_on_an_induced_index_count_only_kept_triangles() {
        // The reducer counts only on the index of the core it keeps, so a
        // triangle through a dropped vertex must not count, hub or not.
        let mut rng = SmallRng::seed_from_u64(41);
        let hub_heavy = gen::chung_lu(400, 8.0, 2.1, &mut rng);
        let cases = [
            // Drop every third vertex but keep the hubs.
            (
                hub_heavy.clone(),
                (0..hub_heavy.n())
                    .map(|v| v % 3 != 0 || hub_heavy.degree(v as VertexId) > 20)
                    .collect::<Vec<bool>>(),
            ),
            // Drop the hubs themselves.
            (
                hub_heavy.clone(),
                (0..hub_heavy.n())
                    .map(|v| hub_heavy.degree(v as VertexId) <= 20)
                    .collect(),
            ),
            // Cut a stretch out of the rim under the hub.
            (
                hub_over_rim(),
                (0..41).map(|v| !(10..=20).contains(&v)).collect(),
            ),
        ];
        for (i, (g, keep)) in cases.iter().enumerate() {
            assert!(keep.iter().any(|&k| !k), "case {i} keeps a proper subset");
            let idx = EdgeIndex::induced(g, keep);
            let support = count_supports(&idx);
            let brute = brute_supports(g, keep);
            assert!(brute.iter().any(|&s| s > 0), "case {i} keeps a triangle");
            assert_eq!(support, brute, "case {i}");
        }
    }

    #[test]
    fn supports_on_k4() {
        let k4 = gen::complete(4);
        let s = count_supports(&EdgeIndex::induced(&k4, &[true; 4]));
        assert_eq!(s, vec![2; 6], "every K4 edge lies in 2 triangles");
    }

    #[test]
    fn truss_of_clique() {
        let k5 = gen::complete(5);
        // Every edge of K5 is in 3 triangles → K5 is a 5-truss but not a 6-truss.
        assert_eq!(k_truss(&k5, 5).m(), 10);
        assert_eq!(k_truss(&k5, 6).m(), 0);
    }

    #[test]
    fn truss_below_three_is_identity() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(k_truss(&g, 2), g);
        assert_eq!(k_truss(&g, 0), g);
        // A triangle-free graph has an empty 3-truss.
        assert_eq!(k_truss(&g, 3).m(), 0);
    }

    #[test]
    fn figure2_truss_facts() {
        // §2.1: the whole Figure 2 graph is a 3-truss; removing v7's three
        // edges yields a 4-truss; {v8..v12} induces a 5-truss.
        let g = crate::named::figure2();
        let t3 = k_truss(&g, 3);
        assert_eq!(t3.m(), g.m(), "entire graph is a 3-truss");

        let t4 = k_truss(&g, 4);
        assert_eq!(t4.m(), g.m() - 3, "4-truss drops exactly v7's 3 edges");
        assert_eq!(t4.degree(6), 0, "v7 (id 6) is isolated in the 4-truss");

        let t5 = k_truss(&g, 5);
        let expected: Vec<(VertexId, VertexId)> = (7..12)
            .flat_map(|a| ((a + 1)..12).map(move |b| (a as VertexId, b as VertexId)))
            .collect();
        let got: Vec<_> = t5.edges().collect();
        assert_eq!(got, expected, "5-truss is exactly the K5 on v8..v12");
    }

    #[test]
    fn truss_levels_nested() {
        // Each k-truss lies inside the (k−1)-truss, and every edge of it has
        // at least k − 2 common neighbours inside it.
        let mut rng = SmallRng::seed_from_u64(11);
        let g = gen::gnp(40, 0.3, &mut rng);
        let mut outer = k_truss(&g, 2);
        for k in 3.. {
            let t = k_truss(&g, k);
            for (u, v) in t.edges() {
                assert!(
                    outer.has_edge(u, v),
                    "k={k}: {u}-{v} not in the outer level"
                );
                let shared = t.neighbors(u).iter().filter(|&&w| t.has_edge(v, w)).count();
                assert!(shared >= k - 2, "k={k}: {u}-{v} has support {shared}");
            }
            if t.m() == 0 {
                break;
            }
            outer = t;
        }
    }

    #[test]
    fn truss_is_subgraph_of_core() {
        // §2.1: the k-truss is a subgraph of the (k−1)-core.
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gen::gnp(50, 0.25, &mut rng);
        for k in 3..7 {
            let t = k_truss(&g, k);
            let core_vs: std::collections::HashSet<_> =
                crate::degeneracy::k_core_vertices(&g, k - 1)
                    .into_iter()
                    .collect();
            for (u, v) in t.edges() {
                assert!(core_vs.contains(&u) && core_vs.contains(&v), "k={k}");
            }
        }
    }
}
