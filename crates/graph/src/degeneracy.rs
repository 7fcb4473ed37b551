//! Degeneracy orderings, core numbers and k-cores (Definitions 2.3–2.4).
//!
//! Peeling repeatedly removes a minimum-degree vertex. There are two peels:
//!
//! * [`peel`], the tie-ordered peel: among the live vertices of minimum
//!   degree it always removes the smallest id, so orderings are
//!   deterministic and tests can pin down the exact orderings of the
//!   paper's examples. A watermark bucket queue keeps it close to linear:
//!   O(n + m) plus one heap operation for each vertex entry and each degree
//!   decrement that lands at or below the watermark, O((n + m) log n) in
//!   the worst case;
//! * [`peel_bucket`], the O(n + m) bucket-queue peel over a CSR with
//!   caller-owned scratch, allocation-free in steady state. Its ties follow
//!   bucket swaps, not ids. The CTCP reducer and `kdc stats` need only its
//!   core numbers, which equal [`peel`]'s. The search engine ranks every
//!   universe with it because the tie-ordered ranking grows the search
//!   (`planted-220-k3`: 27,476 → 31,074 nodes, past the bench node gate).

use crate::graph::{Graph, VertexId};

/// Result of a full peeling pass.
#[derive(Clone, Debug)]
pub struct Peeling {
    /// Vertices in degeneracy order (`order[0]` peeled first).
    pub order: Vec<VertexId>,
    /// `rank[v]` = position of `v` in `order`.
    pub rank: Vec<usize>,
    /// `core[v]` = core number of `v` (the largest `k` such that `v` belongs
    /// to the k-core).
    pub core: Vec<usize>,
    /// The graph's degeneracy `δ(G)` = max core number (0 for edgeless).
    pub degeneracy: usize,
}

/// Computes a degeneracy ordering plus core numbers, breaking degree ties by
/// smallest vertex id (deterministic; matches the orderings shown in the
/// paper's examples).
///
/// Live vertices of degree at most a watermark sit in a lazy min-heap keyed
/// by `(degree, id)`; all others sit in Batagelj–Zaveršnik buckets, where a
/// degree decrement is one O(1) swap. A vertex enters the heap when its
/// degree falls to the watermark, and when the heap runs dry the watermark
/// rises to the lowest non-empty bucket, whose vertices all enter the heap.
/// The heap minimum is therefore always the global `(degree, id)` minimum.
/// Cost: O(n + m) plus one heap operation per vertex entry and per
/// decrement at or below the watermark; O((n + m) log n) in the worst case.
///
/// [`peel_bucket`] gives the same core numbers in O(n + m) when tie order
/// is irrelevant.
pub fn peel(g: &Graph) -> Peeling {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const UNPEELED: usize = usize::MAX;
    let key = |d: u32, v: usize| Reverse(u64::from(d) << 32 | v as u64);
    let (offsets, data) = g.csr();
    let n = g.n();
    let mut b = BucketPeel::default();
    b.fill(offsets);
    // The heap holds a fresh entry for every live vertex of degree at most
    // `mark`: the slots before `bucket_start[mark + 1]`, less the peeled.
    let mut mark = 0u32;
    let mut heap: BinaryHeap<Reverse<u64>> = b.vert[..b.bucket_start[1] as usize]
        .iter()
        .map(|&v| key(0, v as usize))
        .collect();
    let mut rank = vec![UNPEELED; n];
    let mut core = vec![0usize; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0usize;

    loop {
        let Some(Reverse(top)) = heap.pop() else {
            let first = b.bucket_start[mark as usize + 1] as usize;
            if first == n {
                break;
            }
            mark = b.deg[b.vert[first] as usize];
            let end = b.bucket_start[mark as usize + 1] as usize;
            heap.extend(b.vert[first..end].iter().map(|&v| key(mark, v as usize)));
            continue;
        };
        let (d, v) = ((top >> 32) as u32, top as u32 as usize);
        if rank[v] != UNPEELED || d != b.deg[v] {
            continue; // stale heap entry
        }
        // core(v_i) = max_{j ≤ i} peel_deg(v_j) along a smallest-last order.
        degeneracy = degeneracy.max(d as usize);
        core[v] = degeneracy;
        rank[v] = order.len();
        order.push(v as VertexId);
        for &w in &data[offsets[v]..offsets[v + 1]] {
            let w = w as usize;
            let dw = b.deg[w];
            if dw > mark {
                b.demote(w, b.bucket_start[dw as usize] as usize);
                if dw - 1 == mark {
                    heap.push(key(mark, w));
                }
            } else if rank[w] == UNPEELED {
                b.deg[w] -= 1;
                heap.push(key(dw - 1, w));
            }
        }
    }

    Peeling {
        order,
        rank,
        core,
        degeneracy,
    }
}

/// Caller-owned buffers for [`peel_bucket`]. After a peel, [`order`] and
/// [`rank`] describe it; peeling again a graph no larger than any earlier one
/// reuses the buffers without allocating.
///
/// [`order`]: BucketPeel::order
/// [`rank`]: BucketPeel::rank
#[derive(Clone, Debug, Default)]
pub struct BucketPeel {
    /// Live degree while peeling; afterwards each vertex's peel degree.
    deg: Vec<u32>,
    /// Bucket-sorted vertices; afterwards the peel order.
    vert: Vec<VertexId>,
    /// Position of each vertex in `vert`; afterwards its rank.
    pos: Vec<u32>,
    /// First slot of each degree bucket.
    bucket_start: Vec<u32>,
}

impl BucketPeel {
    /// Vertices in peel order (`order()[0]` peeled first).
    pub fn order(&self) -> &[VertexId] {
        &self.vert
    }

    /// `rank()[v]` = position of `v` in [`BucketPeel::order`].
    pub fn rank(&self) -> &[u32] {
        &self.pos
    }

    /// Core numbers of the last peel (allocates; off the hot path).
    pub fn core_numbers(&self) -> Vec<usize> {
        let mut core = vec![0usize; self.vert.len()];
        let mut running = 0usize;
        for &v in &self.vert {
            running = running.max(self.deg[v as usize] as usize);
            core[v as usize] = running;
        }
        core
    }

    /// Files every vertex of the CSR `offsets` into the bucket of its
    /// degree, in ascending id within each bucket.
    // kdc-lint: hot-path
    fn fill(&mut self, offsets: &[usize]) {
        let n = offsets.len() - 1;
        let BucketPeel {
            deg,
            vert,
            pos,
            bucket_start,
        } = self;
        deg.clear();
        deg.extend((0..n).map(|v| (offsets[v + 1] - offsets[v]) as u32));
        let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
        bucket_start.clear();
        bucket_start.resize(max_deg + 2, 0);
        for &d in deg.iter() {
            bucket_start[d as usize + 1] += 1;
        }
        for i in 1..bucket_start.len() {
            bucket_start[i] += bucket_start[i - 1];
        }
        // Place each vertex at its bucket's next free slot, advancing the
        // slot; afterwards `bucket_start[d]` holds the start of bucket
        // `d + 1`, so one shift restores the starts.
        vert.clear();
        vert.resize(n, 0);
        pos.clear();
        pos.resize(n, 0);
        for v in 0..n {
            let d = deg[v] as usize;
            vert[bucket_start[d] as usize] = v as VertexId;
            pos[v] = bucket_start[d];
            bucket_start[d] += 1;
        }
        for d in (1..bucket_start.len()).rev() {
            bucket_start[d] = bucket_start[d - 1];
        }
        bucket_start[0] = 0;
    }

    /// Moves `w` one bucket down: swaps it into `front`, the first live
    /// slot of its bucket, and starts the bucket one slot later, so `w`
    /// ends the bucket below.
    #[inline]
    fn demote(&mut self, w: usize, front: usize) {
        let pw = self.pos[w] as usize;
        let u = self.vert[front] as usize;
        if u != w {
            self.vert.swap(front, pw);
            self.pos[w] = front as u32;
            self.pos[u] = pw as u32;
        }
        let dw = self.deg[w] as usize;
        self.bucket_start[dw] = front as u32 + 1;
        self.deg[w] -= 1;
    }
}

/// Bucket-queue peeling of a CSR graph (`data[offsets[v]..offsets[v + 1]]`
/// is the row of `v`, as [`Graph::csr`] returns it) in O(n + m), the layout
/// of Batagelj–Zaveršnik. Returns the degeneracy; the order and ranks are
/// left in `scratch`. Allocation-free once `scratch` has grown to the graph.
///
/// Buckets are filled in ascending id, so the first vertex peeled is the
/// smallest id of minimum degree, but later ties follow bucket swaps rather
/// than ids; use [`peel`] when smallest-id ties matter.
// kdc-lint: hot-path
pub fn peel_bucket(offsets: &[usize], data: &[VertexId], scratch: &mut BucketPeel) -> usize {
    scratch.fill(offsets);
    let mut degeneracy = 0usize;
    for i in 0..offsets.len() - 1 {
        let v = scratch.vert[i] as usize;
        // Peel degrees along a smallest-last ordering satisfy
        // core(v_i) = max_{j ≤ i} peel_deg(v_j).
        degeneracy = degeneracy.max(scratch.deg[v] as usize);
        for &w in &data[offsets[v]..offsets[v + 1]] {
            let w = w as usize;
            if scratch.pos[w] as usize <= i {
                continue; // already peeled
            }
            // The recorded bucket front may point into the consumed prefix
            // (positions ≤ i); the first *live* slot of the bucket is then
            // `i + 1`.
            let front = scratch.bucket_start[scratch.deg[w] as usize] as usize;
            scratch.demote(w, front.max(i + 1));
        }
    }
    degeneracy
}

/// Returns the vertices of the `k`-core of `g` (possibly empty), i.e. the
/// maximal vertex set whose induced subgraph has minimum degree ≥ `k`.
pub fn k_core_vertices(g: &Graph, k: usize) -> Vec<VertexId> {
    let p = peel(g);
    g.vertices().filter(|&v| p.core[v as usize] >= k).collect()
}

/// Extracts the `k`-core as a relabelled subgraph together with the new→old
/// vertex map.
pub fn k_core(g: &Graph, k: usize) -> (Graph, Vec<VertexId>) {
    g.induced_subgraph(&k_core_vertices(g, k))
}

/// Validates that `order` is a degeneracy ordering of `g`: each vertex has
/// minimum degree in the subgraph induced by itself and its successors.
/// Exposed for tests and property checks.
pub fn is_degeneracy_ordering(g: &Graph, order: &[VertexId]) -> bool {
    let n = g.n();
    if order.len() != n {
        return false;
    }
    let mut alive = vec![true; n];
    let mut deg: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    for &v in order {
        if !alive[v as usize] {
            return false; // duplicate
        }
        let min_live = (0..n as VertexId)
            .filter(|&u| alive[u as usize])
            .map(|u| deg[u as usize])
            .min()
            .unwrap();
        if deg[v as usize] != min_live {
            return false;
        }
        alive[v as usize] = false;
        for &w in g.neighbors(v) {
            if alive[w as usize] {
                deg[w as usize] -= 1;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_and_singleton() {
        let p = peel(&Graph::empty(0));
        assert_eq!(p.degeneracy, 0);
        assert!(p.order.is_empty());
        let p = peel(&Graph::empty(3));
        assert_eq!(p.degeneracy, 0);
        assert_eq!(p.order.len(), 3);
    }

    #[test]
    fn clique_degeneracy() {
        let k5 = gen::complete(5);
        let p = peel(&k5);
        assert_eq!(p.degeneracy, 4);
        assert!(p.core.iter().all(|&c| c == 4));
        assert!(is_degeneracy_ordering(&k5, &p.order));
    }

    #[test]
    fn path_degeneracy_is_one() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = peel(&g);
        assert_eq!(p.degeneracy, 1);
        assert!(is_degeneracy_ordering(&g, &p.order));
    }

    #[test]
    fn figure2_graph_degeneracy_and_cores() {
        // Section 2.1 facts about the Figure 2 graph: the whole graph is a
        // 3-core, removing v7 yields a 4-core, δ(G) = 4, and the degeneracy
        // ordering starts with v7 followed by v1.
        let g = crate::named::figure2();
        let p = peel(&g);
        assert_eq!(p.degeneracy, 4);
        assert_eq!(p.order[0], 6, "v7 (id 6) peels first");
        assert_eq!(p.order[1], 0, "v1 (id 0) peels second");
        assert!(is_degeneracy_ordering(&g, &p.order));

        let three_core = k_core_vertices(&g, 3);
        assert_eq!(three_core.len(), 12, "entire graph is a 3-core");
        let four_core = k_core_vertices(&g, 4);
        assert_eq!(four_core.len(), 11, "4-core excludes exactly v7");
        assert!(!four_core.contains(&6));
        assert!(k_core_vertices(&g, 5).is_empty(), "no 5-core exists");
    }

    #[test]
    fn core_numbers_monotone_under_k_core() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = gen::gnp(60, 0.2, &mut rng);
        let p = peel(&g);
        for k in 0..=p.degeneracy {
            let (sub, map) = k_core(&g, k);
            // Every vertex of the k-core has degree ≥ k inside it.
            for v in sub.vertices() {
                assert!(sub.degree(v) >= k, "k={k} vertex {}", map[v as usize]);
            }
            // Maximality: a vertex outside with k neighbours inside the core
            // would have degree ≥ k in core ∪ {v}, so it would belong to it.
            let core_set: std::collections::HashSet<_> = map.iter().copied().collect();
            for v in g.vertices().filter(|v| !core_set.contains(v)) {
                let deg_in = g
                    .neighbors(v)
                    .iter()
                    .filter(|w| core_set.contains(w))
                    .count();
                assert!(deg_in < k, "k={k}: vertex {v} could join the core");
            }
        }
    }

    #[test]
    fn degeneracy_bounded_by_sqrt_2m() {
        // δ(G) ≤ √m as used by the paper (§2.1 cites δ(G) ≤ √m).
        let mut rng = SmallRng::seed_from_u64(3);
        for n in [20, 50, 100] {
            let g = gen::gnp(n, 0.15, &mut rng);
            let p = peel(&g);
            assert!((p.degeneracy as f64) <= (g.m() as f64).sqrt() + 1.0);
        }
    }

    #[test]
    fn random_orderings_are_valid() {
        let mut rng = SmallRng::seed_from_u64(42);
        for n in [10, 25, 40] {
            for p_edge in [0.1, 0.3, 0.7] {
                let g = gen::gnp(n, p_edge, &mut rng);
                let p = peel(&g);
                assert!(is_degeneracy_ordering(&g, &p.order), "n={n} p={p_edge}");
                // Core numbers are a non-increasing function along buckets:
                // max core == degeneracy.
                assert_eq!(p.core.iter().copied().max().unwrap_or(0), p.degeneracy);
            }
        }
    }

    #[test]
    fn tie_ordered_and_bucket_peels_agree() {
        // Both peels must produce valid degeneracy orderings with identical
        // core numbers and degeneracy (the orderings themselves may differ in
        // tie order).
        let mut rng = SmallRng::seed_from_u64(77);
        // One scratch across graphs of varying size, as the engine reuses it.
        let mut b = BucketPeel::default();
        for n in [60, 15, 30] {
            for p_edge in [0.05, 0.2, 0.5] {
                let g = gen::gnp(n, p_edge, &mut rng);
                let a = peel(&g);
                let (off, dat) = g.csr();
                let degeneracy = peel_bucket(off, dat, &mut b);
                assert!(is_degeneracy_ordering(&g, &a.order));
                assert!(is_degeneracy_ordering(&g, b.order()));
                assert_eq!(a.degeneracy, degeneracy);
                assert_eq!(a.core, b.core_numbers(), "n={n} p={p_edge}");
                // rank is the inverse of order in both.
                for (i, &v) in a.order.iter().enumerate() {
                    assert_eq!(a.rank[v as usize], i);
                }
                for (i, &v) in b.order().iter().enumerate() {
                    assert_eq!(b.rank()[v as usize] as usize, i);
                }
            }
        }
    }

    /// The reference peel: a lazy binary heap with one entry per vertex and
    /// per degree decrement, popping the smallest `(degree, id)`.
    fn heap_peel(g: &Graph) -> Peeling {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let n = g.n();
        let mut deg: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
        let mut heap: BinaryHeap<Reverse<(usize, VertexId)>> = (0..n as VertexId)
            .map(|v| Reverse((deg[v as usize], v)))
            .collect();
        let mut peeled = vec![false; n];
        let mut core = vec![0usize; n];
        let mut order = Vec::with_capacity(n);
        let mut rank = vec![0usize; n];
        let mut degeneracy = 0usize;
        while let Some(Reverse((d, v))) = heap.pop() {
            if peeled[v as usize] || d != deg[v as usize] {
                continue;
            }
            peeled[v as usize] = true;
            degeneracy = degeneracy.max(d);
            core[v as usize] = degeneracy;
            rank[v as usize] = order.len();
            order.push(v);
            for &w in g.neighbors(v) {
                if !peeled[w as usize] {
                    deg[w as usize] -= 1;
                    heap.push(Reverse((deg[w as usize], w)));
                }
            }
        }
        Peeling {
            order,
            rank,
            core,
            degeneracy,
        }
    }

    fn assert_matches_heap_peel(g: &Graph) -> Result<(), TestCaseError> {
        let (got, want) = (peel(g), heap_peel(g));
        prop_assert_eq!(&got.order, &want.order);
        prop_assert_eq!(&got.rank, &want.rank);
        prop_assert_eq!(&got.core, &want.core);
        prop_assert_eq!(got.degeneracy, want.degeneracy);
        Ok(())
    }

    #[test]
    fn tie_ordered_peel_matches_heap_peel_on_named_graphs() {
        let graphs = [
            Graph::empty(0),
            Graph::empty(5),
            crate::named::figure2(),
            crate::named::figure4(),
            crate::named::figure5().0,
            crate::named::figure6_like(),
        ];
        for g in &graphs {
            assert_matches_heap_peel(g).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tie_ordered_peel_matches_heap_peel_on_gnp(
            seed in 0u64..10_000,
            n in 0usize..80,
            p_percent in 0usize..60,
        ) {
            let g = gen::gnp(n, p_percent as f64 / 100.0, &mut gen::seeded_rng(seed));
            assert_matches_heap_peel(&g)?;
        }

        #[test]
        fn tie_ordered_peel_matches_heap_peel_on_hub_graphs(
            seed in 0u64..10_000,
            n in 60usize..400,
            avg_deg in 2usize..12,
            beta_tenths in 21usize..30,
        ) {
            let mut rng = gen::seeded_rng(seed);
            let g = gen::chung_lu(n, avg_deg as f64, beta_tenths as f64 / 10.0, &mut rng);
            assert_matches_heap_peel(&g)?;
        }

        #[test]
        fn tie_ordered_peel_matches_heap_peel_with_isolated_vertices(
            seed in 0u64..10_000,
            n in 1usize..60,
            isolated in 1usize..20,
            p_percent in 5usize..50,
        ) {
            // Isolated vertices at both ends and interleaved ids: relabel a
            // gnp graph onto every other id of a larger vertex range.
            let inner = gen::gnp(n, p_percent as f64 / 100.0, &mut gen::seeded_rng(seed));
            let spread = |v: VertexId| 2 * v + 1;
            let edges: Vec<_> = inner.edges().map(|(u, v)| (spread(u), spread(v))).collect();
            let g = Graph::from_edges(2 * n + isolated, &edges);
            assert_matches_heap_peel(&g)?;
        }
    }
}
