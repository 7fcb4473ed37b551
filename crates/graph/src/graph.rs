//! The core graph type: an immutable, unweighted, undirected simple graph in
//! compressed sparse row (CSR) form with `u32` vertex identifiers and sorted
//! neighbour slices.

use crate::bitset::BitSet;
use std::collections::TryReserveError;

/// Vertex identifier. `u32` halves the memory traffic of `usize` ids on
/// 64-bit targets, which matters in the branch-and-bound inner loops.
pub type VertexId = u32;

/// An immutable undirected simple graph (no self-loops, no parallel edges)
/// stored in CSR form.
///
/// ```
/// use kdc_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.neighbors(2), &[0, 1, 3]);
/// assert!(g.is_k_defective_clique(&[0, 1, 2, 3], 2));
/// assert!(!g.is_k_defective_clique(&[0, 1, 2, 3], 1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated, per-vertex-sorted adjacency lists.
    neighbors: Vec<VertexId>,
    /// Number of undirected edges.
    m: usize,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list. Self-loops are
    /// dropped and duplicate/reversed edges are merged.
    ///
    /// Two passes straight into CSR: count degrees, scatter both half-edges
    /// of every non-loop edge into one `neighbors` array, then sort and
    /// dedup each row in place while compacting the array leftwards. No
    /// per-vertex list is allocated: peak memory is `edges` plus the CSR
    /// before deduplication.
    ///
    /// # Panics
    /// Panics if an endpoint is `≥ n`, or if the CSR arrays cannot be
    /// allocated (the graph readers get that as an error instead).
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::try_from_edges(n, edges)
            .unwrap_or_else(|e| panic!("cannot allocate a graph on {n} vertices: {e}"))
    }

    /// [`Graph::from_edges`], returning an error instead of aborting when
    /// the CSR arrays (`n + 1` offsets, two slots per non-loop edge) cannot
    /// be reserved. The graph readers build through it, so a file that
    /// declares billions of vertices is refused, not fatal.
    ///
    /// # Panics
    /// Panics if an endpoint is `≥ n`.
    pub(crate) fn try_from_edges(
        n: usize,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Self, TryReserveError> {
        // offsets[v + 1] counts v's half-edges, then becomes a prefix sum.
        let mut offsets = zeroed(n + 1)?;
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for n = {n}"
            );
            if u != v {
                offsets[u as usize + 1] += 1;
                offsets[v as usize + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Scatter with offsets[v] as v's write cursor: afterwards it points
        // at the end of row v, the start of row v + 1, so one shift right
        // restores the row starts.
        let mut neighbors = zeroed(offsets[n])?;
        for &(u, v) in edges {
            if u != v {
                neighbors[offsets[u as usize]] = v;
                offsets[u as usize] += 1;
                neighbors[offsets[v as usize]] = u;
                offsets[v as usize] += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        // Sort + dedup row by row; the write head never passes the row
        // being read, so the compaction is in place.
        let mut write = 0;
        for v in 0..n {
            let (start, end) = (offsets[v], offsets[v + 1]);
            offsets[v] = write;
            neighbors[start..end].sort_unstable();
            let mut prev = None;
            for i in start..end {
                let w = neighbors[i];
                if prev != Some(w) {
                    neighbors[write] = w;
                    write += 1;
                    prev = Some(w);
                }
            }
        }
        offsets[n] = write;
        neighbors.truncate(write);
        neighbors.shrink_to_fit();
        Ok(Self::from_csr(offsets, neighbors))
    }

    /// Builds a graph from per-vertex adjacency lists. Lists are sorted and
    /// deduplicated; symmetry is enforced by panicking in debug builds.
    pub fn from_adjacency(mut adj: Vec<Vec<VertexId>>) -> Self {
        let n = adj.len();
        let mut m = 0usize;
        for (v, list) in adj.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            list.retain(|&u| u as usize != v);
            m += list.len();
        }
        debug_assert!(
            {
                let probe =
                    |a: &Vec<Vec<VertexId>>, u: usize, v: VertexId| a[u].binary_search(&v).is_ok();
                adj.iter()
                    .enumerate()
                    .all(|(v, list)| list.iter().all(|&u| probe(&adj, u as usize, v as VertexId)))
            },
            "adjacency lists must be symmetric"
        );
        debug_assert_eq!(m % 2, 0, "directed half-edges must pair up");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(m);
        offsets.push(0);
        for list in &adj {
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        Graph {
            offsets,
            neighbors,
            m: m / 2,
        }
    }

    /// Wraps an already-built CSR: `neighbors[offsets[v]..offsets[v + 1]]`
    /// must be the sorted, loop-free row of `v`, and rows must be symmetric.
    /// [`Graph::from_edges`] and the reducers that extract a relabelled
    /// universe build it this way instead of going through per-vertex lists.
    pub(crate) fn from_csr(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        debug_assert_eq!(offsets.last().copied(), Some(neighbors.len()));
        debug_assert_eq!(neighbors.len() % 2, 0, "directed half-edges must pair up");
        let m = neighbors.len() / 2;
        Graph {
            offsets,
            neighbors,
            m,
        }
    }

    /// The raw CSR: `(offsets, neighbors)` with the sorted row of `v` at
    /// `neighbors[offsets[v]..offsets[v + 1]]`. Lets the search engine copy
    /// a universe in one pass.
    #[inline]
    pub fn csr(&self) -> (&[usize], &[VertexId]) {
        (&self.offsets, &self.neighbors)
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            m: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Adjacency test via binary search over the sorted neighbour slice.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n() as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// All vertex ids, `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.n() as VertexId
    }

    /// Maximum degree (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Edge density `m / C(n, 2)`; 0 for `n < 2`.
    pub fn density(&self) -> f64 {
        let n = self.n();
        if n < 2 {
            return 0.0;
        }
        self.m as f64 / (n as f64 * (n as f64 - 1.0) / 2.0)
    }

    /// Number of edges present among the vertices of `set`.
    pub fn edges_within(&self, set: &[VertexId]) -> usize {
        let mask: BitSet = set.iter().map(|&v| v as usize).collect();
        let in_set = |v: VertexId| (v as usize) < mask.capacity() && mask.contains(v as usize);
        set.iter()
            .map(|&u| {
                self.neighbors(u)
                    .iter()
                    .filter(|&&v| u < v && in_set(v))
                    .count()
            })
            .sum()
    }

    /// Number of edges *missing* among the vertices of `set` (the paper's
    /// `|Ē(S)|`). Duplicate vertices in `set` are rejected by a panic.
    pub fn missing_edges_within(&self, set: &[VertexId]) -> usize {
        let s = set.len();
        let mut sorted = set.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), s, "vertex set contains duplicates");
        s * (s.saturating_sub(1)) / 2 - self.edges_within(set)
    }

    /// Whether `set` induces a `k`-defective clique (Definition 2.2).
    pub fn is_k_defective_clique(&self, set: &[VertexId], k: usize) -> bool {
        self.missing_edges_within(set) <= k
    }

    /// The subgraph induced by `keep` (in the given order), relabelled to
    /// `0..keep.len()`. Returns the subgraph and the mapping from new id to
    /// original id (i.e. `keep` itself, copied).
    pub fn induced_subgraph(&self, keep: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let n = self.n();
        let mut new_id: Vec<u32> = vec![u32::MAX; n];
        for (i, &v) in keep.iter().enumerate() {
            assert!(
                new_id[v as usize] == u32::MAX,
                "duplicate vertex {v} in induced set"
            );
            new_id[v as usize] = i as u32;
        }
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); keep.len()];
        for (i, &v) in keep.iter().enumerate() {
            for &w in self.neighbors(v) {
                let nw = new_id[w as usize];
                if nw != u32::MAX {
                    adj[i].push(nw);
                }
            }
        }
        (Graph::from_adjacency(adj), keep.to_vec())
    }

    /// The subgraph with the vertex set intact but only the edges for which
    /// `keep_edge(u, v)` (called with `u < v`) returns `true`.
    pub fn edge_subgraph(&self, mut keep_edge: impl FnMut(VertexId, VertexId) -> bool) -> Graph {
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); self.n()];
        for (u, v) in self.edges() {
            if keep_edge(u, v) {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
        }
        Graph::from_adjacency(adj)
    }

    /// Number of triangles each edge participates in, keyed by edge position
    /// in [`Graph::edges`] order, plus the total triangle count.
    pub fn triangle_count(&self) -> usize {
        // Orient edges from lower-degree to higher-degree endpoints (ties by
        // id) and intersect forward adjacencies: O(δ·m)-style counting.
        let rank = |v: VertexId| (self.degree(v), v);
        let mut total = 0usize;
        let mut marker = vec![false; self.n()];
        for u in 0..self.n() as VertexId {
            let fwd: Vec<VertexId> = self
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&v| rank(v) > rank(u))
                .collect();
            for &v in &fwd {
                marker[v as usize] = true;
            }
            for &v in &fwd {
                for &w in self.neighbors(v) {
                    if rank(w) > rank(v) && marker[w as usize] {
                        total += 1;
                    }
                }
            }
            for &v in &fwd {
                marker[v as usize] = false;
            }
        }
        total
    }

    /// Whether the graph is connected (vacuously true for `n ≤ 1`).
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as VertexId];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// The complement graph (useful in tests: a k-defective clique in `G` of
    /// size `s` is a vertex set inducing ≤ k edges in the complement).
    pub fn complement(&self) -> Graph {
        let n = self.n();
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for u in 0..n as VertexId {
            let nbrs = self.neighbors(u);
            let mut it = nbrs.iter().peekable();
            for v in 0..n as VertexId {
                if v == u {
                    continue;
                }
                while let Some(&&h) = it.peek() {
                    if h < v {
                        it.next();
                    } else {
                        break;
                    }
                }
                if it.peek() != Some(&&v) {
                    adj[u as usize].push(v);
                }
            }
        }
        Graph::from_adjacency(adj)
    }
}

/// A zero-filled vector of `len` elements, reserved fallibly.
fn zeroed<T: Clone + Default>(len: usize) -> Result<Vec<T>, TryReserveError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)?;
    v.resize(len, T::default());
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = path4();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn has_edge_probes_hubs_from_the_small_side() {
        // A hub of degree n − 1 plus a sparse rim: every query must agree
        // regardless of argument order (the probe runs over the smaller of
        // the two adjacency lists, so hub queries are O(log d_min)).
        let n = 64u32;
        let mut edges: Vec<(VertexId, VertexId)> = (1..n).map(|v| (0, v)).collect();
        edges.push((1, 2));
        let g = Graph::from_edges(n as usize, &edges);
        assert_eq!(g.degree(0), (n - 1) as usize);
        for v in 1..n {
            assert!(g.has_edge(0, v) && g.has_edge(v, 0));
        }
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1));
        for v in 3..n {
            assert!(!g.has_edge(1, v) && !g.has_edge(v, 1), "v = {v}");
        }
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = path4();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn missing_edges_and_defective_check() {
        let g = path4();
        // {0,1,2} misses (0,2): a 1-defective clique but not a clique.
        assert_eq!(g.missing_edges_within(&[0, 1, 2]), 1);
        assert!(g.is_k_defective_clique(&[0, 1, 2], 1));
        assert!(!g.is_k_defective_clique(&[0, 1, 2], 0));
        // The whole path misses 3 of 6 edges.
        assert_eq!(g.missing_edges_within(&[0, 1, 2, 3]), 3);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = path4();
        let (sub, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert_eq!(map, vec![1, 2, 3]);
        assert!(sub.has_edge(0, 1) && sub.has_edge(1, 2) && !sub.has_edge(0, 2));
    }

    #[test]
    fn edge_subgraph_filters() {
        let g = path4();
        let h = g.edge_subgraph(|u, v| (u, v) != (1, 2));
        assert_eq!(h.m(), 2);
        assert_eq!(h.n(), 4);
        assert!(!h.has_edge(1, 2));
    }

    #[test]
    fn triangles_counted() {
        let k4 = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(k4.triangle_count(), 4);
        assert_eq!(path4().triangle_count(), 0);
    }

    #[test]
    fn connectivity() {
        assert!(path4().is_connected());
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert!(Graph::empty(1).is_connected());
        assert!(Graph::empty(0).is_connected());
        assert!(!Graph::empty(2).is_connected());
    }

    #[test]
    fn complement_involution() {
        let g = path4();
        let c = g.complement();
        assert_eq!(c.m(), 6 - 3);
        assert!(c.has_edge(0, 2) && c.has_edge(0, 3) && c.has_edge(1, 3));
        assert_eq!(c.complement(), g);
    }

    #[test]
    fn density_endpoints() {
        assert_eq!(Graph::empty(5).density(), 0.0);
        let k3 = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((k3.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn an_unallocatable_graph_is_an_error() {
        // More offset bytes than `isize::MAX`: refused before any allocation.
        assert!(Graph::try_from_edges(usize::MAX / 8, &[]).is_err());
    }
}
