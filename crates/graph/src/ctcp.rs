//! Incremental core–truss co-pruning (CTCP).
//!
//! Reduction rules RR5 and RR6 shrink the input graph against a lower bound
//! `lb`: RR5 keeps the `(lb − k)`-core (a vertex of degree `< lb − k` cannot
//! join a solution larger than `lb`), RR6 keeps the `(lb − k + 1)`-truss (an
//! edge whose endpoints share `< lb − k − 1` common neighbours cannot lie
//! inside one). Recomputing either fixpoint from scratch every time the
//! incumbent improves costs a full `O(δ(G)·m)` triangle count per call.
//!
//! [`Ctcp`] instead *maintains* per-vertex degrees and per-edge triangle
//! supports alongside alive flags, and propagates removals through a work
//! queue: deleting an edge decrements two degrees and the supports of the
//! edges of every triangle through it; deleting a vertex cascades into its
//! incident edges. Each call to [`Ctcp::tighten`] with a (monotonically
//! non-decreasing) lower bound therefore pays only for the vertices, edges
//! and triangles it actually touches — the classic CTCP scheme of Chang
//! (SIGMOD 2023), which computes the *joint* core+truss fixpoint (a subgraph
//! of what one core → truss → core sweep leaves behind, and never anything a
//! solution larger than `lb` could use).
//!
//! Degrees and supports only ever decrease, so threshold crossings between
//! two `tighten` calls are found by draining degree/support buckets rather
//! than rescanning the graph: every decrement files the vertex (edge) under
//! its new degree (support), and a `tighten` at a higher bound drains exactly
//! the buckets the raised thresholds newly cover.
//!
//! ```
//! use kdc_graph::ctcp::Ctcp;
//! use kdc_graph::Graph;
//!
//! // A triangle with a pendant path: tightening to lb = 2 with k = 0 cuts
//! // every vertex of degree < 2 and every edge in no triangle, leaving
//! // exactly the triangle.
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
//! let mut ctcp = Ctcp::new(&g, 0);
//! let removed = ctcp.tighten(2);
//! assert!(removed.vertices.contains(&4));
//! assert_eq!(ctcp.alive_vertices(), vec![0, 1, 2]);
//! ```

use crate::graph::{Graph, VertexId};
use crate::scratch::ScratchMap;
use crate::truss::EdgeIndex;

/// What one [`Ctcp::tighten`] call deleted.
#[derive(Clone, Debug, Default)]
pub struct Removals {
    /// Vertices removed by this call (original graph ids, removal order).
    pub vertices: Vec<VertexId>,
    /// Number of edges removed by this call (including edges that died with
    /// a removed endpoint).
    pub edges: u64,
}

impl Removals {
    /// Whether the call removed nothing.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty() && self.edges == 0
    }
}

/// Incremental CTCP reducer over a fixed input graph.
///
/// Construct once per `(graph, k)` pair, then call [`Ctcp::tighten`] with a
/// non-decreasing lower bound; each call propagates exactly the new
/// removals. See the module docs for the algorithm.
#[derive(Debug)]
pub struct Ctcp {
    k: usize,
    /// Highest lower bound applied so far (tighten clamps to max).
    lb: usize,
    /// Whether the degree (RR5 / core) rule is active.
    core_rule: bool,
    /// Whether the support (RR6 / truss) rule is active.
    truss_rule: bool,

    /// `edges[e] = (u, v)` with `u < v`; `inc[v]` = sorted `(neighbour, e)`.
    idx: EdgeIndex,
    /// Triangle support per edge (empty when the truss rule is off).
    support: Vec<u32>,
    /// Alive degree per vertex.
    deg: Vec<u32>,
    v_alive: Vec<bool>,
    e_alive: Vec<bool>,
    /// Already queued for removal (never cleared: queued ⇒ removed).
    v_queued: Vec<bool>,
    e_queued: Vec<bool>,
    /// `vbucket[d]` holds vertices filed when their degree became `d`
    /// (lazily invalidated); likewise `ebucket[s]` for edge supports.
    vbucket: Vec<Vec<u32>>,
    ebucket: Vec<Vec<u32>>,
    /// Degree / support thresholds already drained from the buckets
    /// (exclusive: buckets `< deg_t` are empty of live entries).
    deg_t: u32,
    supp_t: u32,

    alive_n: usize,
    alive_m: usize,
    /// Cumulative removal counters (across all tighten calls).
    vertex_removals: u64,
    edge_removals: u64,

    mark: ScratchMap,
    vqueue: Vec<u32>,
    equeue: Vec<u32>,
}

impl Ctcp {
    /// Builds the reducer with both rules (RR5 + RR6) active. Costs one
    /// triangle-support computation, `O(δ(G)·m)`.
    pub fn new(g: &Graph, k: usize) -> Self {
        Self::with_rules(g, k, true, true)
    }

    /// Builds the reducer with each rule individually toggled (matching
    /// `SolverConfig::enable_rr5` / `enable_rr6`). With the truss rule off
    /// the support computation is skipped entirely and edges only die with
    /// their endpoints.
    pub fn with_rules(g: &Graph, k: usize, core_rule: bool, truss_rule: bool) -> Self {
        let n = g.n();
        let (idx, support) = if truss_rule {
            crate::truss::edge_supports(g)
        } else {
            (EdgeIndex::new(g), Vec::new())
        };
        let ne = idx.edges.len();
        let deg: Vec<u32> = (0..n as VertexId).map(|v| g.degree(v) as u32).collect();

        let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
        let mut vbucket: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
        for (v, &d) in deg.iter().enumerate() {
            vbucket[d as usize].push(v as u32);
        }
        let max_supp = support.iter().copied().max().unwrap_or(0) as usize;
        let mut ebucket: Vec<Vec<u32>> = vec![Vec::new(); max_supp + 1];
        for (e, &s) in support.iter().enumerate() {
            ebucket[s as usize].push(e as u32);
        }

        Ctcp {
            k,
            lb: 0,
            core_rule,
            truss_rule,
            idx,
            support,
            deg,
            v_alive: vec![true; n],
            e_alive: vec![true; ne],
            v_queued: vec![false; n],
            e_queued: vec![false; ne],
            vbucket,
            ebucket,
            deg_t: 0,
            supp_t: 0,
            alive_n: n,
            alive_m: ne,
            vertex_removals: 0,
            edge_removals: 0,
            mark: ScratchMap::new(n),
            vqueue: Vec::new(),
            equeue: Vec::new(),
        }
    }

    /// The `k` this reducer was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The highest lower bound applied so far.
    pub fn lb(&self) -> usize {
        self.lb
    }

    /// `(core_rule, truss_rule)` as configured at construction.
    pub fn rules(&self) -> (bool, bool) {
        (self.core_rule, self.truss_rule)
    }

    /// Number of vertices of the input graph (alive or not).
    pub fn n(&self) -> usize {
        self.v_alive.len()
    }

    /// Surviving vertex count.
    pub fn alive_n(&self) -> usize {
        self.alive_n
    }

    /// Surviving edge count.
    pub fn alive_m(&self) -> usize {
        self.alive_m
    }

    /// Whether vertex `v` survives.
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.v_alive[v as usize]
    }

    /// Cumulative `(vertex, edge)` removal counts across all tighten calls.
    pub fn removal_counters(&self) -> (u64, u64) {
        (self.vertex_removals, self.edge_removals)
    }

    /// Surviving vertices in ascending id order.
    pub fn alive_vertices(&self) -> Vec<VertexId> {
        (0..self.v_alive.len() as VertexId)
            .filter(|&v| self.v_alive[v as usize])
            .collect()
    }

    /// Raises the lower bound to `lb` (values below the current bound are
    /// clamped — removals are never undone) and propagates RR5/RR6 to the
    /// joint fixpoint. Returns what this call removed.
    // kdc-lint: hot-path
    pub fn tighten(&mut self, lb: usize) -> Removals {
        let lb = lb.max(self.lb);
        self.lb = lb;
        let new_deg_t = if self.core_rule {
            lb.saturating_sub(self.k).min(u32::MAX as usize) as u32
        } else {
            0
        };
        let new_supp_t = if self.truss_rule {
            lb.saturating_sub(self.k + 1).min(u32::MAX as usize) as u32
        } else {
            0
        };

        let mut out = Removals::default();
        let edges_before = self.edge_removals;

        // Drain the buckets the raised thresholds newly cover. Entries are
        // lazily invalidated: skip anything dead, already queued, or filed
        // under a stale degree/support (the live entry sits in a lower
        // bucket that this same ascending sweep already drained).
        for d in self.deg_t..new_deg_t.min(self.vbucket.len() as u32) {
            let mut bucket = std::mem::take(&mut self.vbucket[d as usize]);
            for v in bucket.drain(..) {
                if self.v_alive[v as usize]
                    && !self.v_queued[v as usize]
                    && self.deg[v as usize] == d
                {
                    self.v_queued[v as usize] = true;
                    self.vqueue.push(v);
                }
            }
        }
        for s in self.supp_t..new_supp_t.min(self.ebucket.len() as u32) {
            let mut bucket = std::mem::take(&mut self.ebucket[s as usize]);
            for e in bucket.drain(..) {
                if self.e_alive[e as usize]
                    && !self.e_queued[e as usize]
                    && self.support[e as usize] == s
                {
                    self.e_queued[e as usize] = true;
                    self.equeue.push(e);
                }
            }
        }
        self.deg_t = self.deg_t.max(new_deg_t);
        self.supp_t = self.supp_t.max(new_supp_t);

        while !self.vqueue.is_empty() || !self.equeue.is_empty() {
            if let Some(e) = self.equeue.pop() {
                if self.e_alive[e as usize] {
                    self.remove_edge(e);
                }
                continue;
            }
            let v = self.vqueue.pop().expect("queue checked non-empty");
            if self.v_alive[v as usize] {
                self.remove_vertex(v, &mut out.vertices);
            }
        }

        out.edges = self.edge_removals - edges_before;
        out
    }

    /// Applies a whole schedule of lower-bound steps in one queue drain:
    /// a single [`Ctcp::tighten`] at the schedule's maximum, which is
    /// semantically identical to calling `tighten` once per entry (in any
    /// order — tighten clamps to the running maximum; parity-tested in
    /// `tests/ctcp_prop.rs`) but pays one bucket sweep and one propagation
    /// pass instead of one per step. The schedule may arrive unsorted and
    /// with duplicates: reducing by maximum subsumes any sort + dedup, so
    /// callers holding several pending incumbent improvements (a decompose
    /// worker draining a shared incumbent, a batch sweep merging the
    /// witness sizes of its sub-queries, a warm service folding queued
    /// bounds) hand them over without pre-reducing; an empty slice is a
    /// no-op.
    pub fn tighten_batch(&mut self, lbs: &[usize]) -> Removals {
        match lbs.iter().copied().max() {
            Some(lb) => self.tighten(lb),
            None => Removals::default(),
        }
    }

    /// Files `v` under its (just decremented) degree, or queues it for
    /// removal when it crossed the active threshold.
    #[inline]
    fn refile_vertex(&mut self, v: u32) {
        let d = self.deg[v as usize];
        if d < self.deg_t {
            if !self.v_queued[v as usize] {
                self.v_queued[v as usize] = true;
                self.vqueue.push(v);
            }
        } else {
            self.vbucket[d as usize].push(v);
        }
    }

    /// Files edge `e` under its (just decremented) support, or queues it.
    #[inline]
    fn refile_edge(&mut self, e: u32) {
        let s = self.support[e as usize];
        if s < self.supp_t {
            if !self.e_queued[e as usize] {
                self.e_queued[e as usize] = true;
                self.equeue.push(e);
            }
        } else {
            self.ebucket[s as usize].push(e);
        }
    }

    /// Removes edge `e` (both endpoints alive): two degree decrements and a
    /// support decrement for both remaining edges of every triangle through
    /// `e`. Cost: the shorter incidence scan to mark, the longer to probe.
    fn remove_edge(&mut self, e: u32) {
        debug_assert!(self.e_alive[e as usize]);
        self.e_alive[e as usize] = false;
        self.alive_m -= 1;
        self.edge_removals += 1;
        let (u, v) = self.idx.edges[e as usize];
        debug_assert!(self.v_alive[u as usize] && self.v_alive[v as usize]);

        self.deg[u as usize] -= 1;
        self.deg[v as usize] -= 1;
        self.refile_vertex(u);
        self.refile_vertex(v);

        if !self.truss_rule {
            return;
        }
        // Common alive neighbours w: mark N(u) with the connecting edge id,
        // probe from v's side (marking the smaller incidence list first).
        let (a, b) = if self.idx.inc[u as usize].len() <= self.idx.inc[v as usize].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.mark.reset();
        for i in 0..self.idx.inc[a as usize].len() {
            let (w, ea) = self.idx.inc[a as usize][i];
            if self.e_alive[ea as usize] {
                self.mark.set(w as usize, ea as usize + 1);
            }
        }
        for i in 0..self.idx.inc[b as usize].len() {
            let (w, eb) = self.idx.inc[b as usize][i];
            if !self.e_alive[eb as usize] {
                continue;
            }
            let stored = self.mark.get_or(w as usize, 0);
            if stored == 0 {
                continue;
            }
            let ea = (stored - 1) as u32;
            for edge in [ea, eb] {
                self.support[edge as usize] = self.support[edge as usize].saturating_sub(1);
                self.refile_edge(edge);
            }
        }
    }

    /// Removes vertex `v`: every incident alive edge dies (degree updates on
    /// the far endpoints), and the third edge of every triangle through `v`
    /// loses one support.
    fn remove_vertex(&mut self, v: u32, removed: &mut Vec<VertexId>) {
        debug_assert!(self.v_alive[v as usize]);
        self.v_alive[v as usize] = false;
        self.alive_n -= 1;
        self.vertex_removals += 1;
        removed.push(v);

        // Snapshot + mark the alive neighbourhood first: triangle support
        // updates must see the incident edges as they were at removal time.
        self.mark.reset();
        for i in 0..self.idx.inc[v as usize].len() {
            let (w, e) = self.idx.inc[v as usize][i];
            if self.e_alive[e as usize] {
                self.mark.set(w as usize, 1);
            }
        }

        if self.truss_rule {
            // For each triangle (v, w, x): the surviving edge (w, x) loses
            // one support. Enumerated from each alive neighbour w by probing
            // its incidence list against the mark, taking each pair once.
            for i in 0..self.idx.inc[v as usize].len() {
                let (w, ev) = self.idx.inc[v as usize][i];
                if !self.e_alive[ev as usize] {
                    continue;
                }
                for j in 0..self.idx.inc[w as usize].len() {
                    let (x, ewx) = self.idx.inc[w as usize][j];
                    if x > w && self.e_alive[ewx as usize] && self.mark.get_or(x as usize, 0) == 1 {
                        self.support[ewx as usize] = self.support[ewx as usize].saturating_sub(1);
                        self.refile_edge(ewx);
                    }
                }
            }
        }

        // Now retire the incident edges themselves.
        for i in 0..self.idx.inc[v as usize].len() {
            let (w, e) = self.idx.inc[v as usize][i];
            if !self.e_alive[e as usize] {
                continue;
            }
            self.e_alive[e as usize] = false;
            self.alive_m -= 1;
            self.edge_removals += 1;
            debug_assert!(self.v_alive[w as usize] || self.v_queued[w as usize]);
            if self.v_alive[w as usize] {
                self.deg[w as usize] -= 1;
                self.refile_vertex(w);
            }
        }
    }

    /// Extracts the surviving universe as a relabelled graph plus the new →
    /// old id map, built directly in CSR form. Allocates; callers count this
    /// against `universe_rebuilds`.
    pub fn extract_universe(&self) -> (Graph, Vec<VertexId>) {
        let keep = self.alive_vertices();
        let mut new_id: Vec<u32> = vec![u32::MAX; self.v_alive.len()];
        for (i, &v) in keep.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let mut offsets = Vec::with_capacity(keep.len() + 1);
        let mut neighbors = Vec::with_capacity(2 * self.alive_m);
        offsets.push(0);
        for &v in &keep {
            // `inc[v]` is sorted by neighbour and `new_id` is monotone, so
            // each row comes out sorted.
            for &(w, e) in &self.idx.inc[v as usize] {
                if self.e_alive[e as usize] {
                    neighbors.push(new_id[w as usize]);
                }
            }
            offsets.push(neighbors.len());
        }
        (Graph::from_csr(offsets, neighbors), keep)
    }
}

/// Reference implementation: iterates `truss_filter` + `k_core` from scratch
/// to the joint fixpoint. Returns the reduced, relabelled graph and the new
/// → old id map. Pays a full triangle count per pass; used by tests and the
/// scratch side of the `ctcp` bench to pin down what [`Ctcp::tighten`] must
/// produce.
pub fn scratch_fixpoint(g: &Graph, k: usize, lb: usize) -> (Graph, Vec<VertexId>) {
    scratch_fixpoint_rules(g, k, lb, true, true)
}

/// [`scratch_fixpoint`] with each rule individually toggled.
pub fn scratch_fixpoint_rules(
    g: &Graph,
    k: usize,
    lb: usize,
    core_rule: bool,
    truss_rule: bool,
) -> (Graph, Vec<VertexId>) {
    let deg_t = if core_rule { lb.saturating_sub(k) } else { 0 };
    let supp_t = if truss_rule {
        lb.saturating_sub(k + 1) as u32
    } else {
        0
    };
    let mut current = g.clone();
    let mut keep: Vec<VertexId> = g.vertices().collect();
    loop {
        let n_before = current.n();
        let m_before = current.m();
        if supp_t > 0 {
            current = crate::truss::truss_filter(&current, supp_t);
        }
        if deg_t > 0 {
            // Core removals drop vertices (and with them edges); truss-only
            // reductions leave every vertex alive, exactly like CTCP with
            // the core rule off.
            let (cored, sub_keep) = crate::degeneracy::k_core(&current, deg_t);
            keep = sub_keep.iter().map(|&v| keep[v as usize]).collect();
            current = cored;
        }
        if current.n() == n_before && current.m() == m_before {
            break;
        }
    }
    (current, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Alive set of a fresh CTCP tightened once.
    fn ctcp_alive(g: &Graph, k: usize, lb: usize) -> Vec<VertexId> {
        let mut c = Ctcp::new(g, k);
        c.tighten(lb);
        c.alive_vertices()
    }

    #[test]
    fn no_rules_fire_below_thresholds() {
        let g = gen::complete(6);
        let mut c = Ctcp::new(&g, 2);
        assert!(c.tighten(0).is_empty());
        assert!(c.tighten(2).is_empty());
        assert_eq!(c.alive_n(), 6);
        assert_eq!(c.alive_m(), 15);
    }

    #[test]
    fn pendant_path_is_peeled() {
        // Triangle + pendant path; lb = 2, k = 0 ⇒ deg < 2 peels the path.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let alive = ctcp_alive(&g, 0, 2);
        assert_eq!(alive, vec![0, 1, 2]);
    }

    #[test]
    fn matches_scratch_fixpoint_on_random_graphs() {
        let mut rng = gen::seeded_rng(101);
        for trial in 0..12 {
            let g = gen::gnp(40, 0.25, &mut rng);
            for k in 0..3usize {
                for lb in 0..9usize {
                    let mut c = Ctcp::new(&g, k);
                    c.tighten(lb);
                    let (expected, expected_keep) = scratch_fixpoint(&g, k, lb);
                    assert_eq!(
                        c.alive_vertices(),
                        expected_keep,
                        "trial {trial} k {k} lb {lb}"
                    );
                    let (universe, _) = c.extract_universe();
                    assert_eq!(
                        universe, expected,
                        "edges differ: trial {trial} k {k} lb {lb}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_schedule_matches_one_shot() {
        let mut rng = gen::seeded_rng(202);
        for trial in 0..8 {
            let g = gen::gnp(50, 0.2, &mut rng);
            for k in 0..3usize {
                let mut warm = Ctcp::new(&g, k);
                for lb in [2usize, 4, 5, 7, 9] {
                    warm.tighten(lb);
                    assert_eq!(
                        warm.alive_vertices(),
                        ctcp_alive(&g, k, lb),
                        "trial {trial} k {k} lb {lb}"
                    );
                    assert_eq!(warm.alive_vertices().len(), warm.alive_n());
                }
            }
        }
    }

    #[test]
    fn lower_lb_is_clamped() {
        let mut rng = gen::seeded_rng(7);
        let g = gen::gnp(30, 0.3, &mut rng);
        let mut c = Ctcp::new(&g, 1);
        c.tighten(6);
        let alive = c.alive_vertices();
        assert!(c.tighten(3).is_empty(), "lower lb must be a no-op");
        assert_eq!(c.alive_vertices(), alive);
        assert_eq!(c.lb(), 6);
    }

    #[test]
    fn rules_toggle_independently() {
        let mut rng = gen::seeded_rng(55);
        let g = gen::gnp(35, 0.3, &mut rng);
        for (core, truss) in [(true, false), (false, true), (false, false)] {
            for lb in [3usize, 5, 7] {
                let mut c = Ctcp::with_rules(&g, 1, core, truss);
                c.tighten(lb);
                let (expected, expected_keep) = scratch_fixpoint_rules(&g, 1, lb, core, truss);
                assert_eq!(
                    c.alive_vertices(),
                    expected_keep,
                    "core={core} truss={truss}"
                );
                let (universe, _) = c.extract_universe();
                assert_eq!(
                    universe, expected,
                    "edges differ: core={core} truss={truss} lb={lb}"
                );
            }
        }
    }

    #[test]
    fn counters_and_extraction_agree() {
        let mut rng = gen::seeded_rng(9);
        let (g, _) = gen::planted_defective_clique(200, 12, 2, 0.03, &mut rng);
        let mut c = Ctcp::new(&g, 2);
        let rem = c.tighten(10);
        let (v_removed, e_removed) = c.removal_counters();
        assert_eq!(v_removed as usize, rem.vertices.len());
        assert_eq!(e_removed, rem.edges);
        assert_eq!(v_removed as usize + c.alive_n(), g.n());
        assert_eq!(e_removed as usize + c.alive_m(), g.m());

        let (universe, keep) = c.extract_universe();
        assert_eq!(keep.len(), c.alive_n());
        assert_eq!(universe.n(), c.alive_n());
        assert_eq!(universe.m(), c.alive_m());
        // Every extracted edge is an input edge between survivors.
        for (i, &v) in keep.iter().enumerate() {
            for &nw in universe.neighbors(i as VertexId) {
                assert!(g.has_edge(v, keep[nw as usize]), "row {i}");
            }
        }
    }

    #[test]
    fn tighten_batch_matches_sequential_tighten() {
        let mut rng = gen::seeded_rng(303);
        for trial in 0..8 {
            let g = gen::gnp(45, 0.25, &mut rng);
            for k in 0..3usize {
                let schedule = [3usize, 5, 4, 8]; // deliberately non-monotone
                let mut sequential = Ctcp::new(&g, k);
                let mut total = Removals::default();
                for &lb in &schedule {
                    let rem = sequential.tighten(lb);
                    total.vertices.extend(rem.vertices);
                    total.edges += rem.edges;
                }
                let mut batched = Ctcp::new(&g, k);
                let rem = batched.tighten_batch(&schedule);
                assert_eq!(
                    batched.alive_vertices(),
                    sequential.alive_vertices(),
                    "trial {trial} k {k}"
                );
                assert_eq!(batched.lb(), sequential.lb());
                assert_eq!(rem.edges, total.edges, "trial {trial} k {k}");
                // The removed vertex *sets* agree (order may differ: one
                // drain visits the buckets in a different sequence).
                let mut a = rem.vertices.clone();
                let mut b = total.vertices.clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "trial {trial} k {k}");
                let (universe_a, _) = batched.extract_universe();
                let (universe_b, _) = sequential.extract_universe();
                assert_eq!(
                    universe_a, universe_b,
                    "universes differ: trial {trial} k {k}"
                );
            }
        }
    }

    #[test]
    fn tighten_batch_accepts_unsorted_and_duplicate_schedules() {
        // The merged schedules a batch sweep hands over arrive in sub-query
        // completion order with repeated witness sizes; the reducer state
        // must be byte-identical to the canonical sorted + deduped call.
        let mut rng = gen::seeded_rng(304);
        for trial in 0..6 {
            let g = gen::gnp(40, 0.3, &mut rng);
            for k in 0..3usize {
                let messy = [5usize, 3, 5, 8, 3, 8, 4];
                let mut sorted: Vec<usize> = messy.to_vec();
                sorted.sort_unstable();
                sorted.dedup();

                let mut a = Ctcp::new(&g, k);
                let rem_a = a.tighten_batch(&messy);
                let mut b = Ctcp::new(&g, k);
                let rem_b = b.tighten_batch(&sorted);

                assert_eq!(a.lb(), b.lb(), "trial {trial} k {k}");
                assert_eq!(a.alive_vertices(), b.alive_vertices());
                assert_eq!(rem_a.edges, rem_b.edges, "trial {trial} k {k}");
                let mut va = rem_a.vertices.clone();
                let mut vb = rem_b.vertices.clone();
                va.sort_unstable();
                vb.sort_unstable();
                assert_eq!(va, vb, "trial {trial} k {k}");
                assert_eq!(
                    a.extract_universe(),
                    b.extract_universe(),
                    "trial {trial} k {k}"
                );
            }
        }
    }

    #[test]
    fn tighten_batch_edge_cases() {
        let g = gen::complete(5);
        let mut c = Ctcp::new(&g, 1);
        assert!(c.tighten_batch(&[]).is_empty(), "empty schedule is a no-op");
        assert_eq!(c.lb(), 0);
        c.tighten(6);
        // A batch entirely below the current bound is clamped away.
        assert!(c.tighten_batch(&[1, 2, 3]).is_empty());
        assert_eq!(c.lb(), 6);
    }

    #[test]
    fn everything_can_die() {
        let g = gen::complete(4);
        let mut c = Ctcp::new(&g, 0);
        let rem = c.tighten(10);
        assert_eq!(rem.vertices.len(), 4);
        assert_eq!(c.alive_n(), 0);
        assert_eq!(c.alive_m(), 0);
        let (universe, keep) = c.extract_universe();
        assert!(universe.n() == 0 && keep.is_empty());
    }
}
