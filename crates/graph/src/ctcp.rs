//! Incremental core–truss co-pruning (CTCP).
//!
//! Reduction rules RR5 and RR6 shrink the input graph against a lower bound
//! `lb`: RR5 keeps the `(lb − k)`-core (a vertex of degree `< lb − k` cannot
//! join a solution larger than `lb`), RR6 keeps the `(lb − k + 1)`-truss (an
//! edge whose endpoints share `< lb − k − 1` common neighbours cannot lie
//! inside one). Recomputing either fixpoint from scratch every time the
//! incumbent improves costs a full triangle count per call.
//!
//! [`Ctcp`] instead *maintains* per-vertex degrees and per-edge triangle
//! supports alongside alive flags, and propagates removals through a work
//! queue of edges: deleting an edge decrements two degrees and the supports
//! of the edges of every triangle through it. Each call to
//! [`Ctcp::tighten`] with a (monotonically non-decreasing) lower bound
//! therefore pays only for the vertices, edges and triangles it actually
//! touches — the classic CTCP scheme of Chang
//! (SIGMOD 2023), which computes the *joint* core+truss fixpoint (a subgraph
//! of what one core → truss → core sweep leaves behind, and never anything a
//! solution larger than `lb` could use).
//!
//! The reducer is *core-first*. Construction is `O(n + m)`, indexes no
//! edge and counts no triangles: it copies the input CSR and takes core
//! numbers from one bucket peel, or from a peeling the caller already
//! holds ([`Ctcp::with_peeling`]). Until supports exist no edge has died
//! to the truss rule, so the alive graph is exactly a core, and a
//! `tighten` that raises the degree threshold to `t` deletes the vertices
//! of core number `< t` in bulk by walking the peel order and flipping
//! alive flags. Supports are counted once, at the first `tighten` whose
//! truss threshold is active: only then is the `(neighbour, edge id)`
//! index built, over the subgraph the surviving vertices induce, and the
//! per-edge arrays are sized to its edges; the CSR copy is dropped. On
//! sparse graphs with a small clique–core gap that core is a few hundred
//! vertices, so neither the index nor the triangle count the rules need
//! pays for the shell around it. The joint fixpoint is unique and lies
//! inside the `(lb − k)`-core, so counting late changes no survivor.
//!
//! From then on, supports only ever decrease, so threshold crossings
//! between two `tighten` calls are found by draining support buckets rather
//! than rescanning the graph: every decrement files the edge under its new
//! support, and a `tighten` at a higher bound drains exactly the buckets the
//! raised truss threshold newly covers.
//!
//! The drain is edge-only. With both rules on, the degree threshold is
//! `deg_t = lb − k` and the support threshold `supp_t = lb − k − 1`, so
//! `deg_t = supp_t + 1` whenever supports are counted (`supp_t ≥ 1`). An
//! edge at a vertex of alive degree `d` lies in at most `d − 1` triangles,
//! since its other endpoint is one of the `d` neighbours and each triangle
//! takes a third. So once no alive edge has support below `supp_t`, every
//! vertex with an alive edge has degree `≥ supp_t + 1 = deg_t`: the core
//! rule can only retire vertices with no alive edge left. The reducer
//! therefore removes a vertex the moment its last edge dies, and keeps no
//! degree buckets. With the core rule off vertices never die; with the
//! truss rule off supports are never counted and the core phase is all
//! there is.
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

use crate::degeneracy::{peel_bucket, BucketPeel, Peeling};
use crate::graph::{Graph, VertexId};
use crate::scratch::ScratchMap;
use crate::truss::EdgeIndex;

/// What one [`Ctcp::tighten`] call deleted.
#[derive(Clone, Debug, Default)]
pub struct Removals {
    /// Vertices removed by this call, in original graph ids. During the
    /// core phase they come in peel order; once supports are counted, in
    /// the order in which they lose their last alive edge. The solver reads
    /// only the length.
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

    /// A copy of the input graph until supports are counted, `None`
    /// after. While it is held the alive graph is the subgraph the alive
    /// vertices induce (the `deg_t`-core), and the index, the per-edge
    /// arrays, `deg` and the buckets are empty.
    input: Option<Graph>,
    /// Built when supports are counted, over the vertices alive then:
    /// `edges[e] = (u, v)` with `u < v`, rows of sorted `(neighbour, e)`.
    idx: EdgeIndex,
    /// `(core number, vertex)` in peel order (a bucket peel, or the
    /// caller's [`Peeling`]), so core numbers never decrease along it;
    /// `peeled` is the prefix the core phase has deleted. Empty when the
    /// core rule is off, dropped once supports are counted.
    core_order: Vec<(u32, VertexId)>,
    peeled: usize,
    /// Triangle support per indexed edge.
    support: Vec<u32>,
    /// Alive degree per vertex.
    deg: Vec<u32>,
    v_alive: Vec<bool>,
    e_alive: Vec<bool>,
    /// Already queued for removal (never cleared: queued ⇒ removed).
    e_queued: Vec<bool>,
    /// `ebucket[s]` holds edges filed when their support became `s`
    /// (lazily invalidated).
    ebucket: Vec<Vec<u32>>,
    /// Degree / support thresholds already applied (exclusive: no live
    /// vertex or edge sits below them).
    deg_t: u32,
    supp_t: u32,

    alive_n: usize,
    alive_m: usize,
    /// Cumulative removal counters (across all tighten calls).
    vertex_removals: u64,
    edge_removals: u64,

    mark: ScratchMap,
    equeue: Vec<u32>,
}

impl Ctcp {
    /// Builds the reducer with both rules (RR5 + RR6) active, in
    /// `O(n + m)`; see [`Ctcp::with_rules`].
    pub fn new(g: &Graph, k: usize) -> Self {
        Self::with_rules(g, k, true, true)
    }

    /// Builds the reducer with each rule individually toggled (matching
    /// `SolverConfig::enable_rr5` / `enable_rr6`). Costs `O(n + m)`, a copy
    /// of the input CSR and, with the core rule on, one bucket peel for
    /// core numbers; it indexes no edge and counts no triangles. The first
    /// [`Ctcp::tighten`] whose truss threshold is active indexes the edges
    /// among the vertices that survive the core rule and counts their
    /// triangle supports; with the truss rule off neither ever happens and
    /// edges only die with their endpoints.
    pub fn with_rules(g: &Graph, k: usize, core_rule: bool, truss_rule: bool) -> Self {
        let core_order = if core_rule {
            let (offsets, neighbors) = g.csr();
            let mut peel = BucketPeel::default();
            peel_bucket(offsets, neighbors, &mut peel);
            let core = peel.core_numbers();
            peel.order()
                .iter()
                .map(|&v| (core[v as usize] as u32, v))
                .collect()
        } else {
            Vec::new()
        };
        Self::build(g, k, core_rule, truss_rule, core_order)
    }

    /// [`Ctcp::with_rules`] with its core order taken from `peeling`, a
    /// peeling of `g` the caller already holds, so a solve that has peeled
    /// its graph once does not peel it again for the reducer. Core numbers
    /// never decrease along [`Peeling::order`], which is all the core phase
    /// needs. The survivors after every [`Ctcp::tighten`] are those of
    /// [`Ctcp::with_rules`]; vertices the core phase removes may come in
    /// another order, because the two peels break ties differently.
    /// Costs `O(n + m)` for the CSR copy and peels nothing.
    pub fn with_peeling(
        g: &Graph,
        k: usize,
        core_rule: bool,
        truss_rule: bool,
        peeling: &Peeling,
    ) -> Self {
        debug_assert_eq!(peeling.order.len(), g.n(), "peeling is for another graph");
        let core_order = if core_rule {
            peeling
                .order
                .iter()
                .map(|&v| (peeling.core[v as usize] as u32, v))
                .collect()
        } else {
            Vec::new()
        };
        Self::build(g, k, core_rule, truss_rule, core_order)
    }

    /// The reducer over `g` before any `tighten`, with `core_order` as
    /// described on the field.
    fn build(
        g: &Graph,
        k: usize,
        core_rule: bool,
        truss_rule: bool,
        core_order: Vec<(u32, VertexId)>,
    ) -> Self {
        let n = g.n();
        Ctcp {
            k,
            lb: 0,
            core_rule,
            truss_rule,
            input: Some(g.clone()),
            idx: EdgeIndex::default(),
            core_order,
            peeled: 0,
            support: Vec::new(),
            deg: Vec::new(),
            v_alive: vec![true; n],
            e_alive: Vec::new(),
            e_queued: Vec::new(),
            ebucket: Vec::new(),
            deg_t: 0,
            supp_t: 0,
            alive_n: n,
            alive_m: g.m(),
            vertex_removals: 0,
            edge_removals: 0,
            mark: ScratchMap::new(0),
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

        if let Some(g) = &self.input {
            // Core phase: the alive graph is the `deg_t`-core, so raising the
            // threshold deletes exactly the vertices whose core number is
            // below it, which come next in peel order. A tighten that goes
            // on to count supports learns the shell's edge count from the
            // index it builds; only a core-only one walks the shell's rows.
            let walk_rows = new_supp_t == 0;
            while let Some(&(core, v)) = self.core_order.get(self.peeled) {
                if core >= new_deg_t {
                    break;
                }
                self.peeled += 1;
                self.v_alive[v as usize] = false;
                self.alive_n -= 1;
                self.vertex_removals += 1;
                out.vertices.push(v);
                if walk_rows {
                    let dying = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&w| self.v_alive[w as usize])
                        .count();
                    self.alive_m -= dying;
                    self.edge_removals += dying as u64;
                }
            }
            self.deg_t = self.deg_t.max(new_deg_t);
        }
        if self.input.is_some() && new_supp_t > 0 {
            self.count_supports();
        }

        if self.input.is_none() {
            // Drain the buckets the raised threshold newly covers. Entries
            // are lazily invalidated: skip anything dead, already queued, or
            // filed under a stale support (the live entry sits in a lower
            // bucket that this same ascending sweep already drained).
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
            while let Some(e) = self.equeue.pop() {
                self.remove_edge(e, &mut out.vertices);
            }
            debug_assert!(
                !self.core_rule
                    || (0..self.n()).all(|v| !self.v_alive[v] || self.deg[v] >= self.deg_t),
                "an alive vertex sits below the degree threshold after the drain"
            );
        }

        out.edges = self.edge_removals - edges_before;
        out
    }

    /// Ends the core phase: indexes the subgraph the surviving vertices
    /// induce, counts its triangle supports, sizes the per-edge arrays to
    /// its edges, files every edge in the support buckets and drops the
    /// input copy. The edges outside that subgraph are the ones the core
    /// phase removed without walking their rows. Runs once, so the warm
    /// [`Ctcp::tighten`] stays allocation-free.
    fn count_supports(&mut self) {
        let g = self.input.take().expect("supports are counted once");
        self.idx = EdgeIndex::induced(&g, &self.v_alive);
        drop(g);
        let m_core = self.idx.edges.len();
        self.edge_removals += (self.alive_m - m_core) as u64;
        self.alive_m = m_core;

        self.support = crate::truss::count_supports(&self.idx);
        let max_supp = self.support.iter().copied().max().unwrap_or(0) as usize;
        self.ebucket = vec![Vec::new(); max_supp + 1];
        for (e, &s) in self.support.iter().enumerate() {
            self.ebucket[s as usize].push(e as u32);
        }
        self.e_alive = vec![true; m_core];
        self.e_queued = vec![false; m_core];

        self.deg = self
            .idx
            .offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect();
        self.mark = ScratchMap::new(self.v_alive.len());
        self.core_order = Vec::new();
    }

    /// Takes one triangle off edge `e`'s support, then files `e` under the
    /// new support or queues it when it crossed the active threshold.
    #[inline]
    fn lose_support(&mut self, e: u32) {
        let s = self.support[e as usize].saturating_sub(1);
        self.support[e as usize] = s;
        if s < self.supp_t {
            if !self.e_queued[e as usize] {
                self.e_queued[e as usize] = true;
                self.equeue.push(e);
            }
        } else {
            self.ebucket[s as usize].push(e);
        }
    }

    /// Removes edge `e` (both endpoints alive, supports counted): two
    /// degree decrements and a support decrement for both remaining edges
    /// of every triangle through `e`. With the core rule on, an endpoint
    /// left without an alive edge dies here and is pushed to `removed`
    /// (the module docs show why no other vertex can fall below the degree
    /// threshold). The triangles are found from the shorter row `a`: by
    /// one binary search of the longer row `b` per entry of `a` when `b`
    /// is much longer, else by marking `a` and scanning `b`, which costs
    /// less per entry. Cost (row lengths as indexed):
    /// `O(min(d_a·log d_b, d_a + d_b))`.
    fn remove_edge(&mut self, e: u32, removed: &mut Vec<VertexId>) {
        debug_assert!(self.input.is_none() && self.e_alive[e as usize]);
        self.e_alive[e as usize] = false;
        self.alive_m -= 1;
        self.edge_removals += 1;
        let (u, v) = self.idx.edges[e as usize];
        debug_assert!(self.v_alive[u as usize] && self.v_alive[v as usize]);

        for x in [u, v] {
            self.deg[x as usize] -= 1;
            if self.core_rule && self.deg[x as usize] == 0 {
                self.v_alive[x as usize] = false;
                self.alive_n -= 1;
                self.vertex_removals += 1;
                removed.push(x);
            }
        }

        // Both ways visit the common alive neighbours w in ascending order
        // and decrement (a, w) before (b, w).
        let (a, b) = if self.idx.row(u).len() <= self.idx.row(v).len() {
            (u, v)
        } else {
            (v, u)
        };
        let row_a = self.idx.offsets[a as usize]..self.idx.offsets[a as usize + 1];
        let row_b = self.idx.offsets[b as usize]..self.idx.offsets[b as usize + 1];
        let log_b = (usize::BITS - row_b.len().leading_zeros()) as usize;
        if row_a.len() * log_b < row_a.len() + row_b.len() {
            for i in row_a {
                let (w, ea) = self.idx.inc[i];
                if !self.e_alive[ea as usize] {
                    continue;
                }
                let probe = self.idx.inc[row_b.clone()].binary_search_by_key(&w, |&(x, _)| x);
                let Ok(j) = probe else {
                    continue;
                };
                let eb = self.idx.inc[row_b.start + j].1;
                if self.e_alive[eb as usize] {
                    self.lose_support(ea);
                    self.lose_support(eb);
                }
            }
        } else {
            self.mark.reset();
            for i in row_a {
                let (w, ea) = self.idx.inc[i];
                if self.e_alive[ea as usize] {
                    self.mark.set(w as usize, ea as usize + 1);
                }
            }
            for i in row_b {
                let (w, eb) = self.idx.inc[i];
                let stored = self.mark.get_or(w as usize, 0);
                if stored != 0 && self.e_alive[eb as usize] {
                    self.lose_support((stored - 1) as u32);
                    self.lose_support(eb);
                }
            }
        }
    }

    /// Extracts the surviving universe as a relabelled graph plus the new →
    /// old id map, built directly in CSR form from the input copy before
    /// supports are counted and from the index after. Allocates; callers
    /// count this against `universe_rebuilds`.
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
            // Each row is sorted by neighbour and `new_id` is monotone, so
            // each row comes out sorted.
            match &self.input {
                Some(g) => neighbors.extend(
                    g.neighbors(v)
                        .iter()
                        .filter(|&&w| self.v_alive[w as usize])
                        .map(|&w| new_id[w as usize]),
                ),
                None => neighbors.extend(
                    self.idx
                        .row(v)
                        .iter()
                        .filter(|&&(_, e)| self.e_alive[e as usize])
                        .map(|&(w, _)| new_id[w as usize]),
                ),
            }
            offsets.push(neighbors.len());
        }
        (Graph::from_csr(offsets, neighbors), keep)
    }
}

/// Reference implementation: iterates [`k_truss`](crate::truss::k_truss)
/// and `k_core` from scratch to the joint fixpoint. Returns the reduced,
/// relabelled graph and the new → old id map. Shares no drain code with
/// [`Ctcp`], so tests use it to pin down what [`Ctcp::tighten`] must
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
        lb.saturating_sub(k + 1)
    } else {
        0
    };
    let mut current = g.clone();
    let mut keep: Vec<VertexId> = g.vertices().collect();
    loop {
        let n_before = current.n();
        let m_before = current.m();
        if supp_t > 0 {
            current = crate::truss::k_truss(&current, supp_t + 2);
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
        assert!(c.tighten(6).is_empty(), "repeated lb must be a no-op");
        assert_eq!(c.alive_vertices(), alive);
        assert_eq!(c.lb(), 6);
    }

    #[test]
    fn tighten_batch_edge_cases() {
        // A pending schedule is applied as one `tighten` at its maximum.
        let g = gen::complete(5);
        let mut c = Ctcp::new(&g, 1);
        let empty: [usize; 0] = [];
        let max = empty.iter().copied().max().unwrap_or(0);
        assert!(c.tighten(max).is_empty(), "empty schedule is a no-op");
        assert_eq!(c.lb(), 0);
        assert_eq!(c.alive_vertices().len(), 5);
        c.tighten(6);
        // A schedule entirely below the current bound is clamped away.
        let max = [1usize, 2, 3].into_iter().max().unwrap();
        assert!(c.tighten(max).is_empty());
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
    fn tighten_at_schedule_max_matches_sequential_tighten() {
        // A pending schedule of bounds needs one `tighten` at its maximum:
        // the reducer clamps to the running maximum, so stepping through a
        // non-monotone schedule lands on the same state and removals.
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
                let mut once = Ctcp::new(&g, k);
                let rem = once.tighten(8);
                assert_eq!(
                    once.alive_vertices(),
                    sequential.alive_vertices(),
                    "trial {trial} k {k}"
                );
                assert_eq!(once.lb(), sequential.lb());
                assert_eq!(rem.edges, total.edges, "trial {trial} k {k}");
                // The removed vertex *sets* agree (order may differ: one
                // drain visits the buckets in a different sequence).
                let mut a = rem.vertices.clone();
                let mut b = total.vertices.clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "trial {trial} k {k}");
                let (universe_a, _) = once.extract_universe();
                let (universe_b, _) = sequential.extract_universe();
                assert_eq!(
                    universe_a, universe_b,
                    "universes differ: trial {trial} k {k}"
                );
            }
        }
    }

    #[test]
    fn supports_are_counted_once_inside_the_core() {
        let mut rng = gen::seeded_rng(77);
        let g = gen::chung_lu(400, 8.0, 2.2, &mut rng);
        let (k, lb) = (1, 7);
        let mut c = Ctcp::new(&g, k);
        let unindexed = |c: &Ctcp| {
            c.input.is_some()
                && c.idx.edges.is_empty()
                && c.support.is_empty()
                && c.e_alive.is_empty()
                && c.e_queued.is_empty()
        };
        assert!(unindexed(&c), "construction indexes no edge");
        // Degree threshold 1, truss threshold 0: still the core phase.
        c.tighten(k + 1);
        assert!(unindexed(&c));
        c.tighten(lb);
        assert!(c.input.is_none(), "the count drops the input copy");
        // Every indexed edge lies inside the (lb − k)-core, and the index
        // holds exactly that core's edges: the alive edges at the count.
        let core = crate::degeneracy::peel(&g).core;
        for &(u, v) in &c.idx.edges {
            assert!(
                core[u as usize].min(core[v as usize]) >= lb - k,
                "edge {u}-{v}"
            );
        }
        let (cored, _) = crate::degeneracy::k_core(&g, lb - k);
        let m_core = c.idx.edges.len();
        assert!(m_core < g.m(), "the bulk pass must remove something");
        assert_eq!(m_core, cored.m());
        for len in [c.support.len(), c.e_alive.len(), c.e_queued.len()] {
            assert_eq!(len, m_core, "per-edge arrays are sized to the core");
        }
        let (_, e_removed) = c.removal_counters();
        let drained = c.e_alive.iter().filter(|&&alive| !alive).count();
        assert_eq!(e_removed as usize, g.m() - m_core + drained);
        assert_eq!(m_core - drained, c.alive_m());
        assert!(c.core_order.is_empty(), "the core phase is over");
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
